// Package trace defines the on-disk and in-memory representation of
// resource-unavailability traces — the data product of the paper's
// three-month testbed study (Section 5) — together with the analyses that
// reproduce the paper's Table 2 (unavailability by cause), Figure 6
// (cumulative distribution of availability-interval lengths) and Figure 7
// (unavailability occurrences per hour of day).
//
// A trace holds, per machine, the start and end time of each occurrence of
// resource unavailability, the failure state (S3, S4 or S5), and the CPU
// and memory that remained available for guest jobs — exactly the fields
// the paper's monitor recorded. Traces are stored in the FGCB v2 columnar
// block format — written by BlockWriter, read only through BlockFile, which
// ReadFile, AnalyzeBlockFiles, NewBlockIndex and predict.EvaluateBlocks all
// open — and export to CSV (one event per line, human-inspectable, no
// metadata, write-only). The v1 row codec keeps only its encoder, for the
// benchmark.
//
// The three analyses have one implementation, StreamAnalyzer: the Trace
// methods feed it their events, and AnalyzeBlockFiles merges partial
// instances of it over block files, serial being one worker.
package trace
