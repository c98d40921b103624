package trace

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the parallel analyze engine over v2 block files. The unit of
// work is a chunk: a run of consecutive blocks within one file whose machine
// ranges are disjoint from every other chunk's. Because the writer emits
// events sorted by (machine, start) and cuts blocks in stream order, block
// i+1's MinMachine is always >= block i's MaxMachine; wherever the
// inequality is strict the file can be split and the two sides analyzed
// independently. Each worker drives a partial StreamAnalyzer over its
// chunk's machine range, and the partials merge in range order with
// MergeFrom — which is exact, not approximate, so the parallel result is
// bit-identical to a serial pass (the equivalence is pinned by tests and
// the check harness).

// blockChunk is one worker's slice of the scan: blocks [blockLo, blockHi)
// of one file, responsible for machines [lo, hi).
type blockChunk struct {
	file             *BlockFile
	blockLo, blockHi int
	lo, hi           MachineID
}

// chunkBlockFiles validates that files form a contiguous machine partition
// and splits their blocks into independently analyzable chunks of at least
// minBlocks blocks (chunks never split a machine across workers).
func chunkBlockFiles(files []*BlockFile, minBlocks int) (Header, []blockChunk, error) {
	if len(files) == 0 {
		return Header{}, nil, fmt.Errorf("trace: no block files to analyze")
	}
	h := files[0].Header()
	for _, f := range files[1:] {
		if f.Header() != h {
			return Header{}, nil, fmt.Errorf("trace: block files disagree on header: %+v vs %+v", h, f.Header())
		}
	}
	var chunks []blockChunk
	next := MachineID(0)
	for _, f := range files {
		lo, hi := f.Coverage()
		if lo < next {
			return Header{}, nil, fmt.Errorf("trace: block file coverages overlap: machines up to %d already covered, file covers [%d, %d)", next, lo, hi)
		}
		// Machines in a coverage gap [next, lo) have no events anywhere;
		// fold them into this file's first chunk so they are idle-credited
		// exactly as a serial pass over the same inputs would credit them.
		cur := blockChunk{file: f, lo: next}
		// floor is the lowest machine the next block may hold: the coverage's
		// first, then the last machine of the block before. The summaries are
		// outside input, and the chunk ranges cut from them must nest.
		floor := lo
		for i := 0; i < f.NumBlocks(); i++ {
			m := f.Block(i)
			if m.Count == 0 {
				continue // holds no machine, so its summary says nothing
			}
			if m.MinMachine < floor || m.MaxMachine < m.MinMachine || m.MaxMachine >= hi {
				return Header{}, nil, fmt.Errorf("trace: block %d machines [%d, %d] out of order or outside file coverage [%d, %d)", i, m.MinMachine, m.MaxMachine, lo, hi)
			}
			// Split before block i when every machine of the preceding
			// blocks is strictly below block i's first machine.
			if i > cur.blockLo && i-cur.blockLo >= minBlocks && floor < m.MinMachine {
				cur.blockHi = i
				cur.hi = m.MinMachine
				chunks = append(chunks, cur)
				cur = blockChunk{file: f, blockLo: i, lo: m.MinMachine}
			}
			floor = m.MaxMachine
		}
		cur.blockHi = f.NumBlocks()
		cur.hi = hi
		if cur.hi < cur.lo {
			cur.hi = cur.lo
		}
		chunks = append(chunks, cur)
		next = cur.hi
	}
	// A serial analyzer credits every trailing machine of the fleet as
	// idle; widen the last chunk so the merged result does too.
	if h.Machines > 0 && next < MachineID(h.Machines) {
		chunks[len(chunks)-1].hi = MachineID(h.Machines)
	}
	return h, chunks, nil
}

// analyzeChunk runs one partial analyzer over a chunk's blocks, decoding
// through buf — its worker's, warm from the chunks before.
func analyzeChunk(h Header, c blockChunk, buf *BlockBuf) (*StreamAnalyzer, error) {
	a := NewStreamAnalyzerRange(h.Span, h.Calendar, h.Machines, c.lo, c.hi)
	// An availability interval ends where a run of events begins or its
	// machine's span does, so the directory's counts bound the Figure 6
	// samples: n holds them all, and the weekend's calendar share holds the
	// weekend's unless weekends fail more than weekdays (append absorbs it).
	n := min(int(c.hi-c.lo), maxEventsHint)
	for i := c.blockLo; i < c.blockHi; i++ {
		n = min(n+c.file.Block(i).Count, maxEventsHint)
	}
	a.ivLens = [2][]float64{sim.Weekday: make([]float64, 0, n), sim.Weekend: make([]float64, 0, n*2/7)}
	for i := c.blockLo; i < c.blockHi; i++ {
		events, err := c.file.DecodeBlock(i, buf)
		if err != nil {
			return nil, err
		}
		// DecodeBlock has just held every event to Event.Validate.
		for j := range events {
			if err := a.observe(&events[j]); err != nil {
				return nil, err
			}
		}
	}
	a.Finish()
	return a, nil
}

// AnalyzeBlockFiles computes the full trace analysis — Table 2, Figure 6,
// Figure 7 — over one or more v2 block files whose coverages partition the
// fleet contiguously from machine 0 (the natural output of the sharded
// testbed, or a single file for the whole fleet). The chunks are scanned
// on workers (par.For) and the partial analyzers merged in machine order;
// the result, and the error, which is the first failing chunk's, are those
// of workers == 1. workers <= 0 means runtime.GOMAXPROCS(0). A file
// salvaged without its directory (see
// BlockFile.Truncated) is refused with an error wrapping ErrTruncated: its
// visible prefix would otherwise be reported as the whole trace.
func AnalyzeBlockFiles(files []*BlockFile, workers int) (*StreamAnalyzer, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for i, f := range files {
		if f.Truncated() {
			return nil, fmt.Errorf("trace: block file %d of %d: %w", i+1, len(files), errNoDirectory)
		}
	}
	// Very small chunks would pay more in analyzer setup and merge than
	// they win back in overlap, so aim for a few chunks per worker rather
	// than one per splittable boundary.
	total := 0
	for _, f := range files {
		total += f.NumBlocks()
	}
	minBlocks := max(total/(4*workers), 1)
	h, chunks, err := chunkBlockFiles(files, minBlocks)
	if err != nil {
		return nil, err
	}

	partials := make([]*StreamAnalyzer, len(chunks))
	err = par.For(len(chunks), workers, func(buf *BlockBuf, i int) (err error) {
		partials[i], err = analyzeChunk(h, chunks[i], buf)
		return err
	})
	if err != nil {
		return nil, err
	}

	out := partials[0]
	for dt := range out.ivLens { // grown to the merged size once, not once a merge
		n := 0
		for _, p := range partials[1:] {
			n += len(p.ivLens[dt])
		}
		out.ivLens[dt] = slices.Grow(out.ivLens[dt], n)
	}
	for _, p := range partials[1:] {
		if err := out.MergeFrom(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AnalyzeBlockPaths opens each path as a block file and analyzes them with
// AnalyzeBlockFiles, closing the files before returning. Errors opening a
// file, and the refusal of a truncated one, name its path.
func AnalyzeBlockPaths(paths []string, workers int) (*StreamAnalyzer, error) {
	files := make([]*BlockFile, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := OpenBlockFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if f.Truncated() {
			return nil, fmt.Errorf("%s: %w", p, errNoDirectory)
		}
	}
	return AnalyzeBlockFiles(files, workers)
}
