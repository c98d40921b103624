// Package testbed simulates the paper's production FGCS testbed: 20
// RedHat-Linux machines in a student computer laboratory, traced for three
// months (Section 5, ~1800 machine-days). It stands in for the real lab —
// real students, real reboots, a real updatedb cron job — with a stochastic
// workload generator calibrated against every aggregate statistic the paper
// publishes (Table 2, Figures 6 and 7).
//
// Per machine and day, the generator produces:
//
//   - an ambient host load that follows the lab's diurnal rhythm (students
//     log in from mid-morning, weekdays busier than weekends);
//   - busy episodes — compile/test spikes that push the host load over Th2
//     for minutes at a time, occasionally in quick succession (which yields
//     the sub-5-minute availability intervals of Figure 6);
//   - short non-qualifying spikes that only suspend a guest (the paper's
//     "transiently high CPU load" from remote X starts and system daemons);
//   - memory-hog episodes that exhaust free memory and trigger S4;
//   - the 4 AM updatedb cron job on every machine, which reproduces
//     Figure 7's hour-5 spike of exactly one event per machine per day;
//   - URR: console-user reboots (sub-minute outages, ~90% of URR per the
//     paper) and rare hardware/software failures (outages of hours).
//
// The synthetic load series feeds the same monitor and detector used
// everywhere else in this repository; the published statistics are then
// recomputed from the detected events, not from the generator's bookkeeping,
// so the whole detection pipeline is exercised end to end.
//
// There is one runner: RunSharded simulates the fleet on
// Config.Parallelism workers (par.For) and streams each machine's events to
// an EventSink once every lower machine's have gone, so the sink works
// while the simulation goes on and at most a shard of machines waits; Run
// is that runner with the whole fleet as one shard, collected in memory.
// The per-period reference runner it is compared against lives in
// internal/check, built on ObservationStream.
package testbed
