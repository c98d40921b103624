// Package contention reproduces the paper's offline resource-contention
// experiments (Section 3.2): it runs guest and host workloads together on
// simulated machines, measures the reduction of host CPU usage caused by
// the guest, and derives the two thresholds Th1 and Th2 that the
// multi-state availability model is built on.
//
// The harness follows the paper's protocol exactly:
//
//  1. Calibrate: run each host group alone and measure its aggregate CPU
//     usage — that measured value (not the nominal sum of duty cycles) is
//     the group's LH.
//  2. Contend: run the same group together with a guest process and
//     measure the reduction rate of host CPU usage.
//  3. Average over several randomly composed groups per (LH, M) point,
//     because "the same host workload can come from various individual
//     host processes".
//
// Every experiment point is an independent simulation, so the harness
// fans points out on par.For (GOMAXPROCS workers); the figures are the same
// at any worker count.
package contention
