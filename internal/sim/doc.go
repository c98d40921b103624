// Package sim provides the simulation substrate shared by the scheduler
// simulator (internal/simos) and the testbed simulator (internal/testbed):
// a virtual clock measured as an offset from a simulation epoch, calendar
// helpers (hour of day, weekday/weekend classification) and deterministic
// named random-number streams for reproducible experiments.
//
// All simulated time in this repository is virtual: nothing ever consults
// the wall clock, so every experiment is exactly reproducible from its seed.
package sim
