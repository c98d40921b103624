package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of vs (0 for none); vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by nearest rank on a sorted copy.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[i]
}

// spreadPct is (max - min) / median of vs, in per cent.
func spreadPct(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return 100 * (hi - lo) / m
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procStatusKB reads one "Vm...: N kB" line of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseFloat(fields[0], 64)
		return v
	}
	return 0
}

// peakRSSMB is the most memory the process has had resident since
// resetPeakRSS (or since it started, where the kernel refuses the reset).
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// resetPeakRSS sets the kernel's high-water mark back to what is resident
// now, so that each sub-window has a peak of its own: one peak over a whole
// run is a maximum of many racy GC cycles, and only grows with run length.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused: peaks then read since process start
}
func rssBytes() float64 { return procStatusKB("VmRSS") * 1024 }

// usage is the process's resource consumption at one instant; sub gives
// the delta over a window.
type usage struct {
	at        time.Time
	user, sys float64 // CPU seconds
	mallocs   uint64
	bytes     uint64
	gcPauseNS uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		at: time.Now(), user: tv(ru.Utime), sys: tv(ru.Stime),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPauseNS: ms.PauseTotalNs,
	}
}

func (u usage) sub(a usage) usage {
	return usage{
		user: u.user - a.user, sys: u.sys - a.sys,
		mallocs: u.mallocs - a.mallocs, bytes: u.bytes - a.bytes, gcPauseNS: u.gcPauseNS - a.gcPauseNS,
	}
}

// add accumulates a window delta.
func (u *usage) add(d usage) {
	u.user += d.user
	u.sys += d.sys
	u.mallocs += d.mallocs
	u.bytes += d.bytes
	u.gcPauseNS += d.gcPauseNS
}

// splitmix is the generator behind every seeded input: cheap enough to
// re-derive per (batch, sweep), so inputs depend on the seed and not on
// which goroutine ran first.
type splitmix uint64

func newSplitmix(parts ...int64) *splitmix {
	s := splitmix(0)
	for _, p := range parts {
		s = splitmix(mix64(uint64(s) + splitmixGamma ^ uint64(p)))
	}
	return &s
}

const splitmixGamma = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) next() uint64 {
	*s += splitmixGamma
	return mix64(uint64(*s))
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// report collects one run's metrics and checks.
type report struct {
	workload  string
	units     map[string]string // every name BENCHMARK.json lists
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []checkResult
	notes     []string
}

type checkResult struct {
	Name   string
	OK     bool
	Detail string
}

func newReport(workload string, spec *benchSpec) *report {
	return &report{workload: workload, units: spec.units(), metrics: make(map[string]float64)}
}

// set records a metric; a name BENCHMARK.json does not list, or one set
// twice, is a bug in the benchmark and fails the run.
func (r *report) set(name string, v float64) {
	if _, ok := r.units[name]; !ok {
		r.check("metric-named:"+name, false, "emitted a metric BENCHMARK.json does not name")
		return
	}
	if _, dup := r.metrics[name]; dup {
		r.check("metric-once:"+name, false, "emitted twice")
		return
	}
	r.metrics[name] = v
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// setUsage emits the harness counters for a window's resource delta.
func (r *report) setUsage(d usage, ops int64) {
	if ops < 1 {
		ops = 1
	}
	r.set("bench.allocs_per_op", float64(d.mallocs)/float64(ops))
	r.set("bench.alloc_bytes_per_op", float64(d.bytes)/float64(ops))
	r.set("bench.gc_pause_total_ms", float64(d.gcPauseNS)/1e6)
	r.set("bench.cpu_user_s", d.user)
	r.set("bench.cpu_sys_s", d.sys)
}
