package main

import (
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain lets the test binary be its own calibrator process, as the
// benchmark binary is.
func TestMain(m *testing.M) {
	if os.Getenv(calibEnv) != "" {
		serveCalibration()
		return
	}
	os.Exit(m.Run())
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMeetsContract holds BENCHMARK.json to the limits the driver
// refuses a benchmark for, before a single run.
func TestSpecMeetsContract(t *testing.T) {
	spec := mustSpec(t)
	if info, err := os.Stat("../BENCHMARK.json"); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads named, the program has %d", n, len(workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	used := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is named but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	metric := func(m metricSpec, endToEnd bool) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if !endToEnd && m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		metric(m, true)
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		metric(m, false)
	}
}

// TestWorkloadsAtToySize takes every workload through the code path the
// driver measures, untraced and traced, at toy size. A run is correct only
// if every check passed, which includes: no metric BENCHMARK.json does not
// name, none emitted twice, span parents resolve, self times non-negative.
func TestWorkloadsAtToySize(t *testing.T) {
	spec := mustSpec(t)
	start := time.Now()
	emitted := make(map[string]bool)
	for _, wl := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			rc := newRunConfig(spec, wl, defaultSeed, 0.3, trace, toySizes, t.TempDir())
			var w io.Writer = io.Discard
			if testing.Verbose() {
				w = os.Stderr
			}
			res, rep := runOne(rc, w)
			for _, c := range rep.checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", wl, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json names %d for this pass", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing from the result", wl, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", wl, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl, m.Name, got.Value)
				}
			}
			for n := range rep.metrics {
				emitted[n] = true
			}
		}
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !emitted[m.Name] {
				t.Errorf("%s is named in BENCHMARK.json but no workload measures it", m.Name)
			}
		}
	}
	t.Logf("toy suite took %.1fs", time.Since(start).Seconds())
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	r := &spanRecorder{spans: []span{
		{parent: 0, start: 0, end: 100},
		{parent: 1, start: 10, end: 30},
		{parent: 1, start: 20, end: 50},  // overlaps its sibling: 10..50 is covered once
		{parent: 1, start: 60, end: 120}, // runs past its parent: only 60..100 counts
	}}
	if got := r.selfTimes(); got[0] != 20 || got[1] != 20 || got[2] != 30 || got[3] != 60 {
		t.Errorf("self times %v, want [20 20 30 60]", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1 2 4 = %v .. %v, want 1 .. 4", q1, q3)
	}
}
