package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Every workload runs in its own process, so peak_rss_mb is its own and one
// workload's garbage is not another's GC work. The suite and the A/A mode
// start this same binary once per run and read the result line back.

// runChild runs one workload in a child process. The child's report goes to
// this process's stderr when verbose; its last stdout line is the result.
func runChild(workload string, seed int64, seconds float64, trace bool, verbose bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if verbose {
		cmd.Stderr = os.Stderr
	}
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s printed no result (%v): %v\n%s", workload, runErr, err, stderr.String())
	}
	if runErr != nil && res.Correct {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	if !res.Correct && !verbose {
		os.Stderr.Write(stderr.Bytes())
	}
	return res, nil
}

// runSuite is the one command: every workload untraced, then every workload
// traced, with each report printed. It returns the process's exit code.
func runSuite(spec *benchSpec, seed int64, seconds float64) int {
	exit := 0
	start := time.Now()
	for _, trace := range []bool{false, true} {
		for _, wl := range spec.workloadNames() {
			res, err := runChild(wl, seed, seconds, trace, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				exit = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				exit = 1
			}
		}
		if !trace {
			// The driver makes 4 + 22 x workloads runs of about this length each.
			perRun := time.Since(start).Seconds() / float64(len(spec.Workloads))
			runs := 4 + 22*len(spec.Workloads)
			fmt.Fprintf(os.Stderr, "\nbench: untraced suite took %.1fs (%.1fs a run); the driver's %d runs would take about %.0fs of its %ds cap\n",
				time.Since(start).Seconds(), perRun, runs, perRun*float64(runs), suiteCapSeconds)
			if perRun*float64(runs) > suiteCapSeconds {
				fmt.Fprintln(os.Stderr, "bench: FAIL  over the cap")
				exit = 1
			}
		}
	}
	if exit == 0 {
		fmt.Fprintln(os.Stderr, "bench: all checks passed")
	} else {
		fmt.Fprintln(os.Stderr, "bench: FAILED")
	}
	return exit
}

// quartiles are Python's statistics.quantiles(values, n=4), the exclusive
// method, which is what the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// aaSet is one set's runs of one metric on one workload.
type aaSet struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
}

func newAASet(vs []float64) aaSet {
	q1, _, q3 := quartiles(vs)
	s := aaSet{Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	if s.Median != 0 {
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

type aaMetric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	A      aaSet   `json:"a"`
	B      aaSet   `json:"b"`
	// Worse is how much worse B's median reads than A's, as a share of A's
	// (negative when B reads better).
	Worse float64 `json:"worse"`
	OK    bool    `json:"ok"`
}

type aaFile struct {
	Seed       int64                           `json:"first_seed"`
	Seconds    float64                         `json:"seconds"`
	RunsPerSet int                             `json:"runs_per_set"`
	Host       string                          `json:"host"`
	Workloads  map[string]map[string]*aaMetric `json:"workloads"`
	OK         bool                            `json:"ok"`
}

// runAA runs two interleaved sets (A B A B ...) of this binary on every
// workload, each pair with another seed, and writes the per-metric medians,
// quartiles and spreads to baseline/aa.json. It fails if a spread exceeds
// the metric's bound (setup_s excepted, as in the driver) or if set B's
// median is worse than set A's by more than the bound.
func runAA(spec *benchSpec, benchDir string, seed int64, seconds float64) int {
	out := aaFile{
		Seed: seed, Seconds: seconds, RunsPerSet: aaRuns, OK: true,
		Host:      fmt.Sprintf("nproc %d, %s, %s/%s", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Workloads: make(map[string]map[string]*aaMetric),
	}
	for _, wl := range spec.workloadNames() {
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < aaRuns; i++ {
			for set := 0; set < 2; set++ {
				res, err := runChild(wl, seed+int64(i), seconds, false, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d failed its checks (%d of %d ops failed)\n", wl, seed+int64(i), res.Failed, res.Attempted)
					return 1
				}
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: -aa %s pair %d/%d\n", wl, i+1, aaRuns)
		}
		out.Workloads[wl] = make(map[string]*aaMetric)
		for _, s := range spec.EndToEnd {
			m := &aaMetric{Unit: s.Unit, Better: s.Better, Bound: s.Bound, A: newAASet(values[0][s.Name]), B: newAASet(values[1][s.Name])}
			m.Worse = (m.B.Median - m.A.Median) / m.A.Median
			if s.Better == "higher" {
				m.Worse = -m.Worse
			}
			m.OK = m.Worse <= m.Bound && (s.Name == "setup_s" || (m.A.Spread <= m.Bound && m.B.Spread <= m.Bound))
			out.OK = out.OK && m.OK
			verdict := "ok  "
			if !m.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "  %s %-16s %-14s A %12.4f (spread %5.2f%%)  B %12.4f (spread %5.2f%%)  B worse by %+6.2f%%  bound %.0f%%\n",
				verdict, wl, s.Name, m.A.Median, 100*m.A.Spread, m.B.Median, 100*m.B.Spread, 100*m.Worse, 100*m.Bound)
			out.Workloads[wl][s.Name] = m
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.MkdirAll(filepath.Join(benchDir, "baseline"), 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(benchDir, "baseline", "aa.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !out.OK {
		fmt.Fprintln(os.Stderr, "bench: A/A FAILED: the two sets of the same binary differ by more than a bound")
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: A/A passed; baseline/aa.json written")
	return 0
}
