// Command bench is the repository's benchmark: four workloads over the two
// end-to-end paths (control plane: cp-discover, cp-ingest; trace store:
// trace-generate, trace-analyze), each run in its own process, with a
// traced pass that gives the per-layer numbers. README.md says why each
// workload exists and which layer should move which number.
//
//	bench/run.sh --workload cp-discover --seed 1 --seconds 16 --trace 0   # one run, as the driver makes it
//	bench/run.sh                                                          # the suite: untraced then traced, all workloads
//	bench/run.sh -aa                                                      # two interleaved sets, written to baseline/aa.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed the suite and the A/A baseline run with;
	// heldOutSeed is never used while a change is written, only to confirm
	// a claim afterwards.
	defaultSeed = 20060814
	heldOutSeed = 917
	// suiteCapSeconds is the driver's cap on all its runs of one commit.
	suiteCapSeconds = 3420
	// setups is how often a run sets up; the median time is reported.
	setups = 3
	// aaRuns is the runs per set and workload in -aa, each pair on another
	// seed: what the guide asks of a comparison, and what aa.json records.
	aaRuns = 10
)

// sizes fixes how much work a workload does. The full sizes are what the
// driver measures; the toy sizes take the same code path in the smoke test.
type sizes struct {
	nodes, batch, shards, setupSweeps int
	churn                             float64

	genMachines, genDays, genShard  int
	corpusMachines, corpusDays      int
	corpusShard                     int
	evalMachines, evalDays          int // the one-file trace the predictors are evaluated on
	replaySeeds, obsDays, probeReps int
	ringLoops, serviceRounds        int
}

var fullSizes = sizes{
	nodes: 50_000, batch: 1000, shards: 2, setupSweeps: 3, churn: 0.20,
	genMachines: 50, genDays: 365, genShard: 25,
	corpusMachines: 100, corpusDays: 365, corpusShard: 10,
	evalMachines: 20, evalDays: 182,
	replaySeeds: 8, obsDays: 30, probeReps: 5,
	ringLoops: 4, serviceRounds: 4,
}

var toySizes = sizes{
	nodes: 500, batch: 100, shards: 2, setupSweeps: 3, churn: 0.20,
	genMachines: 4, genDays: 7, genShard: 2,
	corpusMachines: 4, corpusDays: 35, corpusShard: 2,
	evalMachines: 2, evalDays: 35,
	replaySeeds: 1, obsDays: 2, probeReps: 1,
	ringLoops: 1, serviceRounds: 2,
}

// runConfig is one run of one workload.
type runConfig struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	sizes    sizes

	// Closed-loop windows: a warm-up, then sub-windows of `each`.
	warmup, each time.Duration
	windows      int

	tmp string // scratch inside the checkout, removed when the run ends
	out string // where spans and reports are written

	cal        *calibrator
	kernelMS   []float64 // every calibration kernel sample of the run
	setupS     []float64 // each set-up's seconds, as the clock read
	rssPerNode float64
}

func newRunConfig(spec *benchSpec, workload string, seed int64, seconds float64, trace bool, sz sizes, benchDir string) *runConfig {
	rc := &runConfig{
		spec: spec, workload: workload, seed: seed, seconds: seconds, trace: trace,
		nproc: runtime.NumCPU(), sizes: sz,
		out: filepath.Join(benchDir, "out"),
	}
	rc.tmp = filepath.Join(rc.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	// About two sub-windows a second; a traced run needs an even number,
	// half of them traced.
	rc.windows = max(1, int(math.Round(2*seconds)))
	if trace && rc.windows%2 == 1 {
		rc.windows++
	}
	rc.each = time.Duration(seconds / float64(rc.windows) * float64(time.Second))
	rc.warmup = min(time.Second, rc.each)
	return rc
}

// sampleHost times the calibration kernel once, next to whatever the run
// is measuring.
func (rc *runConfig) sampleHost() error {
	ms, err := rc.cal.sample()
	if err == nil {
		rc.kernelMS = append(rc.kernelMS, ms)
	}
	return err
}

// hostSpeed is how fast the host ran over the run, as a share of the
// reference host's speed.
func (rc *runConfig) hostSpeed() float64 { return calibRefMS / median(rc.kernelMS) }

// timeSetup times one set-up by the clock, with a kernel sample on each side.
func (rc *runConfig) timeSetup(fn func() error) error {
	if err := rc.sampleHost(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rc.setupS = append(rc.setupS, time.Since(t0).Seconds())
	return rc.sampleHost()
}

// finishSpans checks the recorded spans, writes them out and counts them.
func (rc *runConfig) finishSpans(rep *report, rec *spanRecorder) error {
	orphans, negative := 0, 0
	for i, s := range rec.spans {
		if s.parent < 0 || int(s.parent) > len(rec.spans) || int(s.parent) == i+1 {
			orphans++
		}
	}
	for _, d := range rec.selfTimes() {
		if d < 0 {
			negative++
		}
	}
	rep.check("span-parents-resolve", orphans == 0, "%d spans name a parent that was not recorded", orphans)
	rep.check("span-self-times-non-negative", negative == 0, "%d spans have children covering more than themselves", negative)
	rep.set("bench.spans", float64(len(rec.spans)))
	rep.set("bench.spans_dropped", float64(rec.dropped))
	path := filepath.Join(rc.out, rc.workload+".spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return err
	}
	self := rec.byName(true)
	total := rec.byName(false)
	names := make([]int, 0, len(total))
	for n := range total {
		names = append(names, int(n))
	}
	sort.Ints(names)
	for _, n := range names {
		rep.note("span %-22s n=%-7d p50 %10.1f us   self p50 %10.1f us", spanNames[n], len(total[uint8(n)]), median(total[uint8(n)]), median(self[uint8(n)]))
	}
	rep.note("%d spans written to %s (%d dropped)", len(rec.spans), path, rec.dropped)
	return nil
}

var workloads = map[string]func(*runConfig, *report) error{
	wlDiscover: runDiscover,
	wlIngest:   runIngest,
	wlGenerate: runGenerate,
	wlAnalyze:  runAnalyze,
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and returns its result. The
// human-readable report goes to w.
func runOne(rc *runConfig, w io.Writer) (result, *report) {
	rep := newReport(rc.workload, rc.spec)
	cal, err := startCalibrator()
	if err == nil {
		rc.cal = cal
		defer cal.stop()
		err = os.MkdirAll(rc.tmp, 0o755)
	}
	if err == nil {
		defer os.RemoveAll(rc.tmp)
		err = workloads[rc.workload](rc, rep)
	}
	if err != nil {
		rep.check("run", false, "%v", err)
	}
	specs := rc.spec.EndToEnd
	if rc.trace {
		specs = rc.spec.PerLayer
	}
	res := result{Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok && !rc.trace {
			rep.check("metric-emitted:"+s.Name, false, "end-to-end metric missing")
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range rep.metrics {
		if _, ok := res.Metrics[name]; !ok {
			rep.check("metric-of-this-pass:"+name, false, "set in the wrong pass")
		}
	}
	res.Correct = rep.correct()

	pass := "untraced"
	if rc.trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d, %.0fs ==\n", rc.workload, pass, rc.seed, rc.seconds)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, s := range specs {
		if m := res.Metrics[s.Name]; m.Value != 0 {
			fmt.Fprintf(w, "  %-48s %16.4f %s\n", s.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, c := range rep.checks {
		if c.OK {
			fmt.Fprintf(w, "  ok    %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
	return res, rep
}

// header prints what a reader needs to place the numbers.
func header(w io.Writer, seed int64) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "bench: seed %d (default %d, held-out %d), nproc %d, GOMAXPROCS %d, %s, kernel %s\n",
		seed, defaultSeed, heldOutSeed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
	fmt.Fprintf(w, "bench: loopback TCP; WAL and shards on the checkout's filesystem under bench/out; WAL flush policy SyncInterval 100ms / SyncEveryBytes 1MiB (defaults), CompactEvery %d\n", walCompactEvery)
}

// findBenchDir locates this package's directory from either place the
// benchmark is started: the checkout root (run.sh) or bench/ (go run .).
func findBenchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(d, "spec.go")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}

func main() {
	if os.Getenv(calibEnv) != "" { // started by startCalibrator
		serveCalibration()
		return
	}
	workload := flag.String("workload", "", "run one workload in this process (default: the suite, one process each)")
	seed := flag.Int64("seed", defaultSeed, "workload seed: fleet states, churn, testbed seed and replay seeds derive from it")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "one sub-window: a smoke run, not a measurement")
	aa := flag.Bool("aa", false, "run two interleaved sets of the same binary and write baseline/aa.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	benchDir, err := findBenchDir()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(benchDir)
	if err != nil {
		fatal(err)
	}
	for _, name := range spec.workloadNames() {
		if workloads[name] == nil {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which this program does not have", name))
		}
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *quick {
		*seconds = 1
	}
	if err := os.MkdirAll(filepath.Join(benchDir, "out"), 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *aa:
		header(os.Stderr, *seed)
		os.Exit(runAA(spec, benchDir, *seed, *seconds))
	case *workload == "":
		os.Exit(runSuite(spec, *seed, *seconds)) // each child prints the header
	}
	header(os.Stderr, *seed)
	if workloads[*workload] == nil {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(spec.workloadNames(), ", ")))
	}
	res, _ := runOne(newRunConfig(spec, *workload, *seed, *seconds, *trace != 0, fullSizes, benchDir), os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
