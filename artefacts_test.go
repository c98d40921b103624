package fgcs

// The paper's artefacts as golden tests. Each row regenerates one table or
// figure of the paper's evaluation (or one extension experiment) at its
// fixed seed and size, through the same formatter the cmd/ tool prints,
// and compares the text byte for byte with testdata/artefacts/<name>.txt.
// A drift in any seeded RNG stream, float summation order or formatter
// fails here. After a deliberate change, rewrite the goldens with
//
//	go test -run TestArtefacts -update-artefacts .
//
// and say in the change why they moved. BenchmarkArtefacts times the same
// rows, one sub-benchmark each. Two rows also judge what they print: the
// forecast replay fails on a missed gate, and TestAblationDirections holds
// each §5 ablation to the direction its golden shows.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/availability"
	"repro/internal/contention"
	"repro/internal/gsched"
	"repro/internal/loadgen"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simos"
	"repro/internal/testbed"
	"repro/internal/trace"
)

var updateArtefacts = flag.Bool("update-artefacts", false, "rewrite testdata/artefacts/*.txt from this build's output")

// artefactContention is the reduced harness of the contention figures:
// a 150 s measurement window and two host-group combinations per point.
func artefactContention() contention.Options {
	opt := contention.DefaultOptions()
	opt.Measure = 150 * time.Second
	opt.Combos = 2
	return opt
}

// labTrace is the default 20-machine, 92-day testbed; mixedTrace is the
// heterogeneous 10 × 70 testbed (machine-rate spread 0.8) of the
// scheduling experiments. Each is simulated once per run.
var (
	labTrace   = sync.OnceValues(func() (*trace.Trace, error) { return testbed.Run(testbed.DefaultConfig()) })
	mixedTrace = sync.OnceValues(func() (*trace.Trace, error) {
		cfg := testbed.DefaultConfig()
		cfg.Machines = 10
		cfg.Days = 70
		cfg.Workload.MachineRateSpread = 0.8
		return testbed.Run(cfg)
	})
)

// artefactJobs is the guest-job stream of the scheduling experiments.
func artefactJobs() gsched.Config {
	cfg := gsched.DefaultConfig()
	cfg.Jobs = 300
	return cfg
}

// trimmedHistoryWindow is the paper's predictor with a 10% trimmed mean.
func trimmedHistoryWindow() predict.Predictor { return &predict.HistoryWindow{Trim: 0.1} }

type artefact struct {
	name string
	// input is the shared trace the artefact is computed from; nil for the
	// contention experiments, which simulate their own machine.
	input func() (*trace.Trace, error)
	gen   func(tr *trace.Trace) (string, error)
}

var artefacts = []artefact{
	{name: "table1", gen: func(*trace.Trace) (string, error) { return contention.Table1(), nil }},
	{name: "fig1a", gen: func(*trace.Trace) (string, error) {
		res, err := contention.RunFigure1(artefactContention(), 0)
		return format(res, err)
	}},
	{name: "fig1b", gen: func(*trace.Trace) (string, error) {
		res, err := contention.RunFigure1(artefactContention(), availability.LowestNice)
		return format(res, err)
	}},
	{name: "fig2", gen: func(*trace.Trace) (string, error) {
		res, err := contention.RunFigure2(artefactContention())
		return format(res, err)
	}},
	{name: "fig3", gen: func(*trace.Trace) (string, error) {
		res, err := contention.RunFigure3(artefactContention())
		return format(res, err)
	}},
	{name: "fig4", gen: func(*trace.Trace) (string, error) {
		opt := artefactContention()
		opt.Measure = 120 * time.Second
		res, err := contention.RunFigure4(opt)
		return format(res, err)
	}},
	{name: "table2", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		return tr.MakeTable2().Format(), nil
	}},
	{name: "fig6", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		return trace.FormatFigure6(tr.IntervalECDFs()), nil
	}},
	{name: "fig7", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		return trace.FormatFigure7(tr.HourlyOccurrences(sim.Weekday), tr.HourlyOccurrences(sim.Weekend)), nil
	}},
	{name: "e10-prediction", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		ev, err := predict.Evaluate(tr, predict.DefaultPredictors(), predict.EvalConfig{TrainDays: 28, Window: 3 * time.Hour})
		return format(ev, err)
	}},
	{name: "e11-proactive", input: mixedTrace, gen: func(tr *trace.Trace) (string, error) {
		cfg := artefactJobs()
		results, err := gsched.Compare(predict.NewTraceHistory(tr), gsched.DefaultPolicies(tr, cfg, 1), cfg)
		return gsched.FormatResults(results), err
	}},
	{name: "e12-curve", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		points, err := predict.LearningCurve(tr, trimmedHistoryWindow, []int{7, 28, 42},
			predict.EvalConfig{Window: 3 * time.Hour, MaxMachines: 10})
		return predict.FormatLearningCurve(points), err
	}},
	{name: "e13-migration", input: mixedTrace, gen: func(tr *trace.Trace) (string, error) {
		cfg := artefactJobs()
		pol, truth := gsched.TrainedPredictive(tr, cfg), predict.NewTraceHistory(tr)
		plain, err := gsched.Simulate(truth, pol, cfg)
		if err != nil {
			return "", err
		}
		mig, err := gsched.SimulateMigrating(truth, pol, pol, cfg, gsched.DefaultMigrationConfig())
		return gsched.FormatResults([]gsched.Result{plain, mig}), err
	}},
	{name: "e14-calibration", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		bins, err := predict.Calibration(tr, trimmedHistoryWindow(),
			predict.EvalConfig{TrainDays: 28, Window: 3 * time.Hour}, 10)
		return predict.FormatCalibration(bins), err
	}},
	{name: "e15-windows", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		scores, err := predict.WindowSensitivity(tr, trimmedHistoryWindow,
			[]time.Duration{time.Hour, 3 * time.Hour, 6 * time.Hour, 12 * time.Hour},
			predict.EvalConfig{TrainDays: 28, MaxMachines: 10})
		return predict.FormatWindowSensitivity(scores), err
	}},
	{name: "e16-periodicity", input: labTrace, gen: func(tr *trace.Trace) (string, error) {
		return tr.FormatPeriodicity(), nil
	}},
	{name: "e23-forecast-replay", gen: func(*trace.Trace) (string, error) {
		res, err := loadgen.RunForecast(loadgen.ForecastConfig{})
		if err == nil && len(res.Violations) > 0 {
			err = fmt.Errorf("replay missed its gates: %s", strings.Join(res.Violations, "; "))
		}
		return format(res, err)
	}},
	{name: "ablations", gen: func(*trace.Trace) (string, error) { return format(ablations()) }},
}

// format is the text of a result whose computation may have failed.
func format(res interface{ Format() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

// render computes one artefact, simulating its input trace if this run has
// not yet.
func (a artefact) render() (string, error) {
	var tr *trace.Trace
	if a.input != nil {
		var err error
		if tr, err = a.input(); err != nil {
			return "", err
		}
	}
	return a.gen(tr)
}

func TestArtefacts(t *testing.T) {
	for _, a := range artefacts {
		t.Run(a.name, func(t *testing.T) {
			got, err := a.render()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "artefacts", a.name+".txt")
			if *updateArtefacts {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (write it with -update-artefacts)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s (- golden, + now):\n%s", a.name, golden, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the rows that differ between two renderings, by line
// number, each side in full.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(no line)"
	}
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		if wl, gl := line(w, i), line(g, i); wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// ablation is one §5 design decision swept: a knob set to each of a few
// values, everything else at its default, and the metrics read at each.
type ablation struct {
	knob     string
	metrics  []string
	settings []any
	measure  func(setting any) ([]float64, error)
	values   map[string][]float64 // metric → one value a setting, filled by ablations
}

// ablationSet is the seven sweeps, printed one table each.
type ablationSet []ablation

// crossingWith measures the Figure 1 crossing for a guest at nice with the
// knob set (1 when the guest never costs the host 5%), at Fig 4's 120 s
// window: the ablations compare directions, not absolute precision.
func crossingWith(nice int, set func(*contention.Options, any)) func(any) ([]float64, error) {
	return func(setting any) ([]float64, error) {
		opt := artefactContention()
		opt.Measure = 120 * time.Second
		set(&opt, setting)
		res, err := contention.RunFigure1(opt, nice)
		if err != nil {
			return nil, err
		}
		if th, ok := res.Threshold(); ok {
			return []float64{th}, nil
		}
		return []float64{1}, nil
	}
}

// onTestbed measures a machines × days testbed with the knob set.
func onTestbed(machines, days int, set func(*testbed.Config, any), read func(*trace.Trace) []float64) func(any) ([]float64, error) {
	return func(setting any) ([]float64, error) {
		cfg := testbed.DefaultConfig()
		cfg.Machines, cfg.Days = machines, days
		set(&cfg, setting)
		tr, err := testbed.Run(cfg)
		if err != nil {
			return nil, err
		}
		return read(tr), nil
	}
}

// ablations runs the seven §5 sweeps once; the golden row and
// TestAblationDirections read the same values.
var ablations = sync.OnceValues(func() (ablationSet, error) {
	// The trim sweep scores the predictor on one 8 × 70 testbed.
	trimCfg := testbed.DefaultConfig()
	trimCfg.Machines, trimCfg.Days = 8, 70
	trimTrace, err := testbed.Run(trimCfg)
	if err != nil {
		return nil, err
	}
	sweeps := ablationSet{
		// How much of a host burst runs immune to an equal-priority guest.
		{knob: "credit cap", metrics: []string{"Th1"}, settings: []any{125 * time.Millisecond, 500 * time.Millisecond, 1500 * time.Millisecond},
			measure: crossingWith(0, func(o *contention.Options, c any) { o.Machine.Sched.CreditCap = c.(time.Duration) })},
		// The share a fully reniced guest still takes; Th2 needs a longer window.
		{knob: "nice base", metrics: []string{"Th2"}, settings: []any{20.5, 22.0, 26.0},
			measure: crossingWith(availability.LowestNice, func(o *contention.Options, base any) {
				o.Machine.Sched.NiceWeightBase, o.Measure = base.(float64), 240*time.Second
			})},
		// The host reduction of Fig 4's canonical thrashing pair, H2 + apsi.
		{knob: "thrash factor", metrics: []string{"reduction nice 0", "reduction nice 19"}, settings: []any{0.05, 0.1, 0.3},
			measure: func(tf any) ([]float64, error) {
				opt := artefactContention()
				opt.Measure = 120 * time.Second
				opt.Machine = simos.SolarisMachine(opt.Seed).WithDefaults()
				opt.Machine.Sched.ThrashFactor = tf.(float64)
				res, err := contention.RunFigure4(opt)
				if err != nil {
					return nil, err
				}
				g, h := slices.Index(res.Guests, "apsi"), slices.Index(res.Hosts, "H2")
				return []float64{res.Cells[0][g][h].Reduction, res.Cells[1][g][h].Reduction}, nil
			}},
		// Which short spikes count as S3 (1 ns is in effect no window).
		{knob: "transient window", metrics: []string{"events/machine", "<5 min fraction"}, settings: []any{time.Duration(1), time.Minute, 3 * time.Minute},
			measure: onTestbed(6, 21, func(c *testbed.Config, w any) { c.Detector.TransientWindow = w.(time.Duration) },
				func(tr *trace.Trace) []float64 {
					wd, _ := tr.IntervalECDFs()
					return []float64{float64(len(tr.Events)) / 6, wd.At(5.0 / 60)}
				})},
		// The history-window predictor's trimmed mean, the paper's robust statistic.
		{knob: "trim", metrics: []string{"Brier", "MAE"}, settings: []any{0.0, 0.1, 0.25},
			measure: func(trim any) ([]float64, error) {
				ev, err := predict.Evaluate(trimTrace, []predict.Predictor{&predict.HistoryWindow{Trim: trim.(float64)}},
					predict.EvalConfig{TrainDays: 28, Window: 3 * time.Hour})
				if err != nil {
					return nil, err
				}
				return []float64{ev.Scores[0].Brier, ev.Scores[0].MAE}, nil
			}},
		// The monitor's sampling period.
		{knob: "monitor period", metrics: []string{"events/machine"}, settings: []any{5 * time.Second, 15 * time.Second, time.Minute},
			measure: onTestbed(6, 21, func(c *testbed.Config, p any) { c.Monitor.Period = p.(time.Duration) },
				func(tr *trace.Trace) []float64 { return []float64{float64(len(tr.Events)) / 6} })},
		// Quasi-regular busy episodes against Poisson scatter.
		{knob: "placement", metrics: []string{"mass 2-4 h", "mass 5 min-2 h"}, settings: []any{"stratified", "poisson"},
			measure: onTestbed(10, 42, func(c *testbed.Config, p any) { c.Workload.PoissonPlacement = p == "poisson" },
				func(tr *trace.Trace) []float64 {
					wd, _ := tr.IntervalECDFs()
					return []float64{wd.MassBetween(2, 4), wd.MassBetween(1.0/12, 2)}
				})},
	}
	for i := range sweeps {
		a := &sweeps[i]
		a.values = map[string][]float64{}
		for _, s := range a.settings {
			v, err := a.measure(s)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", a.knob, s, err)
			}
			for m, x := range v {
				a.values[a.metrics[m]] = append(a.values[a.metrics[m]], x)
			}
		}
	}
	return sweeps, nil
})

// Format prints each sweep as a table, a row a setting, each value to the
// decimals go test -bench gives a reported metric of its size: four
// significant digits, none past 999.95.
func (sweeps ablationSet) Format() string {
	var b strings.Builder
	b.WriteString("§5 ablations: one knob a sweep, every other setting at its default\n")
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, a := range sweeps {
		fmt.Fprintf(w, "\n%s\t%s\n", a.knob, strings.Join(a.metrics, "\t"))
		for i, s := range a.settings {
			fmt.Fprintf(w, "  %v", s)
			for _, m := range a.metrics {
				v := a.values[m][i]
				prec, lim := 0, 999.95
				for y := math.Abs(v); y != 0 && y < lim && prec < 7; prec++ {
					lim /= 10
				}
				fmt.Fprintf(w, "\t%.*f", prec, v)
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return b.String()
}

// TestAblationDirections holds each §5 ablation to the direction its golden
// shows, on the computed values in sweep order: a rise is strict growth
// from each setting to the next.
func TestAblationDirections(t *testing.T) {
	sweeps, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	monotone := func(sign float64) func([]float64) bool {
		return func(v []float64) bool {
			for i := 1; i < len(v); i++ {
				if sign*(v[i]-v[i-1]) <= 0 {
					return false
				}
			}
			return true
		}
	}
	rises, falls := monotone(1), monotone(-1)
	cases := []struct {
		name, knob, metric, want string
		holds                    func(v []float64) bool
	}{
		{"Th1RisesWithCreditCap", "credit cap", "Th1", "rise", rises},
		{"Th2FallsAsNiceBaseRises", "nice base", "Th2", "fall", falls},
		{"Nice0ReductionFallsWithThrashFactor", "thrash factor", "reduction nice 0", "fall", falls},
		{"Nice19ReductionFallsWithThrashFactor", "thrash factor", "reduction nice 19", "fall", falls},
		{"EventsFallAsTransientWindowWidens", "transient window", "events/machine", "fall", falls},
		{"MAEFallsWithTrim", "trim", "MAE", "fall", falls},
		{"BrierFlatWithTrim", "trim", "Brier", "stay within 1e-3", func(v []float64) bool { return slices.Max(v)-slices.Min(v) <= 1e-3 }},
		{"SlowSamplingAddsEvents", "monitor period", "events/machine", "exceed 15 s by over 10% at 60 s", func(v []float64) bool { return v[2] > 1.1*v[1] }},
		{"FastSamplingAddsNone", "monitor period", "events/machine", "be within 1% at 5 s and 15 s", func(v []float64) bool { return math.Abs(v[0]-v[1]) <= 0.01*v[1] }},
		// Placement sweeps stratified, then Poisson.
		{"StratifiedHasMore2to4hMass", "placement", "mass 2-4 h", "fall from stratified to Poisson", falls},
		{"StratifiedHasLess5minTo2hMass", "placement", "mass 5 min-2 h", "rise from stratified to Poisson", rises},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			i := slices.IndexFunc(sweeps, func(a ablation) bool { return a.knob == c.knob })
			if i < 0 || sweeps[i].values[c.metric] == nil {
				t.Fatalf("no %s sweep of %s", c.metric, c.knob)
			}
			if v := sweeps[i].values[c.metric]; !c.holds(v) {
				t.Errorf("%s over %s %v = %v; want it to %s", c.metric, c.knob, sweeps[i].settings, v, c.want)
			}
		})
	}
}

// artefactSink keeps the benchmarked renders observable.
var artefactSink string

func BenchmarkArtefacts(b *testing.B) {
	for _, a := range artefacts {
		b.Run(a.name, func(b *testing.B) {
			if a.input != nil {
				if _, err := a.input(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := a.render()
				if err != nil {
					b.Fatal(err)
				}
				artefactSink = s
			}
		})
	}
}
