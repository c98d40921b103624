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
// rows, one sub-benchmark each.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/contention"
	"repro/internal/gsched"
	"repro/internal/predict"
	"repro/internal/sim"
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
