package predict

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// EvalConfig controls the train/test replay.
type EvalConfig struct {
	// TrainDays is the history prefix length; the rest of the trace is
	// the test period.
	TrainDays int
	// Window is the prediction-window length (the paper suggests deriving
	// it from the guest job's estimated execution time).
	Window time.Duration
	// Stride advances consecutive test windows (default: Window).
	Stride time.Duration
	// MaxMachines limits evaluation to the first N machines (0 = all);
	// trims runtime for quick runs.
	MaxMachines int
}

// DefaultEvalConfig trains on four weeks and predicts 3-hour windows.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{TrainDays: 28, Window: 3 * time.Hour}
}

func (c EvalConfig) withDefaults() EvalConfig {
	d := DefaultEvalConfig()
	if c.TrainDays == 0 {
		c.TrainDays = d.TrainDays
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Stride == 0 {
		c.Stride = c.Window
	}
	return c
}

// Validate reports configuration errors.
func (c EvalConfig) Validate() error {
	if c.TrainDays <= 0 {
		return fmt.Errorf("predict: train days must be positive, got %d", c.TrainDays)
	}
	if c.Window <= 0 || c.Stride <= 0 {
		return fmt.Errorf("predict: window and stride must be positive")
	}
	return nil
}

// Score is one predictor's evaluation result.
type Score struct {
	Name string
	// MAE and RMSE measure count-prediction error per window.
	MAE  float64
	RMSE float64
	// Brier measures survival-probability quality (lower is better;
	// 0.25 is an uninformed coin flip).
	Brier float64
	// Windows is the number of evaluated (machine, window) pairs.
	Windows int
}

// Evaluation is the full comparison across predictors.
type Evaluation struct {
	Config EvalConfig
	Scores []Score
}

// testSet is the shared test period of an evaluation: every (machine,
// window) sample after the training cut with its ground truth. Every
// evaluation entry point builds its test sets through newTestSet, so config
// validation, the window walk and the truth queries exist once.
type testSet struct {
	cfg      EvalConfig // with defaults applied
	cut      sim.Time   // end of training history, start of the test period
	machines []trace.MachineID
	windows  []sim.Window
	counts   []float64 // events starting in the window
	fail     []bool    // any unavailability overlapping the window
}

// newTestSet validates cfg and enumerates the sliding test windows of the
// first cfg.MaxMachines machines between the end of the cfg.TrainDays
// training prefix and the span end, asking truth for each one's outcome.
// The truth pass runs on par.For, one machine a task: the index is safe to
// share, and each task writes only its machine's run of samples.
func newTestSet(span sim.Window, machines int, truth *trace.Index, cfg EvalConfig) (*testSet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ts := &testSet{cfg: cfg, cut: span.Start + sim.Time(cfg.TrainDays)*sim.Day}
	if ts.cut >= span.End {
		return nil, fmt.Errorf("predict: training period (%d days) consumes the whole trace", cfg.TrainDays)
	}
	if cfg.MaxMachines > 0 && cfg.MaxMachines < machines {
		machines = cfg.MaxMachines
	}
	var windows []sim.Window
	for start := ts.cut; start+cfg.Window <= span.End; start += cfg.Stride {
		windows = append(windows, sim.Window{Start: start, End: start + cfg.Window})
	}
	n := machines * len(windows)
	if n == 0 {
		return nil, fmt.Errorf("predict: no test windows (window %v, span %v)", cfg.Window, span)
	}
	ts.machines = make([]trace.MachineID, n)
	ts.windows = make([]sim.Window, n)
	ts.counts = make([]float64, n)
	ts.fail = make([]bool, n)
	par.For(machines, 0, func(_ *struct{}, m int) error {
		id := trace.MachineID(m)
		for j, w := range windows {
			k := m*len(windows) + j
			ts.machines[k], ts.windows[k] = id, w
			ts.counts[k] = float64(truth.CountInWindow(id, w))
			ts.fail[k] = truth.AnyOverlap(id, w)
		}
		return nil
	})
	return ts, nil
}

// scratch returns the prediction buffer score fills: one per scoring
// goroutine, reused for every predictor that goroutine scores.
func (ts *testSet) scratch() []float64 { return make([]float64, 2*len(ts.windows)) }

// score evaluates one trained predictor over the test set.
func (ts *testSet) score(p Predictor, scratch []float64) Score {
	predCounts, failProb := scratch[:len(ts.windows)], scratch[len(ts.windows):]
	for i, w := range ts.windows {
		predCounts[i] = p.PredictCount(ts.machines[i], w)
		// Brier scores the probability of failure occurring.
		failProb[i] = 1 - p.PredictSurvival(ts.machines[i], w)
	}
	return Score{
		Name:    p.Name(),
		MAE:     stats.MAE(predCounts, ts.counts),
		RMSE:    stats.RMSE(predCounts, ts.counts),
		Brier:   stats.Brier(failProb, ts.fail),
		Windows: len(ts.windows),
	}
}

// evaluate trains every predictor on the one history and scores it over
// ts. The predictors are independent of one another, so they run on
// par.For's workers, each with its own scratch buffer: a predictor is only
// ever touched by the worker that claimed it, history and ts are only read,
// and each score lands in its predictor's slot, so the result does not
// depend on how many workers ran or which finished first.
func (ts *testSet) evaluate(history *TraceHistory, preds []Predictor) *Evaluation {
	ev := &Evaluation{Config: ts.cfg, Scores: make([]Score, len(preds))}
	par.For(len(preds), 0, func(scratch *[]float64, i int) error {
		if *scratch == nil {
			*scratch = ts.scratch()
		}
		preds[i].Train(history)
		ev.Scores[i] = ts.score(preds[i], *scratch)
		return nil
	})
	return ev
}

// Evaluate trains each predictor on the trace prefix and scores it over
// sliding windows of the remaining test period.
func Evaluate(tr *trace.Trace, preds []Predictor, cfg EvalConfig) (*Evaluation, error) {
	ts, err := newTestSet(tr.Span, tr.Machines, tr.BuildIndex(), cfg)
	if err != nil {
		return nil, err
	}
	return ts.evaluate(NewTraceHistory(tr.Before(ts.cut)), preds), nil
}

// EvaluateBlocks is Evaluate over a v2 block file: training history is read
// through a block-pruned scan (blocks entirely past the training cut are
// never decoded) and ground truth is answered by the file's index, which
// decodes only each queried machine's blocks. Scores are identical to
// Evaluate over the decoded trace.
func EvaluateBlocks(bf *trace.BlockFile, preds []Predictor, cfg EvalConfig) (*Evaluation, error) {
	h := bf.Header()
	// The ground-truth queries and the history scan go through one index,
	// so any block both need is inflated only once.
	ix := trace.NewBlockIndex(bf)
	ts, err := newTestSet(h.Span, h.Machines, ix, cfg)
	if err != nil {
		return nil, err
	}
	history := trace.New(sim.Window{Start: h.Span.Start, End: ts.cut}, h.Calendar, h.Machines)
	filter := trace.ScanFilter{HasWindow: true, Window: sim.Window{Start: math.MinInt64, End: ts.cut}}
	if history.Events, err = ix.AppendEvents(nil, filter); err != nil {
		return nil, err
	}
	if err := ix.Err(); err != nil {
		return nil, err
	}
	return ts.evaluate(NewTraceHistory(history), preds), nil
}

// Format renders the comparison table.
func (e *Evaluation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Predictor evaluation — %v windows, trained on %d days (%d samples)\n",
		e.Config.Window, e.Config.TrainDays, e.windows())
	fmt.Fprintf(&b, "%-26s %8s %8s %8s\n", "predictor", "MAE", "RMSE", "Brier")
	for _, s := range e.Scores {
		fmt.Fprintf(&b, "%-26s %8.3f %8.3f %8.3f\n", s.Name, s.MAE, s.RMSE, s.Brier)
	}
	return b.String()
}

func (e *Evaluation) windows() int {
	if len(e.Scores) == 0 {
		return 0
	}
	return e.Scores[0].Windows
}

// ScoreByName finds a predictor's score in the evaluation.
func (e *Evaluation) ScoreByName(name string) (Score, bool) {
	for _, s := range e.Scores {
		if s.Name == name {
			return s, true
		}
	}
	return Score{}, false
}
