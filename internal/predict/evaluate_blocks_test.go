package predict

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// blocksFixture is a small fixed-seed testbed trace and the same events as a
// v2 block file.
func blocksFixture(t *testing.T) (*trace.Trace, *trace.BlockFile) {
	t.Helper()
	cfg := testbed.DefaultConfig()
	cfg.Machines = 6
	cfg.Days = 40
	cfg.Seed = 1234
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteBlocks(&buf, &trace.BlockWriterOptions{BlockSize: 64}); err != nil {
		t.Fatal(err)
	}
	bf, err := trace.NewBlockFileBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return tr, bf
}

// TestEvaluateBlocksMatchesEvaluate pins the block-routed evaluation:
// reading training history through the pruned scan and ground truth through
// the file's lazy index must score every predictor identically to the
// in-memory path.
func TestEvaluateBlocksMatchesEvaluate(t *testing.T) {
	tr, bf := blocksFixture(t)
	ecfg := EvalConfig{TrainDays: 21, Window: 3 * time.Hour}

	want, err := Evaluate(tr, DefaultPredictors(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateBlocks(bf, DefaultPredictors(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Scores, got.Scores) {
		t.Errorf("EvaluateBlocks scores differ:\n got %+v\nwant %+v", got.Scores, want.Scores)
	}
}

// serialScores is the oracle for the evaluation's worker pool: it scores
// one predictor at a time in a plain loop on the calling goroutine, and
// asks every answer of a fresh instance trained for it alone, so no memo
// of HistoryWindow or EWMADaily ever hits and each answer is computed from
// scratch.
func serialScores(tr *trace.Trace, cfg EvalConfig) []Score {
	cfg = cfg.withDefaults()
	cut := tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day
	truth := NewTraceHistory(tr)
	var machines []trace.MachineID
	var windows []sim.Window
	var counts []float64
	var fail []bool
	for m := 0; m < tr.Machines; m++ {
		for start := cut; start+cfg.Window <= tr.Span.End; start += cfg.Stride {
			w := sim.Window{Start: start, End: start + cfg.Window}
			machines = append(machines, trace.MachineID(m))
			windows = append(windows, w)
			counts = append(counts, float64(truth.CountInWindow(trace.MachineID(m), w)))
			fail = append(fail, truth.AnyOverlap(trace.MachineID(m), w))
		}
	}
	history := tr.Before(cut)
	fresh := func(j int) Predictor {
		p := DefaultPredictors()[j]
		p.Train(NewTraceHistory(history))
		return p
	}
	var scores []Score
	for j := range DefaultPredictors() {
		predCounts := make([]float64, len(windows))
		failProb := make([]float64, len(windows))
		for i, w := range windows {
			predCounts[i] = fresh(j).PredictCount(machines[i], w)
			failProb[i] = 1 - fresh(j).PredictSurvival(machines[i], w)
		}
		scores = append(scores, Score{
			Name:    DefaultPredictors()[j].Name(),
			MAE:     stats.MAE(predCounts, counts),
			RMSE:    stats.RMSE(predCounts, counts),
			Brier:   stats.Brier(failProb, fail),
			Windows: len(windows),
		})
	}
	return scores
}

// recorder is a predictor that remembers the history it was trained on.
type recorder struct {
	Predictor
	h *TraceHistory
}

func (r *recorder) Train(h *TraceHistory) {
	r.h = h
	r.Predictor.Train(h)
}

// recorded wraps every predictor of DefaultPredictors in a recorder.
func recorded() []Predictor {
	var preds []Predictor
	for _, p := range DefaultPredictors() {
		preds = append(preds, &recorder{Predictor: p})
	}
	return preds
}

// sharedHistory returns the one history every recorder of preds was
// trained on, failing if they were handed more than one.
func sharedHistory(t *testing.T, preds []Predictor) *TraceHistory {
	t.Helper()
	h := preds[0].(*recorder).h
	for _, p := range preds[1:] {
		if p.(*recorder).h != h {
			t.Fatal("the predictors of one call were trained on different histories")
		}
	}
	return h
}

// TestEvaluateMatchesSerialOracle holds the concurrent evaluation to the
// plain loop: with one worker and with four, over the in-memory trace and
// over the block file, Scores come back in predictor order and every
// float is the one the oracle computes, which trains a fresh instance on
// its own history for every answer. Every predictor of a call shares one
// history, and its events are the training prefix's after the call. Run
// under -race (make race) it is also the check that the workers share
// nothing they write.
func TestEvaluateMatchesSerialOracle(t *testing.T) {
	tr, bf := blocksFixture(t)
	ecfg := EvalConfig{TrainDays: 21, Window: 3 * time.Hour}
	want := serialScores(tr, ecfg)
	prefix := tr.Before(tr.Span.Start + sim.Time(ecfg.TrainDays)*sim.Day).Events

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		preds, predsBlocks := recorded(), recorded()
		got, err := Evaluate(tr, preds, ecfg)
		gotBlocks, errBlocks := EvaluateBlocks(bf, predsBlocks, ecfg)
		runtime.GOMAXPROCS(prev)
		if err != nil || errBlocks != nil {
			t.Fatal(err, errBlocks)
		}
		if !reflect.DeepEqual(sharedHistory(t, preds).Trace().Events, prefix) {
			t.Errorf("GOMAXPROCS %d: Evaluate's shared history no longer holds the training prefix's %d events", procs, len(prefix))
		}
		if !reflect.DeepEqual(sharedHistory(t, predsBlocks).Trace().Events, prefix) {
			t.Errorf("GOMAXPROCS %d: EvaluateBlocks' shared history no longer holds the training prefix's %d events", procs, len(prefix))
		}
		if !reflect.DeepEqual(got.Scores, want) {
			t.Errorf("GOMAXPROCS %d: Evaluate scores differ from the serial oracle:\n got %+v\nwant %+v", procs, got.Scores, want)
		}
		if !reflect.DeepEqual(gotBlocks.Scores, want) {
			t.Errorf("GOMAXPROCS %d: EvaluateBlocks scores differ from the serial oracle:\n got %+v\nwant %+v", procs, gotBlocks.Scores, want)
		}
	}
}
