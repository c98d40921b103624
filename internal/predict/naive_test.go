package predict_test

import (
	"testing"
	"time"

	"repro/internal/check"
	. "repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// naivePredictor adapts the reference estimators of internal/check (linear
// scans, their own day walk — no index, none of this package's code) to the
// Predictor interface.
type naivePredictor struct {
	name    string
	tr      *trace.Trace
	predict func(tr *trace.Trace, m trace.MachineID, w sim.Window) (count, survival float64)
}

func (n *naivePredictor) Name() string          { return n.name }
func (n *naivePredictor) Train(tr *trace.Trace) { n.tr = tr }
func (n *naivePredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _ := n.predict(n.tr, m, w)
	return count
}
func (n *naivePredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival := n.predict(n.tr, m, w)
	return survival
}

func naivePredictors() []Predictor {
	return []Predictor{
		&naivePredictor{name: "history-window", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveHistoryWindow(tr, m, w, 0, 0)
		}},
		&naivePredictor{name: "history-window(trimmed)", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveHistoryWindow(tr, m, w, 0.1, 0)
		}},
		&naivePredictor{name: "ewma-daily", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveEWMADaily(tr, m, w, 0)
		}},
	}
}

// TestIndexHistoryScoresIdentical: predictor scores through the indexed
// store, hourly rows and memos must be bit-identical to the naive
// reference's, for both the default hour-aligned config and deliberately
// misaligned ones that scan inside an hour.
func TestIndexHistoryScoresIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := TestbedTrace(t)
	// Four machines: the reference scans every event once per history count.
	configs := []EvalConfig{
		{TrainDays: 28, Window: 3 * time.Hour, MaxMachines: 4},
		{TrainDays: 28, Window: 3 * time.Hour, Stride: 90 * time.Minute, MaxMachines: 4},
		{TrainDays: 21, Window: 100 * time.Minute, MaxMachines: 4},
	}
	for _, cfg := range configs {
		fast, err := Evaluate(tr, []Predictor{&HistoryWindow{}, &HistoryWindow{Trim: 0.1}, &EWMADaily{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Evaluate(tr, naivePredictors(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fast.Scores {
			if s := slow.Scores[i]; f != s {
				t.Errorf("config %+v: indexed scores %+v, reference scores %+v", cfg, f, s)
			}
		}
	}
}

// TestIndexHistoryPredictionsIdentical compares raw predictions, not just
// aggregate scores, across aligned and misaligned windows.
func TestIndexHistoryPredictionsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := TestbedTrace(t)
	cut := tr.Span.End - 14*24*time.Hour
	hist := tr.Before(cut)

	fast := []Predictor{&HistoryWindow{}, &HistoryWindow{Trim: 0.1}, &EWMADaily{}}
	slow := naivePredictors()
	for i := range fast {
		fast[i].Train(hist)
		slow[i].Train(hist)
	}
	lastDay := &LastDay{}
	lastDay.Train(hist)

	windows := []sim.Window{
		{Start: cut, End: cut + 3*time.Hour},                                  // hour-aligned
		{Start: cut + 30*time.Minute, End: cut + 2*time.Hour},                 // misaligned start
		{Start: cut + 5*time.Hour, End: cut + 5*time.Hour + 100*time.Minute},  // misaligned end
		{Start: cut + sim.Day, End: cut + sim.Day + 24*time.Hour},             // day-long
		{Start: cut + 7*time.Hour + time.Nanosecond, End: cut + 10*time.Hour}, // off by a tick
	}
	for m := 0; m < tr.Machines; m++ {
		id := trace.MachineID(m)
		for _, w := range windows {
			for i, f := range fast {
				if pf, ps := f.PredictCount(id, w), slow[i].PredictCount(id, w); pf != ps {
					t.Fatalf("%s machine %d window %v: indexed %v, reference %v", f.Name(), m, w, pf, ps)
				}
				if sf, ss := f.PredictSurvival(id, w), slow[i].PredictSurvival(id, w); sf != ss {
					t.Fatalf("%s machine %d window %v survival: indexed %v, reference %v", f.Name(), m, w, sf, ss)
				}
			}
			prev := sim.Window{Start: w.Start - sim.Day, End: w.End - sim.Day}
			if got, want := lastDay.PredictCount(id, w), float64(check.LinearOccurrencesInWindow(hist, id, prev)); got != want {
				t.Fatalf("last-day machine %d window %v: indexed %v, linear %v", m, w, got, want)
			}
		}
	}
}

// TestPastWindowMemo holds the memoized same-window predictors to the naive
// reference wherever a window falls: inside the trained span, straddling
// its end, after a mid-day cut on the cut's own day, on the first day after
// and weeks after (where a shape answered once is answered from the memo),
// misaligned or across midnight, for absent machines, and with the fields
// the answer reads changed from day to day — EWMADaily's Alpha also between
// a count and a survival. Each predictor is retrained on a longer prefix and
// must then serve nothing it memoized from the shorter one.
func TestPastWindowMemo(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 40
	cfg.Seed = 2006
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hws := []*HistoryWindow{{}, {Trim: 0.1}, {MinHistoryDays: 10}, {}}
	params := []struct {
		trim    float64
		minDays int
	}{{0, 0}, {0, 10}, {0.25, 3}}
	ewma := &EWMADaily{}
	alphas := []float64{0, 0.5, 0.9}
	machines := []trace.MachineID{0, 1, 2, 3, -1}
	shapes := []sim.Window{
		{Start: 9 * time.Hour, End: 12 * time.Hour},
		{Start: 9 * time.Hour, End: 10 * time.Hour},
		{Start: 90 * time.Minute, End: 3*time.Hour + 7*time.Minute},
		{Start: 23*time.Hour + 30*time.Minute, End: sim.Day + time.Hour},
	}
	for _, cut := range []sim.Time{17 * sim.Day, 17*sim.Day + 5*time.Hour, 24 * sim.Day} {
		hist := tr.Before(cut)
		for _, h := range hws {
			h.Train(hist)
		}
		ewma.Train(hist)
		if PastMemoLen(hws[0]) != 0 || PastMemoLen(ewma) != 0 {
			t.Fatalf("cut %v: Train left the memo holding answers", cut)
		}
		// Day -3 is inside the span; day 0 is the cut's own day, the first
		// after it when the cut is at midnight.
		var windows []sim.Window
		cutDay := sim.Time(tr.Calendar.DayIndex(cut)) * sim.Day
		for _, day := range []sim.Time{-3, 0, 1, 2, 3, 4, 5, 6, 7, 13, 14, 21, 30} {
			for _, s := range shapes {
				windows = append(windows, sim.Window{Start: cutDay + day*sim.Day + s.Start, End: cutDay + day*sim.Day + s.End})
			}
		}
		windows = append(windows, sim.Window{Start: cut - time.Hour, End: cut + 2*time.Hour}) // straddling
		for i, w := range windows {
			phase := i / len(shapes)
			p := params[phase%len(params)]
			hws[3].Trim, hws[3].MinHistoryDays = p.trim, p.minDays
			for _, m := range machines {
				for _, h := range hws {
					wantCount, wantSurv := check.NaiveHistoryWindow(hist, m, w, h.Trim, h.MinHistoryDays)
					if c, s := h.PredictCount(m, w), h.PredictSurvival(m, w); c != wantCount || s != wantSurv {
						t.Fatalf("cut %v %s(min %d) machine %d window %v: (%v, %v), reference (%v, %v)",
							cut, h.Name(), h.MinHistoryDays, m, w, c, s, wantCount, wantSurv)
					}
				}
				countAlpha, survAlpha := alphas[phase%len(alphas)], alphas[(phase+1)%len(alphas)]
				wantCount, _ := check.NaiveEWMADaily(hist, m, w, countAlpha)
				_, wantSurv := check.NaiveEWMADaily(hist, m, w, survAlpha)
				ewma.Alpha = countAlpha
				c := ewma.PredictCount(m, w)
				ewma.Alpha = survAlpha
				if s := ewma.PredictSurvival(m, w); c != wantCount || s != wantSurv {
					t.Fatalf("cut %v ewma machine %d window %v: count %v (alpha %v: %v), survival %v (alpha %v: %v)",
						cut, m, w, c, countAlpha, wantCount, s, survAlpha, wantSurv)
				}
			}
		}
		if PastMemoLen(hws[0]) == 0 || PastMemoLen(ewma) == 0 {
			t.Fatalf("cut %v: windows past the span filled no memo", cut)
		}
	}

	// A window of no length is not a past window. Over an hour's span at
	// noon, one reaching back two days from 11:00 finds no history on the
	// first day after the span and one window of it the day after.
	noon := trace.New(sim.Window{Start: 12 * time.Hour, End: 13 * time.Hour}, tr.Calendar, 1)
	ewma = &EWMADaily{}
	ewma.Train(noon)
	var answers []float64
	for _, day := range []sim.Time{1, 2} {
		w := sim.Window{Start: day*sim.Day + 11*time.Hour, End: (day-2)*sim.Day + 11*time.Hour}
		fresh := &EWMADaily{}
		fresh.Train(noon)
		got, want := ewma.PredictSurvival(0, w), fresh.PredictSurvival(0, w)
		if got != want {
			t.Fatalf("window %v: survival %v, fresh instance %v", w, got, want)
		}
		answers = append(answers, want)
	}
	if answers[0] == answers[1] {
		t.Fatalf("the no-length fixture answers %v on both days; it no longer tells them apart", answers[0])
	}

	// The fields the answer reads, changed between predictions of one shape
	// without a Train: every answer is a fresh instance's, never one the
	// memo kept under the fields before.
	hist := tr.Before(17 * sim.Day)
	h := &HistoryWindow{}
	h.Train(hist)
	ewma = &EWMADaily{}
	ewma.Train(hist)
	seen := map[[4]float64]bool{}
	for _, p := range []struct {
		trim    float64
		minDays int
		alpha   float64
	}{{0, 0, 0}, {0.25, 0, 0.9}, {0.25, 1000, 0.5}, {0, 0, 0}} {
		h.Trim, h.MinHistoryDays, ewma.Alpha = p.trim, p.minDays, p.alpha
		freshH := &HistoryWindow{Trim: p.trim, MinHistoryDays: p.minDays}
		freshH.Train(hist)
		freshE := &EWMADaily{Alpha: p.alpha}
		freshE.Train(hist)
		for _, day := range []sim.Time{20, 27} {
			w := sim.Window{Start: day*sim.Day + 9*time.Hour, End: day*sim.Day + 15*time.Hour}
			got := [4]float64{h.PredictCount(0, w), h.PredictSurvival(0, w), ewma.PredictCount(0, w), ewma.PredictSurvival(0, w)}
			want := [4]float64{freshH.PredictCount(0, w), freshH.PredictSurvival(0, w), freshE.PredictCount(0, w), freshE.PredictSurvival(0, w)}
			if got != want {
				t.Fatalf("trim %v, min days %d, alpha %v, window %v: answers %v, a fresh instance's %v", p.trim, p.minDays, p.alpha, w, got, want)
			}
			seen[want] = true
		}
	}
	if len(seen) < 3 {
		t.Fatalf("the fields' three settings answer %d ways; the fixture no longer tells them apart", len(seen))
	}

	// One machine asked more shapes than its list holds, each on every day
	// of a week: the list stays at its cap, and every answer is the
	// reference's, the recycled slot's included.
	h = &HistoryWindow{}
	h.Train(hist)
	for i := 0; i < 2*MaxMachineMemo; i++ {
		for day := sim.Time(20); day < 27; day++ {
			w := sim.Window{Start: day*sim.Day + sim.Time(i)*7*time.Minute, End: day*sim.Day + sim.Time(i)*7*time.Minute + 2*time.Hour}
			wantCount, wantSurv := check.NaiveHistoryWindow(hist, 0, w, 0, 0)
			if c, s := h.PredictCount(0, w), h.PredictSurvival(0, w); c != wantCount || s != wantSurv {
				t.Fatalf("shape %d window %v: (%v, %v), reference (%v, %v)", i, w, c, s, wantCount, wantSurv)
			}
			if n := PastMemoLen(h); n > MaxMachineMemo {
				t.Fatalf("after shape %d one machine's list holds %d answers, cap %d", i, n, MaxMachineMemo)
			}
		}
	}
	if n := PastMemoLen(h); n != MaxMachineMemo {
		t.Fatalf("after %d shapes one machine's list holds %d answers, want the cap %d", 2*MaxMachineMemo, n, MaxMachineMemo)
	}

	// A fleet asked its lists full never holds more than the memo's cap.
	fleet := trace.New(hist.Span, hist.Calendar, 2*MaxPastMemo/MaxMachineMemo)
	h = &HistoryWindow{}
	h.Train(fleet)
	for m := range fleet.Machines {
		for i := 0; i < MaxMachineMemo; i++ {
			start := 20*sim.Day + sim.Time(i)*time.Minute
			h.PredictCount(trace.MachineID(m), sim.Window{Start: start, End: start + time.Hour})
			if n := PastMemoLen(h); n > MaxPastMemo {
				t.Fatalf("machine %d shape %d: the memo holds %d answers, cap %d", m, i, n, MaxPastMemo)
			}
		}
	}
}
