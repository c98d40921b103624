package predict

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// pastMemoLen is how many past-window answers p's memo holds.
func pastMemoLen(p Predictor) int {
	switch p := p.(type) {
	case *HistoryWindow:
		return p.memo.n
	case *EWMADaily:
		return p.memo.n
	}
	return 0
}

// TestPastWindowMemoBookkeeping pins what the same-window predictors'
// past-window memo holds, which internal/check's TestPastWindowMemo — every
// answer held to the naive reference — cannot see: Train empties it,
// windows past the span fill it, a window of no length is not a past
// window, an answer is never served from under changed fields, and the
// memo keeps to its caps for one machine and for a fleet.
func TestPastWindowMemoBookkeeping(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 40
	cfg.Seed = 2006
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, ewma := &HistoryWindow{}, &EWMADaily{}
	for _, cut := range []sim.Time{17 * sim.Day, 24 * sim.Day} {
		trained := NewTraceHistory(tr.Before(cut))
		h.Train(trained)
		ewma.Train(trained)
		if pastMemoLen(h) != 0 || pastMemoLen(ewma) != 0 {
			t.Fatalf("cut %v: Train left the memo holding answers", cut)
		}
		for day := sim.Time(1); day <= 7; day++ {
			w := sim.Window{Start: cut + day*sim.Day + 9*time.Hour, End: cut + day*sim.Day + 12*time.Hour}
			h.PredictCount(0, w)
			ewma.PredictSurvival(0, w)
		}
		if pastMemoLen(h) == 0 || pastMemoLen(ewma) == 0 {
			t.Fatalf("cut %v: windows past the span filled no memo", cut)
		}
	}

	// A window of no length is not a past window. Over an hour's span at
	// noon, one reaching back two days from 11:00 finds no history on the
	// first day after the span and one window of it the day after.
	noon := NewTraceHistory(trace.New(sim.Window{Start: 12 * time.Hour, End: 13 * time.Hour}, tr.Calendar, 1))
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

	// The field the answer reads, changed between predictions of one shape
	// without a Train: every answer is a fresh instance's, never one the
	// memo kept under the field before.
	hist := tr.Before(17 * sim.Day)
	trained := NewTraceHistory(hist)
	h = &HistoryWindow{}
	h.Train(trained)
	seen := map[[2]float64]bool{}
	for _, trim := range []float64{0, 0.25, 0} {
		h.Trim = trim
		fresh := &HistoryWindow{Trim: trim}
		fresh.Train(trained)
		for _, day := range []sim.Time{20, 27} {
			w := sim.Window{Start: day*sim.Day + 9*time.Hour, End: day*sim.Day + 12*time.Hour}
			got := [2]float64{h.PredictCount(0, w), h.PredictSurvival(0, w)}
			want := [2]float64{fresh.PredictCount(0, w), fresh.PredictSurvival(0, w)}
			if got != want {
				t.Fatalf("trim %v, window %v: answers %v, a fresh instance's %v", trim, w, got, want)
			}
			seen[want] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("the field's two settings answer %d ways; the fixture no longer tells them apart", len(seen))
	}

	// One machine asked more shapes than its list holds, each on every day
	// of a week: the list stays at its cap, and every answer is a fresh
	// instance's, the recycled slot's included.
	h = &HistoryWindow{}
	h.Train(trained)
	for i := 0; i < 2*maxMachineMemo; i++ {
		for day := sim.Time(20); day < 27; day++ {
			w := sim.Window{Start: day*sim.Day + sim.Time(i)*7*time.Minute, End: day*sim.Day + sim.Time(i)*7*time.Minute + 2*time.Hour}
			fresh := &HistoryWindow{}
			fresh.Train(trained)
			wantCount, wantSurv := fresh.PredictCount(0, w), fresh.PredictSurvival(0, w)
			if c, s := h.PredictCount(0, w), h.PredictSurvival(0, w); c != wantCount || s != wantSurv {
				t.Fatalf("shape %d window %v: (%v, %v), a fresh instance (%v, %v)", i, w, c, s, wantCount, wantSurv)
			}
			if n := pastMemoLen(h); n > maxMachineMemo {
				t.Fatalf("after shape %d one machine's list holds %d answers, cap %d", i, n, maxMachineMemo)
			}
		}
	}
	if n := pastMemoLen(h); n != maxMachineMemo {
		t.Fatalf("after %d shapes one machine's list holds %d answers, want the cap %d", 2*maxMachineMemo, n, maxMachineMemo)
	}

	// A fleet asked its lists full never holds more than the memo's cap.
	fleet := trace.New(hist.Span, hist.Calendar, 2*maxPastMemo/maxMachineMemo)
	h = &HistoryWindow{}
	h.Train(NewTraceHistory(fleet))
	for m := range fleet.Machines {
		for i := 0; i < maxMachineMemo; i++ {
			start := 20*sim.Day + sim.Time(i)*time.Minute
			h.PredictCount(trace.MachineID(m), sim.Window{Start: start, End: start + time.Hour})
			if n := pastMemoLen(h); n > maxPastMemo {
				t.Fatalf("machine %d shape %d: the memo holds %d answers, cap %d", m, i, n, maxPastMemo)
			}
		}
	}
}
