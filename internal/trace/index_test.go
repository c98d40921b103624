package trace_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/sim"
	. "repro/internal/trace"
)

func TestIndexMatchesLinearQueries(t *testing.T) {
	tr := RandomTrace(11, 800)
	ix := tr.BuildIndex()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		m := MachineID(rng.Intn(tr.Machines))
		start := time.Duration(rng.Int63n(int64(tr.Span.End)))
		w := sim.Window{Start: start, End: start + time.Duration(rng.Int63n(int64(6*time.Hour)))}
		if got, want := ix.CountInWindow(m, w), check.LinearOccurrencesInWindow(tr, m, w); got != want {
			t.Fatalf("CountInWindow(%d, %v) = %d, want %d", m, w, got, want)
		}
		if got, want := ix.AnyOverlap(m, w), check.LinearAnyOverlap(tr, m, w); got != want {
			t.Fatalf("AnyOverlap(%d, %v) = %v, want %v", m, w, got, want)
		}
	}
}

func TestIndexLastEndBefore(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(MkEvent(0, 1*time.Hour, 2*time.Hour, 3))
	tr.Add(MkEvent(0, 5*time.Hour, 6*time.Hour, 3))
	ix := tr.BuildIndex()
	if _, ok := ix.LastEndBefore(0, 90*time.Minute); ok {
		t.Error("no event ends before 1.5h")
	}
	if end, ok := ix.LastEndBefore(0, 3*time.Hour); !ok || end != 2*time.Hour {
		t.Errorf("LastEndBefore(3h) = %v, %v", end, ok)
	}
	if end, ok := ix.LastEndBefore(0, 6*time.Hour); !ok || end != 6*time.Hour {
		t.Errorf("LastEndBefore(6h) = %v, %v; boundary should count", end, ok)
	}
	if _, ok := ix.LastEndBefore(9, time.Hour); ok {
		t.Error("unknown machine should report none")
	}
}

func TestIndexEmptyTrace(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 2)
	ix := tr.BuildIndex()
	w := sim.Window{Start: 0, End: sim.Day}
	if ix.CountInWindow(0, w) != 0 || ix.AnyOverlap(0, w) {
		t.Error("empty index should report nothing")
	}
}
