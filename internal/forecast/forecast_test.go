package forecast

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/availability"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Dropped returns how many event starts the capacity bound has evicted,
// summed over machines.
func (o *Online) Dropped() int64 {
	var n int64
	for _, ms := range o.ms {
		if ms != nil {
			n += ms.dropped
		}
	}
	return n
}

// PredictCount is the history-window count forecast over the ring, with the
// forecaster's own Trim: what the offline
// predict.HistoryWindow trained on the same prefix predicts.
func (o *Online) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _, _ := o.hw.Estimate(o, m, w)
	return count
}

// observeStream feeds machine m's raw observation stream through the
// pipeline the testbed recorder runs, a detector and a trace.Builder, into
// on's event ingest: a transition into an unavailable state is an event
// start (possibly backdated), a closed event an end, and every observation
// moves the clock.
func observeStream(cfg testbed.Config, on *Online, m trace.MachineID) error {
	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		return err
	}
	b := trace.NewBuilder(m)
	return testbed.ObservationStream(cfg, m, func(obs availability.Observation) error {
		if _, tr := det.Observe(obs); tr != nil {
			if e := b.OnTransition(*tr); e != nil {
				on.ObserveEnd(m, e.End)
			}
			if tr.To.Unavailable() {
				on.ObserveStart(m, tr.At)
			}
		}
		on.AdvanceTo(obs.At)
		return nil
	})
}

// replayTestbed runs a small testbed, returning both the recorded trace
// and an Online forecaster fed the same machines' raw observation streams
// through observeStream.
func replayTestbed(t *testing.T, cfg testbed.Config) (*trace.Trace, *Online) {
	t.Helper()
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatalf("testbed run: %v", err)
	}
	on, err := New(Config{
		Calendar: tr.Calendar,
		Machines: cfg.Machines,
		Start:    tr.Span.Start,
	})
	if err != nil {
		t.Fatalf("new online: %v", err)
	}
	for id := 0; id < cfg.Machines; id++ {
		if err := observeStream(cfg, on, trace.MachineID(id)); err != nil {
			t.Fatalf("observation stream machine %d: %v", id, err)
		}
	}
	on.AdvanceTo(tr.Span.End)
	return tr, on
}

func smallConfig() testbed.Config {
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 6
	cfg.Seed = 41
	return cfg
}

// TestOnlineBitEqualToOffline is the package's core claim: after ingesting
// a machine's raw observation stream, the online forecasts are bit-equal
// to offline predictors batch-trained on the recorded trace of the same
// stream — aligned and misaligned windows, present and absent machines.
func TestOnlineBitEqualToOffline(t *testing.T) {
	cfg := smallConfig()
	tr, on := replayTestbed(t, cfg)
	if on.Events() == 0 {
		t.Fatal("testbed produced no events; the differential is vacuous")
	}

	trained := predict.NewTraceHistory(tr)
	hw := &predict.HistoryWindow{}
	hw.Train(trained)
	hwTrim := &predict.HistoryWindow{Trim: 0.1}
	hwTrim.Train(trained)
	ewma := &predict.EWMADaily{}
	ewma.Train(trained)

	windows := []sim.Window{}
	for day := 1; day <= cfg.Days; day++ { // includes one day past the span
		base := sim.Time(day) * sim.Day
		windows = append(windows,
			sim.Window{Start: base + 9*time.Hour, End: base + 10*time.Hour},              // aligned 1h
			sim.Window{Start: base + 13*time.Hour, End: base + 16*time.Hour},             // aligned 3h
			sim.Window{Start: base + 90*time.Minute, End: base + 3*time.Hour},            // misaligned 90m
			sim.Window{Start: base + 23*time.Hour + 30*time.Minute, End: base + sim.Day}, // tail 30m
		)
	}
	machines := []trace.MachineID{0, 1, 2, trace.MachineID(cfg.Machines), -1}

	for _, m := range machines {
		for _, w := range windows {
			if got, want := on.PredictCount(m, w), hw.PredictCount(m, w); got != want {
				t.Errorf("PredictCount(m=%d, %v) online %v, offline %v", m, w, got, want)
			}
			if got, want := on.PredictSurvival(m, w), hw.PredictSurvival(m, w); got != want {
				t.Errorf("PredictSurvival(m=%d, %v) online %v, offline %v", m, w, got, want)
			}
			// EWMADaily's estimator over the ring against the same
			// estimator trained on the recorded trace.
			count, survival := ewma.Estimate(on, m, w)
			if want := ewma.PredictCount(m, w); count != want {
				t.Errorf("EWMA count(m=%d, %v) online %v, offline %v", m, w, count, want)
			}
			if want := ewma.PredictSurvival(m, w); survival != want {
				t.Errorf("EWMA survival(m=%d, %v) online %v, offline %v", m, w, survival, want)
			}
		}
	}

	// The trimmed variant shares the history counts; check it on its own
	// forecaster so Config.Trim is exercised end to end.
	onTrim, err := New(Config{Calendar: tr.Calendar, Machines: cfg.Machines, Trim: 0.1, Start: tr.Span.Start})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		onTrim.ObserveEvent(e)
	}
	onTrim.AdvanceTo(tr.Span.End)
	for _, m := range machines {
		for _, w := range windows {
			if got, want := onTrim.PredictCount(m, w), hwTrim.PredictCount(m, w); got != want {
				t.Errorf("trimmed PredictCount(m=%d, %v) online %v, offline %v", m, w, got, want)
			}
			if got, want := onTrim.PredictSurvival(m, w), hwTrim.PredictSurvival(m, w); got != want {
				t.Errorf("trimmed PredictSurvival(m=%d, %v) online %v, offline %v", m, w, got, want)
			}
		}
	}
}

// TestEventIngestMatchesObservationIngest pins that feeding the recorded
// trace's closed events produces the same forecasts as feeding the raw
// observation stream (the open-event tail is the one permitted difference,
// and this seed's span ends with every machine available).
func TestEventIngestMatchesObservationIngest(t *testing.T) {
	cfg := smallConfig()
	tr, onObs := replayTestbed(t, cfg)

	onEv, err := New(Config{Calendar: tr.Calendar, Machines: cfg.Machines, Start: tr.Span.Start})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		onEv.ObserveEvent(e)
	}
	onEv.AdvanceTo(tr.Span.End)

	if onObs.Events() != onEv.Events() {
		t.Fatalf("observation ingest saw %d events, event ingest %d", onObs.Events(), onEv.Events())
	}
	for id := 0; id < cfg.Machines; id++ {
		m := trace.MachineID(id)
		for day := 1; day < cfg.Days; day++ {
			w := sim.Window{Start: sim.Time(day)*sim.Day + 8*time.Hour, End: sim.Time(day)*sim.Day + 11*time.Hour}
			if a, b := onObs.PredictSurvival(m, w), onEv.PredictSurvival(m, w); a != b {
				t.Errorf("machine %d %v: observation-fed %v, event-fed %v", id, w, a, b)
			}
		}
	}
}

// TestRingEviction bounds the per-machine history: the ring keeps only the
// newest EventCapacity starts and reports what it dropped.
func TestRingEviction(t *testing.T) {
	on, err := New(Config{Machines: 1, EventCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		on.ObserveStart(0, sim.Time(i)*time.Hour)
		on.ObserveEnd(0, sim.Time(i)*time.Hour+time.Minute)
	}
	if got := on.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	ms := on.ms[0]
	if ms.n != 4 {
		t.Fatalf("retained %d starts, want 4", ms.n)
	}
	// Only the newest four starts (hours 6..9) remain countable.
	if got := ms.countStarts(sim.Window{Start: 0, End: 10 * time.Hour}); got != 4 {
		t.Fatalf("countStarts over everything = %d, want 4", got)
	}
	if got := ms.countStarts(sim.Window{Start: 0, End: 6 * time.Hour}); got != 0 {
		t.Fatalf("evicted starts still counted: %d", got)
	}
}

// TestNilSlotAnswersAsEmptyRing: a machine's history is built by its first
// event and dropped by Forget. Machine 0 never had one, machine 1 had
// three (one evicted) before Forget, machine 2 keeps its three; 0 and 1
// must answer every query alike and as a fresh forecaster does, queries and
// event ends must build no history, and Dropped must count machine 2's
// eviction alone.
func TestNilSlotAnswersAsEmptyRing(t *testing.T) {
	on, err := New(Config{Machines: 3, EventCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []trace.MachineID{1, 2} {
		for d := sim.Time(0); d < 3; d++ {
			on.ObserveStart(m, d*sim.Day+9*time.Hour)
			on.ObserveEnd(m, d*sim.Day+10*time.Hour)
		}
	}
	on.ObserveEnd(0, 11*time.Hour)
	on.AdvanceTo(8 * sim.Day)
	on.Forget(1)
	fresh, err := New(Config{Machines: 1, EventCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh.AdvanceTo(8 * sim.Day)
	for _, w := range []sim.Window{
		{Start: 8*sim.Day + 9*time.Hour, End: 8*sim.Day + 10*time.Hour},
		{Start: 8 * sim.Day, End: 9 * sim.Day},
		{Start: 0, End: 8 * sim.Day}, // the span itself: counts, not forecasts
	} {
		var ewma predict.EWMADaily
		c, s := ewma.Estimate(fresh, 0, w)
		want := fmt.Sprint(fresh.CountInWindow(0, w), fresh.ForecastWindow(0, w), fresh.PredictCount(0, w), c, s)
		for _, m := range []trace.MachineID{0, 1} {
			c, s := ewma.Estimate(on, m, w)
			if got := fmt.Sprint(on.CountInWindow(m, w), on.ForecastWindow(m, w), on.PredictCount(m, w), c, s); got != want {
				t.Errorf("machine %d over %v: %s, want the fresh machine's %s", m, w, got, want)
			}
		}
	}
	if on.ms[0] != nil || on.ms[1] != nil {
		t.Errorf("history slots after queries: never-built %p, forgotten %p; want both nil", on.ms[0], on.ms[1])
	}
	if got := on.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want machine 2's one eviction", got)
	}
}

// TestBackdatedStartsStaySorted feeds starts slightly out of order (the
// transient-window backdating a detector applies to S3 transitions) and
// checks the ring stays sorted so binary-searched counts stay exact.
func TestBackdatedStartsStaySorted(t *testing.T) {
	on, err := New(Config{Machines: 1, EventCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	times := []sim.Time{
		1 * time.Hour,
		2 * time.Hour,
		2*time.Hour - 50*time.Second, // backdated below the previous start
		3 * time.Hour,
	}
	for _, at := range times {
		on.ObserveStart(0, at)
	}
	ms := on.ms[0]
	for i := 1; i < ms.n; i++ {
		if ms.at(i-1) > ms.at(i) {
			t.Fatalf("ring unsorted at %d: %v > %v", i, ms.at(i-1), ms.at(i))
		}
	}
	if got := ms.countStarts(sim.Window{Start: time.Hour + 30*time.Minute, End: 2*time.Hour + time.Minute}); got != 2 {
		t.Fatalf("count around the backdated start = %d, want 2", got)
	}
}

// TestServiceDerivesEvents drives the control-plane wrapper with digest
// state strings and checks the derived event stream and forecasts.
func TestServiceDerivesEvents(t *testing.T) {
	svc, err := NewService(ServiceConfig{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}

	base := int64(1_000_000)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(svc.ObserveState("node-a", "S1(full)", base))
	must(svc.ObserveState("node-a", "S3(UEC-CPU)", base+60_000))
	must(svc.ObserveState("node-a", "S1(full)", base+120_000))
	must(svc.ObserveState("node-b", "S2(reduced)", base))
	must(svc.ObserveState("node-b", "garbage", base+60_000)) // ignored
	must(svc.ObserveState("", "S3(UEC-CPU)", base+60_000))   // ignored

	if got, names := svc.Nodes(); got != 2 || names != 2 {
		t.Fatalf("Nodes = %d machines, %d names, want 2 and 2", got, names)
	}
	if got := svc.on.Events(); got != 1 {
		t.Fatalf("Events = %d, want 1 (node-a's S3 episode)", got)
	}

	// A repeated down-state report must not open a second event.
	must(svc.ObserveState("node-a", "S4(UEC-mem)", base+180_000))
	must(svc.ObserveState("node-a", "S4(UEC-mem)", base+200_000))
	if got := svc.on.Events(); got != 2 {
		t.Fatalf("Events after S4 episode = %d, want 2", got)
	}

	f, known := svc.Forecast("node-a", time.Hour, base+300_000)
	if !known {
		t.Fatal("node-a should be known")
	}
	if f.Survival < 0 || f.Survival > 1 || math.IsNaN(f.Survival) {
		t.Fatalf("survival out of range: %v", f.Survival)
	}
	if _, known := svc.Forecast("node-z", time.Hour, base+300_000); known {
		t.Fatal("node-z should be unknown")
	}
}

// TestOnlineAdvanceAdmitsHistory pins how forecasts sharpen as the
// observation high-water moves: only fully observed history windows
// contribute, so the same query goes prior → one informed day → five.
func TestOnlineAdvanceAdmitsHistory(t *testing.T) {
	on, err := New(Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Window{Start: 7*sim.Day + 9*time.Hour, End: 7*sim.Day + 10*time.Hour}
	if got := on.PredictSurvival(0, w); got != 0.5 {
		t.Fatalf("fresh forecaster: survival %v, want the 0.5 prior", got)
	}
	// An event starts at 09:30 of day 0; until its end is observed, the
	// 09:00–10:00 history window is not fully observed and contributes
	// nothing.
	on.ObserveStart(0, 9*time.Hour+30*time.Minute)
	if got := on.PredictSurvival(0, w); got != 0.5 {
		t.Fatalf("partially observed history window: survival %v, want 0.5", got)
	}
	// The end at 10:00 completes day 0's window: one history day, one
	// event — Laplace (0+1)/(1+2).
	on.ObserveEnd(0, 10*time.Hour)
	if got, want := on.PredictSurvival(0, w), 1.0/3.0; got != want {
		t.Fatalf("one history day: survival %v, want %v", got, want)
	}
	// A week of observation admits days 1–4 (same day type, failure-free):
	// five history days, four event-free — (4+1)/(5+2).
	on.AdvanceTo(7 * sim.Day)
	if got, want := on.PredictSurvival(0, w), 5.0/7.0; got != want {
		t.Fatalf("five history days: survival %v, want %v", got, want)
	}
}

// TestServiceBytesPerNode holds the bounds doc.go states for the name-keyed
// path: a node that has had no event costs its name, a name-map slot, a
// view byte and a nil history slot — no history, no per-node
// table (61 heap bytes measured); one event adds the history and its
// one-start ring (125 measured: a 48-byte history). Each bound is a
// quarter over.
func TestServiceBytesPerNode(t *testing.T) {
	const nodes = 50_000
	if size := unsafe.Sizeof(machineState{}); size != 48 {
		t.Errorf("a machine's history is %d bytes, want 48", size)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, c := range []struct {
		state string
		bound int64
	}{
		{"S1(full)", 76},         // no event: the forecaster's slot is nil
		{"S3(cpu-unavail)", 156}, // one event each
	} {
		before := heap()
		svc, err := NewService(ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			if err := svc.ObserveState(fmt.Sprintf("node-%06d", i), c.state, 1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		perNode := (heap() - before) / nodes
		if got, _ := svc.Nodes(); got != nodes {
			t.Fatalf("%s: Nodes = %d, want %d", c.state, got, nodes)
		}
		t.Logf("%s: %d heap bytes per node (bound %d)", c.state, perNode, c.bound)
		if perNode > c.bound {
			t.Errorf("%s: %d heap bytes per node, want <= %d", c.state, perNode, c.bound)
		}
	}
}
