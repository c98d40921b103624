package availability

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

const gig = int64(1) << 30

// MustNewDetector is NewDetector for known-good configurations.
func MustNewDetector(cfg Config) *Detector {
	d, err := NewDetector(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// obs builds a healthy observation with the given time and host load.
func obs(at time.Duration, lh float64) Observation {
	return Observation{At: at, HostCPU: lh, FreeMem: gig, Alive: true}
}

func TestDetectorConfigValidation(t *testing.T) {
	if _, err := NewDetector(Config{Thresholds: Thresholds{Th1: -0.1, Th2: 0.5}}); err == nil {
		t.Error("negative Th1 should be rejected")
	}
	if _, err := NewDetector(Config{Thresholds: Thresholds{Th1: 0.7, Th2: 0.5}}); err == nil {
		t.Error("Th1 > Th2 should be rejected")
	}
	if _, err := NewDetector(Config{TransientWindow: -time.Second}); err == nil {
		t.Error("negative transient window should be rejected")
	}
	d, err := NewDetector(Config{})
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// The paper's Linux values (Section 4), not merely LinuxThresholds().
	if d.Config().Thresholds != (Thresholds{Th1: 0.20, Th2: 0.60, Slowdown: 0.05}) {
		t.Errorf("defaults not applied: %+v", d.Config().Thresholds)
	}
	if d.Config().TransientWindow != time.Minute {
		t.Errorf("default transient window = %v", d.Config().TransientWindow)
	}
}

func TestDetectorBasicStates(t *testing.T) {
	d := MustNewDetector(Config{})
	tests := []struct {
		lh   float64
		want State
	}{
		{0.00, S1},
		{0.10, S1},
		{0.19, S1},
		{0.20, S2}, // Th1 <= LH <= Th2 is S2
		{0.45, S2},
		{0.60, S2}, // exactly Th2 still S2
	}
	at := time.Duration(0)
	for _, tt := range tests {
		at += 10 * time.Second
		got, _ := d.Observe(obs(at, tt.lh))
		if got != tt.want {
			t.Errorf("LH=%v -> %v, want %v", tt.lh, got, tt.want)
		}
	}
}

func TestDetectorTransientSpikeSuspends(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.1))
	// Spike above Th2 for 30s: should stay S1 (suspended), not S3.
	st, tr := d.Observe(obs(10*time.Second, 0.9))
	if st != S1 {
		t.Fatalf("transient spike moved state to %v, want S1", st)
	}
	if tr != nil {
		t.Fatalf("transient spike should not emit a transition, got %+v", tr)
	}
	if !d.Suspended() {
		t.Error("guest should be suspended during the spike")
	}
	// Spike subsides before the window expires.
	st, _ = d.Observe(obs(40*time.Second, 0.1))
	if st != S1 || d.Suspended() {
		t.Errorf("after subsiding: state %v suspended %v, want S1 not suspended", st, d.Suspended())
	}
}

func TestDetectorPersistentSpikeBecomesS3(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.1))
	d.Observe(obs(10*time.Second, 0.9))
	st, tr := d.Observe(obs(80*time.Second, 0.95))
	if st != S3 {
		t.Fatalf("persistent spike -> %v, want S3", st)
	}
	if tr == nil {
		t.Fatal("entering S3 must emit a transition")
	}
	// Transition is backdated to the spike start.
	if tr.At != 10*time.Second {
		t.Errorf("S3 transition at %v, want backdated to 10s", tr.At)
	}
	if tr.From != S1 || tr.To != S3 {
		t.Errorf("transition %v -> %v, want S1 -> S3", tr.From, tr.To)
	}
	if d.Suspended() {
		t.Error("guest is killed, not suspended, in S3")
	}
	// Recovery: load drops, back to S1.
	st, tr = d.Observe(obs(200*time.Second, 0.05))
	if st != S1 || tr == nil || tr.From != S3 {
		t.Errorf("recovery: state %v transition %+v", st, tr)
	}
}

func TestDetectorSpikeFromS2ReturnsToS2(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.4)) // S2
	st, _ := d.Observe(obs(10*time.Second, 0.9))
	if st != S2 {
		t.Errorf("transient spike from S2 should keep S2, got %v", st)
	}
	st, _ = d.Observe(obs(30*time.Second, 0.4))
	if st != S2 || d.Suspended() {
		t.Errorf("after spike: %v suspended=%v, want S2 resumed", st, d.Suspended())
	}
}

func TestDetectorMemoryThrashing(t *testing.T) {
	d := MustNewDetector(Config{GuestWorkingSet: 200 << 20})
	st, tr := d.Observe(Observation{At: 0, HostCPU: 0.1, FreeMem: 100 << 20, Alive: true})
	if st != S4 {
		t.Fatalf("insufficient free memory -> %v, want S4", st)
	}
	if tr == nil || tr.To != S4 {
		t.Fatalf("transition = %+v, want -> S4", tr)
	}
	// Explicit per-observation demand overrides the config.
	d2 := MustNewDetector(Config{GuestWorkingSet: 200 << 20})
	st, _ = d2.Observe(Observation{At: 0, HostCPU: 0.1, FreeMem: 100 << 20, GuestDemand: 50 << 20, Alive: true})
	if st != S1 {
		t.Errorf("small explicit demand should fit: got %v", st)
	}
	// Memory dominates CPU classification (orthogonality).
	d3 := MustNewDetector(Config{GuestWorkingSet: 200 << 20})
	st, _ = d3.Observe(Observation{At: 0, HostCPU: 0.99, FreeMem: 10 << 20, Alive: true})
	if st != S4 {
		t.Errorf("memory pressure with high CPU -> %v, want S4", st)
	}
}

func TestDetectorURR(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.3))
	st, tr := d.Observe(Observation{At: 10 * time.Second, Alive: false})
	if st != S5 {
		t.Fatalf("dead service -> %v, want S5", st)
	}
	if tr == nil || tr.From != S2 || tr.To != S5 {
		t.Fatalf("transition = %+v", tr)
	}
	// Machine comes back: recovers to availability.
	st, tr = d.Observe(obs(70*time.Second, 0.0))
	if st != S1 || tr == nil || tr.From != S5 {
		t.Errorf("after reboot: %v %+v", st, tr)
	}
}

func TestDetectorURRDominatesEverything(t *testing.T) {
	d := MustNewDetector(Config{})
	st, _ := d.Observe(Observation{At: 0, HostCPU: 0.99, FreeMem: 0, Alive: false})
	if st != S5 {
		t.Errorf("dead machine with bad load/mem -> %v, want S5", st)
	}
}

func TestDetectorSpikeWhileRecoveringFromS3(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.9))
	d.Observe(obs(2*time.Minute, 0.9)) // S3 now
	if d.State() != S3 {
		t.Fatal("setup failed: want S3")
	}
	// Still above Th2: stays S3 without new transitions.
	st, tr := d.Observe(obs(3*time.Minute, 0.95))
	if st != S3 || tr != nil {
		t.Errorf("continued overload: %v %+v, want S3 no transition", st, tr)
	}
}

func TestDetectorReset(t *testing.T) {
	d := MustNewDetector(Config{})
	d.Observe(obs(0, 0.9))
	d.Observe(obs(2*time.Minute, 0.9))
	d.Reset()
	if d.State() != S1 || d.Suspended() {
		t.Error("Reset should restore S1, unsuspended")
	}
	if d.spikeActive {
		t.Error("Reset should clear spike history")
	}
}

// Property: the detector only ever reports valid states, and transitions
// are emitted exactly when the state changes, with From != To.
func TestDetectorTransitionConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := MustNewDetector(Config{})
	prev := d.State()
	at := sim.Time(0)
	for i := 0; i < 5000; i++ {
		at += time.Duration(1+rng.Intn(30)) * time.Second
		o := Observation{
			At:      at,
			HostCPU: rng.Float64() * 1.2,
			FreeMem: int64(rng.Intn(2)) * gig,
			Alive:   rng.Float64() > 0.02,
		}
		st, tr := d.Observe(o)
		if !st.Valid() {
			t.Fatalf("invalid state %v", st)
		}
		if (tr != nil) != (st != prev) {
			t.Fatalf("transition emission mismatch: prev %v now %v tr %+v", prev, st, tr)
		}
		if tr != nil {
			if tr.From != prev || tr.To != st {
				t.Fatalf("transition %v->%v but states %v->%v", tr.From, tr.To, prev, st)
			}
			if tr.At > at {
				t.Fatalf("transition in the future: %v > %v", tr.At, at)
			}
		}
		prev = st
	}
}
