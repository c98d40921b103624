package monitor

import (
	"testing"
	"time"

	"repro/internal/simos"
	"repro/internal/workload"
)

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Monitor {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Period: -time.Second}); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := New(Config{Period: time.Second, SmoothWindow: -1}); err == nil {
		t.Error("negative smoothing accepted")
	}
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if m.Config().Period != 15*time.Second || m.Config().SmoothWindow != 2 {
		t.Errorf("defaults = %+v", m.Config())
	}
}

func TestSmoothing(t *testing.T) {
	m := MustNew(Config{Period: time.Second, SmoothWindow: 2})
	o1 := m.Observe(Sample{At: 0, HostCPU: 0.4, FreeMem: 1, Alive: true})
	if o1.HostCPU != 0.4 {
		t.Errorf("first observation = %v, want raw 0.4", o1.HostCPU)
	}
	o2 := m.Observe(Sample{At: time.Second, HostCPU: 0.8, FreeMem: 1, Alive: true})
	if o2.HostCPU < 0.59 || o2.HostCPU > 0.61 {
		t.Errorf("smoothed = %v, want 0.6", o2.HostCPU)
	}
	o3 := m.Observe(Sample{At: 2 * time.Second, HostCPU: 0.8, FreeMem: 1, Alive: true})
	if o3.HostCPU < 0.79 || o3.HostCPU > 0.81 {
		t.Errorf("window should slide: %v, want 0.8", o3.HostCPU)
	}
}

func TestNoSmoothing(t *testing.T) {
	m := MustNew(Config{Period: time.Second, SmoothWindow: 1})
	m.Observe(Sample{At: 0, HostCPU: 0.1, Alive: true})
	o := m.Observe(Sample{At: time.Second, HostCPU: 0.9, Alive: true})
	if o.HostCPU != 0.9 {
		t.Errorf("window 1 should pass raw values, got %v", o.HostCPU)
	}
}

func TestDeadSampleResetsSmoothing(t *testing.T) {
	m := MustNew(Config{Period: time.Second, SmoothWindow: 4})
	for i := 0; i < 4; i++ {
		m.Observe(Sample{At: time.Duration(i) * time.Second, HostCPU: 1, Alive: true})
	}
	o := m.Observe(Sample{At: 5 * time.Second, Alive: false})
	if o.Alive {
		t.Error("dead sample should produce dead observation")
	}
	// After reboot, old high values must be gone.
	o = m.Observe(Sample{At: 6 * time.Second, HostCPU: 0.1, Alive: true})
	if o.HostCPU != 0.1 {
		t.Errorf("post-reboot observation = %v, want fresh 0.1", o.HostCPU)
	}
}

func TestGuestDemandAttached(t *testing.T) {
	m := MustNew(Config{Period: time.Second, SmoothWindow: 1, GuestDemand: 42})
	o := m.Observe(Sample{At: 0, HostCPU: 0.5, Alive: true})
	if o.GuestDemand != 42 {
		t.Errorf("GuestDemand = %d, want 42", o.GuestDemand)
	}
}

func TestMachineSampler(t *testing.T) {
	mach := simos.MustNewMachine(simos.LinuxLabMachine(1))
	mach.Spawn("h", simos.Host, 0, 300*simos.MB,
		&workload.DutyCycle{Usage: 0.5, Period: time.Second})
	s := NewMachineSampler(mach)
	mach.Run(30 * time.Second)
	sample := s.Sample()
	if sample.HostCPU < 0.4 || sample.HostCPU > 0.6 {
		t.Errorf("sampled host CPU = %v, want ~0.5", sample.HostCPU)
	}
	if sample.FreeMem != mach.Config().RAM-mach.Config().KernelMem-300*simos.MB {
		t.Errorf("free mem = %d", sample.FreeMem)
	}
	if !sample.Alive {
		t.Error("simulated machine should be alive")
	}
	// Second sample covers only the new window.
	mach.Run(10 * time.Second)
	s2 := s.Sample()
	if s2.At != 40*time.Second {
		t.Errorf("second sample at %v", s2.At)
	}
	if s2.HostCPU < 0.35 || s2.HostCPU > 0.65 {
		t.Errorf("windowed host CPU = %v", s2.HostCPU)
	}
	// Sampling twice without advancing is harmless.
	s3 := s.Sample()
	if s3.HostCPU != 0 {
		t.Errorf("zero-width sample should report 0 usage, got %v", s3.HostCPU)
	}
}
