package testbed

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsDoNotPerturbOutputs is the determinism gate for the simulator
// instrumentation: a fixed-seed run with Config.Metrics attached must
// produce byte-identical encoded traces and identical occupancy to an
// uninstrumented run. Instrumentation observes — it must never draw from
// the random streams or reorder anything. The second case is the paper
// corpus (the default 20 x 92 configuration), on which the v2 encoding must
// also be no larger than the v1 encoding: per-block flate with a raw
// fallback, the directory and footer amortized at paper scale.
func TestMetricsDoNotPerturbOutputs(t *testing.T) {
	for _, c := range []struct {
		name  string
		base  Config
		paper bool
	}{
		{"4x7", Config{Machines: 4, Days: 7, Seed: 424242}, false},
		{"paper-20x92", Config{}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.base.withDefaults()
			plainTr, plainOcc, err := RunWithOccupancy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Metrics = obs.NewRegistry()
			instTr, instOcc, err := RunWithOccupancy(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var plainV1, instV1 bytes.Buffer
			if err := plainTr.WriteBinary(&plainV1); err != nil {
				t.Fatal(err)
			}
			if err := instTr.WriteBinary(&instV1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plainV1.Bytes(), instV1.Bytes()) {
				t.Error("instrumented run's encoded trace differs from the uninstrumented run")
			}
			if !reflect.DeepEqual(plainOcc, instOcc) {
				t.Error("instrumented run's occupancy differs from the uninstrumented run")
			}
			if !c.paper {
				return
			}
			var v2 bytes.Buffer
			if err := plainTr.WriteBlocks(&v2, nil); err != nil {
				t.Fatal(err)
			}
			if v2.Len() > plainV1.Len() {
				t.Errorf("v2 encoding is %d bytes, larger than the %d-byte v1 encoding", v2.Len(), plainV1.Len())
			}
		})
	}
}

// TestSimMetricsAccounting checks the instrumentation's internal
// consistency: the per-state residence sums must cover the whole fleet's
// observed time (every instant is in exactly one state), and the expected
// families must appear in a scrape.
func TestSimMetricsAccounting(t *testing.T) {
	cfg := Config{Machines: 3, Days: 5, Seed: 11}.withDefaults()
	cfg.Metrics = obs.NewRegistry()
	if _, _, err := RunWithOccupancy(cfg); err != nil {
		t.Fatal(err)
	}

	var totalHours float64
	for _, fam := range cfg.Metrics.Snapshot() {
		if fam.Name != "fgcs_sim_state_residence_hours" {
			continue
		}
		for _, s := range fam.Series {
			totalHours += s.Hist.Sum
		}
	}
	want := float64(cfg.Machines) * float64(cfg.Days) * 24
	// Residences are closed at sample instants, so the last partial period
	// per machine may be uncredited.
	if totalHours < want*0.99 || totalHours > want*1.01 {
		t.Errorf("total residence = %.1f machine-hours, want ~%.1f", totalHours, want)
	}

	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, wantLine := range []string{
		`fgcs_sim_state_residence_hours_bucket{state="S1",le="+Inf"}`,
		`fgcs_sim_transitions_total{from="S1",to="S2"}`,
		"fgcs_sim_machines_done_total 3",
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("scrape missing %q", wantLine)
		}
	}
}
