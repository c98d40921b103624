package check

import (
	"testing"
)

// TestRunSmoke runs a slice of the CI differential in-process. The full
// 200-seed sweep runs from fgcs-check; tests keep it short.
func TestRunSmoke(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	res, err := Run(Options{Seeds: n, Observations: 600, TestbedEvery: 6})
	if err != nil {
		t.Fatalf("differential run diverged: %v", err)
	}
	if res.Seeds != n {
		t.Errorf("Seeds = %d, want %d", res.Seeds, n)
	}
	if res.Observations == 0 || res.Transitions == 0 {
		t.Errorf("run covered no ground: %+v", res)
	}
	if res.TestbedRuns == 0 {
		t.Errorf("no testbed differential ran: %+v", res)
	}
	if res.ForecastChecks == 0 {
		t.Errorf("no online-vs-offline forecast comparisons ran: %+v", res)
	}
	if res.MarkovRuns == 0 || res.MarkovEvents == 0 {
		t.Errorf("no generative-model differential ran: %+v", res)
	}
	if res.MarkovChecks == 0 {
		t.Errorf("no SemiMarkov boundary comparisons ran: %+v", res)
	}
}

// TestRunDefaults pins the CI configuration the zero Options resolve to.
func TestRunDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seeds != 200 || o.BaseSeed != 1 || o.Observations != 1500 || o.TestbedEvery != 4 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

// TestRunProgress checks the callback fires once per completed seed.
func TestRunProgress(t *testing.T) {
	var calls []int
	_, err := Run(Options{Seeds: 3, Observations: 100, TestbedEvery: 100, Progress: func(done, total int) {
		if total != 3 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[0] != 1 || calls[2] != 3 {
		t.Errorf("progress calls = %v", calls)
	}
}

// TestRunBaseSeedNeverZero guards the testbed's "zero seed means unset"
// convention: a non-positive BaseSeed must be replaced before any seed
// derived from it reaches the testbed.
func TestRunBaseSeedNeverZero(t *testing.T) {
	o := Options{BaseSeed: -5}.withDefaults()
	if o.BaseSeed <= 0 {
		t.Errorf("non-positive BaseSeed survived withDefaults: %d", o.BaseSeed)
	}
}
