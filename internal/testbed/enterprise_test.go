package testbed

import (
	"testing"

	"repro/internal/sim"
)

// TestEnterpriseProfile checks the future-work testbed (paper Section 6):
// enterprise desktops concentrate failures in office hours, are nearly
// idle on weekends, and — being single-user machines — rarely suffer
// console reboots.
func TestEnterpriseProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 10
	cfg.Days = 42
	cfg.Workload = EnterpriseParams()
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events")
	}

	wd := tr.HourlyOccurrences(sim.Weekday)
	we := tr.HourlyOccurrences(sim.Weekend)

	// Office hours dwarf the evening on weekdays.
	office := (wd[10].Mean + wd[13].Mean + wd[15].Mean) / 3
	evening := (wd[20].Mean + wd[21].Mean + wd[22].Mean) / 3
	if !(office > 3*evening) {
		t.Errorf("office mean %v should dwarf evening %v", office, evening)
	}
	// Weekends are nearly dead outside the cron spike.
	weekendDay := (we[11].Mean + we[14].Mean + we[16].Mean) / 3
	if !(office > 4*weekendDay) {
		t.Errorf("weekday office %v should dwarf weekend %v", office, weekendDay)
	}
	// The cron spike is still one per machine per day.
	if wd[4].Mean < 9.5 || wd[4].Mean > 11.5 {
		t.Errorf("hour-5 spike = %v, want ~10 (machine count)", wd[4].Mean)
	}

	// Reboots are rare among URR (paper: "machine reboots would be very
	// rare on hosts used by only one local user").
	tb := tr.MakeTable2()
	if tb.URR.Max > 0 && tb.RebootShare > 0.6 {
		t.Errorf("enterprise reboot share = %v, want low", tb.RebootShare)
	}

	// Weekend availability intervals are much longer than weekday ones.
	wdI, weI := tr.IntervalECDFs()
	if !(weI.Mean() > wdI.Mean()*1.3) {
		t.Errorf("weekend intervals (%vh) should be much longer than weekday (%vh)",
			weI.Mean(), wdI.Mean())
	}

	// Memory contention is a smaller share than in the student lab.
	if tb.MemoryPct[1] > 0.25 {
		t.Errorf("enterprise memory share %v, want smaller than lab", tb.MemoryPct)
	}

	// Causes are still exclusively the modeled ones.
	for _, e := range tr.Events {
		if !e.State.Unavailable() {
			t.Fatalf("bad event state %v", e.State)
		}
	}
}
