package sim

import (
	"testing"
	"time"
)

func TestCalendarDayIndexAndWeekday(t *testing.T) {
	c := Calendar{} // epoch is a Monday
	tests := []struct {
		t       Time
		day     int
		weekday int
		dayType DayType
		hour    int
	}{
		{0, 0, 0, Weekday, 0},
		{23 * time.Hour, 0, 0, Weekday, 23},
		{24 * time.Hour, 1, 1, Weekday, 0},
		{4*Day + 10*time.Hour, 4, 4, Weekday, 10}, // Friday
		{5 * Day, 5, 5, Weekend, 0},               // Saturday
		{6*Day + 30*time.Minute, 6, 6, Weekend, 0},
		{7 * Day, 7, 0, Weekday, 0}, // next Monday
	}
	for _, tt := range tests {
		if got := c.DayIndex(tt.t); got != tt.day {
			t.Errorf("DayIndex(%v) = %d, want %d", tt.t, got, tt.day)
		}
		if got := c.Weekday(tt.t); got != tt.weekday {
			t.Errorf("Weekday(%v) = %d, want %d", tt.t, got, tt.weekday)
		}
		if got := c.DayType(tt.t); got != tt.dayType {
			t.Errorf("DayType(%v) = %v, want %v", tt.t, got, tt.dayType)
		}
		if got := c.HourOfDay(tt.t); got != tt.hour {
			t.Errorf("HourOfDay(%v) = %d, want %d", tt.t, got, tt.hour)
		}
	}
}

func TestCalendarStartWeekdayShift(t *testing.T) {
	c := Calendar{StartWeekday: 5} // epoch is a Saturday
	if c.DayType(0) != Weekend {
		t.Error("epoch on Saturday should be a weekend")
	}
	if c.DayType(2*Day) != Weekday {
		t.Error("two days after Saturday should be Monday")
	}
}

func TestCalendarNegativeTime(t *testing.T) {
	c := Calendar{}
	if got := c.DayIndex(-1 * time.Hour); got != -1 {
		t.Errorf("DayIndex(-1h) = %d, want -1", got)
	}
	if got := c.HourOfDay(-1 * time.Hour); got != 23 {
		t.Errorf("HourOfDay(-1h) = %d, want 23", got)
	}
	if got := c.Weekday(-1 * time.Hour); got != 6 {
		t.Errorf("Weekday(-1h) = %d, want 6 (Sunday)", got)
	}
	for at, want := range map[Time]int64{
		0: 0, time.Hour - 1: 0, time.Hour: 1, 90 * time.Minute: 1,
		-1: -1, -time.Hour: -1, -time.Hour - 1: -2, -90 * time.Minute: -2,
	} {
		if got := FloorHour(at); got != want {
			t.Errorf("FloorHour(%v) = %d, want %d", at, got, want)
		}
	}
}

func TestDayTypeString(t *testing.T) {
	if Weekday.String() != "weekday" || Weekend.String() != "weekend" {
		t.Error("DayType.String mismatch")
	}
	if DayType(9).String() == "" {
		t.Error("unknown DayType should still render")
	}
}

func TestWindow(t *testing.T) {
	w := Window{Start: 10 * time.Minute, End: 20 * time.Minute}
	if w.Duration() != 10*time.Minute {
		t.Errorf("Duration = %v", w.Duration())
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42).Stream("x")
	b := NewSource(42).Stream("x")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) must produce identical streams")
		}
	}
	c := NewSource(42).Stream("y")
	d := NewSource(43).Stream("x")
	base := NewSource(42).Stream("x")
	sameAsC, sameAsD := true, true
	for i := 0; i < 10; i++ {
		v := base.Int63()
		if v != c.Int63() {
			sameAsC = false
		}
		if v != d.Int63() {
			sameAsD = false
		}
	}
	if sameAsC {
		t.Error("different names should decorrelate streams")
	}
	if sameAsD {
		t.Error("different seeds should decorrelate streams")
	}
}

func TestDistributions(t *testing.T) {
	r := NewSource(1).Stream("dist")
	// Exponential mean.
	var sum time.Duration
	n := 20000
	for i := 0; i < n; i++ {
		sum += Exp(r, time.Hour)
	}
	mean := sum / time.Duration(n)
	if mean < 55*time.Minute || mean > 65*time.Minute {
		t.Errorf("Exp mean = %v, want ~1h", mean)
	}
	if Exp(r, 0) != 0 || Exp(r, -time.Second) != 0 {
		t.Error("Exp with non-positive mean should be 0")
	}
	// Uniform bounds.
	for i := 0; i < 1000; i++ {
		v := Uniform(r, time.Minute, time.Hour)
		if v < time.Minute || v >= time.Hour {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	if Uniform(r, time.Hour, time.Minute) != time.Hour {
		t.Error("inverted Uniform should return lo")
	}
	// Truncated normal.
	for i := 0; i < 1000; i++ {
		if v := Normal(r, 0, 1, 0); v < 0 {
			t.Fatalf("Normal below truncation: %v", v)
		}
	}
	// Bernoulli extremes.
	if Bernoulli(r, 0) || !Bernoulli(r, 1) {
		t.Error("Bernoulli extremes wrong")
	}
	// Poisson mean.
	total := 0
	for i := 0; i < 20000; i++ {
		total += Poisson(r, 3)
	}
	got := float64(total) / 20000
	if got < 2.8 || got > 3.2 {
		t.Errorf("Poisson mean = %v, want ~3", got)
	}
	if Poisson(r, 0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
	big := Poisson(r, 100)
	if big < 50 || big > 160 {
		t.Errorf("Poisson(100) = %d, implausible", big)
	}
	if v := LogNormal(r, 10, 0); v != 10 {
		t.Errorf("LogNormal sigma=0 should return median, got %v", v)
	}
}
