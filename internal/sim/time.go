package sim

import (
	"fmt"
	"time"
)

// Time is a virtual instant, measured as a duration since the simulation
// epoch (t = 0). It deliberately reuses time.Duration so the callers can
// write literals like 3*time.Hour.
type Time = time.Duration

// Day is a calendar day in virtual time.
const Day = 24 * time.Hour

// DayType classifies a calendar day, the primary grouping of the paper's
// trace analysis (all of Figures 6 and 7 split weekday vs. weekend).
type DayType int

const (
	Weekday DayType = iota
	Weekend
)

// String returns "weekday" or "weekend".
func (d DayType) String() string {
	switch d {
	case Weekday:
		return "weekday"
	case Weekend:
		return "weekend"
	default:
		return fmt.Sprintf("DayType(%d)", int(d))
	}
}

// Calendar anchors virtual time to a weekly cycle. StartWeekday is the day
// of week at the simulation epoch (0 = Monday .. 6 = Sunday). The zero value
// starts on a Monday, matching the paper's August-to-November term trace.
type Calendar struct {
	StartWeekday int
}

// DayIndex returns the zero-based calendar day containing t. Negative times
// floor toward minus infinity so day boundaries stay aligned.
func (c Calendar) DayIndex(t Time) int {
	d := t / Day
	if t < 0 && t%Day != 0 {
		d--
	}
	return int(d)
}

// FloorHour returns the absolute index of the hour containing t, flooring
// toward minus infinity so hour boundaries stay aligned across t = 0: hour
// h covers [h, h+1) * time.Hour, and the first boundary strictly after t is
// Time(FloorHour(t)+1) * time.Hour.
func FloorHour(t Time) int64 {
	h := int64(t / time.Hour)
	if t < 0 && t%time.Hour != 0 {
		h--
	}
	return h
}

// Weekday returns the day of week (0 = Monday .. 6 = Sunday) containing t.
func (c Calendar) Weekday(t Time) int {
	w := (c.StartWeekday + c.DayIndex(t)) % 7
	if w < 0 {
		w += 7
	}
	return w
}

// DayType classifies the day containing t.
func (c Calendar) DayType(t Time) DayType {
	if c.Weekday(t) >= 5 {
		return Weekend
	}
	return Weekday
}

// HourOfDay returns the hour (0..23) within the day containing t.
func (c Calendar) HourOfDay(t Time) int {
	rem := t % Day
	if rem < 0 {
		rem += Day
	}
	return int(rem / time.Hour)
}

// HourOfWeek returns the hour slot (0..167) containing t within the weekly
// cycle: Weekday(t)*24 + HourOfDay(t). Slot 0 is the first hour of the
// week's Monday regardless of StartWeekday, so models fitted on calendars
// with different epoch anchors stay comparable.
func (c Calendar) HourOfWeek(t Time) int {
	return c.Weekday(t)*24 + c.HourOfDay(t)
}

// HoursPerWeek is the number of hour-of-week slots (7 * 24).
const HoursPerWeek = 168

// TimeOfDay returns the offset of t within its day, in [0, 24h).
func (c Calendar) TimeOfDay(t Time) time.Duration {
	rem := t % Day
	if rem < 0 {
		rem += Day
	}
	return rem
}

// Window is a half-open virtual-time interval [Start, End).
type Window struct {
	Start Time
	End   Time
}

// Duration returns End - Start (possibly negative for malformed windows).
func (w Window) Duration() time.Duration { return w.End - w.Start }

// String renders the window using hours for readability.
func (w Window) String() string {
	return fmt.Sprintf("[%s, %s)", w.Start, w.End)
}
