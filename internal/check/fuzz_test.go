package check

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fuzzSteps are the inter-observation gaps a fuzzed byte selects from,
// clustered around the 1-minute transient window boundary.
var fuzzSteps = []time.Duration{
	0, time.Second, 15 * time.Second, 30 * time.Second,
	59 * time.Second, time.Minute, 61 * time.Second, 2 * time.Minute,
}

// fuzzObs decodes one observation from 4 bytes: step selector, load
// selector (threshold-exact buckets plus a linear ramp), free memory in
// 2 MiB units, and alive/explicit-demand flags.
func fuzzObs(at sim.Time, b0, b1, b2, b3 byte, th availability.Thresholds) (sim.Time, availability.Observation) {
	at += fuzzSteps[int(b0)%len(fuzzSteps)]
	const eps = 1e-9
	var load float64
	switch b1 % 8 {
	case 0:
		load = th.Th1
	case 1:
		load = th.Th2
	case 2:
		load = th.Th1 - eps
	case 3:
		load = th.Th2 + eps
	default:
		load = float64(b1) / 255
	}
	obs := availability.Observation{
		At:      at,
		HostCPU: load,
		FreeMem: int64(b2) << 21,
		Alive:   b3&1 == 0,
	}
	if b3&2 != 0 {
		obs.GuestDemand = 100 << 20
	}
	return at, obs
}

// FuzzDetectorObserve feeds arbitrary observation sequences to the
// production detector and the reference model in lockstep: every state,
// transition and suspension flag must match, every transition must be a
// Figure 5 edge with consistent endpoints.
func FuzzDetectorObserve(f *testing.F) {
	f.Add([]byte{0, 0, 200, 0})
	f.Add([]byte{2, 3, 200, 0, 5, 3, 200, 0, 3, 0, 200, 0}) // spike past the window
	f.Add([]byte{1, 4, 0, 0, 2, 3, 200, 1, 3, 200, 200, 2}) // thrash, die, explicit demand
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, err := NewReference(availability.Config{})
		if err != nil {
			t.Fatal(err)
		}
		det, err := availability.NewDetector(availability.Config{})
		if err != nil {
			t.Fatal(err)
		}
		th := ref.Config().Thresholds
		edges := FigureFiveEdges()
		at := sim.Time(0)
		prev := availability.S1
		for i := 0; i+4 <= len(data); i += 4 {
			var obs availability.Observation
			at, obs = fuzzObs(at, data[i], data[i+1], data[i+2], data[i+3], th)
			refState, refTr := ref.Observe(obs)
			detState, detTr := det.Observe(obs)
			if refState != detState {
				t.Fatalf("obs %d at %v: reference %v, detector %v", i/4, obs.At, refState, detState)
			}
			if !transitionsEqual(refTr, detTr) {
				t.Fatalf("obs %d at %v: transitions diverge: %s vs %s", i/4, obs.At, trString(refTr), trString(detTr))
			}
			if ref.Suspended() != det.Suspended() {
				t.Fatalf("obs %d: suspension diverges: reference %v, detector %v", i/4, ref.Suspended(), det.Suspended())
			}
			if !refState.Valid() {
				t.Fatalf("obs %d: invalid state %v", i/4, refState)
			}
			if refTr != nil {
				if !edges[[2]availability.State{refTr.From, refTr.To}] {
					t.Fatalf("obs %d: illegal edge %v -> %v", i/4, refTr.From, refTr.To)
				}
				if refTr.From != prev || refTr.To != refState || refTr.At > obs.At {
					t.Fatalf("obs %d: inconsistent transition %s (state was %v, now %v)", i/4, trString(refTr), prev, refState)
				}
			}
			prev = refState
		}
	})
}

// fuzzEvents decodes a valid event list from 5-byte records: machine,
// start advance (minutes), duration (seconds), state/cpu selector, memory.
// Starts advance monotonically so the list is already in codec-friendly
// order without being sorted per machine.
func fuzzEvents(data []byte) []trace.Event {
	var events []trace.Event
	cur := sim.Time(0)
	for i := 0; i+5 <= len(data); i += 5 {
		cur += time.Duration(data[i+1]) * time.Minute
		events = append(events, trace.Event{
			Machine:  trace.MachineID(data[i] % 4),
			Start:    cur,
			End:      cur + time.Duration(data[i+2])*time.Second,
			State:    availability.S3 + availability.State(data[i+3]%3),
			AvailCPU: float64(data[i+3]) / 255,
			AvailMem: int64(data[i+4]) << 20,
		})
	}
	return events
}

func fuzzTrace(events []trace.Event) *trace.Trace {
	end := sim.Time(time.Hour)
	for _, e := range events {
		if e.End >= end {
			end = e.End + 1
		}
	}
	tr := trace.New(sim.Window{Start: 0, End: end}, sim.Calendar{}, 4)
	tr.Events = append(tr.Events, events...)
	return tr
}

// FuzzCodecRoundTrip encodes arbitrary valid event lists through the v2
// codec and demands exact reproduction, then cuts the file at an arbitrary
// offset and demands ReadBlocks refuse the cut with ErrTruncated.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 30, 0, 8, 200})
	f.Add([]byte{1, 0, 0, 1, 0, 3, 2, 60, 2, 9, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cutByte, data := data[0], data[1:]
		tr := fuzzTrace(fuzzEvents(data))

		var col bytes.Buffer
		if err := tr.WriteBlocks(&col, nil); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := trace.ReadBlocks(bytes.NewReader(col.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		ref := tr.Clone() // v2 stores (machine, start, end) order
		ref.Sort()
		if err := sameEvents("v2", ref.Events, got.Events); err != nil {
			t.Fatal(err)
		}

		// Truncation: every cut short of the whole file, in the header or
		// past it, is refused as one.
		if cut := int(cutByte) * col.Len() / 255; cut < col.Len() {
			if _, err := trace.ReadBlocks(bytes.NewReader(col.Bytes()[:cut])); !errors.Is(err, trace.ErrTruncated) {
				t.Fatalf("cut at %d/%d: %v, want ErrTruncated", cut, col.Len(), err)
			}
		}
	})
}

// FuzzIndexQueries holds every Index query to a straight linear scan over
// arbitrary event lists and query points, covering the exact-endpoint
// cases the boundary tests enumerate by hand.
func FuzzIndexQueries(f *testing.F) {
	f.Add([]byte{10, 50}, []byte{0, 1, 30, 0, 8, 1, 2, 60, 1, 9})
	f.Add([]byte{0, 0}, []byte{2, 0, 0, 2, 0, 2, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, qdata, edata []byte) {
		tr := fuzzTrace(fuzzEvents(edata))
		ix := tr.BuildIndex()

		pts := []sim.Time{0, tr.Span.End}
		for _, e := range tr.Events {
			pts = append(pts, e.Start, e.Start+1, e.End, e.End-1)
		}
		for _, b := range qdata {
			pts = append(pts, time.Duration(b)*time.Minute)
		}

		for m := trace.MachineID(0); m < 4; m++ {
			if err := checkIndexQueries(tr, ix, m, pts); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzColBlockRoundTrip drives the v2 columnar codec with arbitrary valid
// event lists and block sizes: the block file must reproduce the sorted
// events exactly, and a byte cut at any offset must salvage a block-aligned
// event prefix with the damage reported — never a wrong event, never a
// crash.
func FuzzColBlockRoundTrip(f *testing.F) {
	f.Add([]byte{255, 0})                                                   // zero-length: header + empty directory only
	f.Add([]byte{128, 0, 0, 1, 30, 0, 8, 1, 2, 60, 1, 9, 2, 3, 5, 2, 7})    // block size 1: every block holds one event
	f.Add([]byte{200, 5, 255, 255, 255, 255, 255, 254, 255, 255, 253, 255}) // max-delta timestamps
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cutByte, bsByte, data := data[0], data[1], data[2:]
		blockSize := 1 + int(bsByte)%64
		tr := fuzzTrace(fuzzEvents(data))
		tr.Sort() // v2 emits (machine, start, end) order; sort the reference once

		var col bytes.Buffer
		if err := tr.WriteBlocks(&col, &trace.BlockWriterOptions{BlockSize: blockSize}); err != nil {
			t.Fatalf("v2 encode: %v", err)
		}
		got, err := trace.ReadBlocks(bytes.NewReader(col.Bytes()))
		if err != nil {
			t.Fatalf("v2 decode: %v", err)
		}
		if err := sameEvents("v2", tr.Events, got.Events); err != nil {
			t.Fatal(err)
		}
		if got.Span != tr.Span || got.Calendar != tr.Calendar || got.Machines != tr.Machines {
			t.Fatalf("v2 round trip lost header: %+v vs %+v", got, tr)
		}

		// Truncation: the salvage must flag Truncated and surface exactly
		// the complete blocks — an event prefix.
		cut := int(cutByte) * col.Len() / 255
		bf2, err := trace.NewBlockFileBytes(col.Bytes()[:cut])
		if err != nil {
			if !errors.Is(err, trace.ErrTruncated) {
				t.Fatalf("block file header cut at %d/%d: %v, want ErrTruncated", cut, col.Len(), err)
			}
			return
		}
		if cut < col.Len() && !bf2.Truncated() {
			t.Fatalf("cut at %d/%d not reported by Truncated", cut, col.Len())
		}
		salvTr, err := trace.CollectEvents(bf2.Reader())
		if err != nil {
			t.Fatalf("block file salvage decode: %v", err)
		}
		if len(salvTr.Events) > len(tr.Events) {
			t.Fatalf("block file salvaged %d events from a %d-event file", len(salvTr.Events), len(tr.Events))
		}
		if err := sameEvents("block file salvage prefix", tr.Events[:len(salvTr.Events)], salvTr.Events); err != nil {
			t.Fatal(err)
		}
	})
}
