package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSVEvents checks the CSV parser never panics and that whatever
// it accepts round-trips losslessly.
func FuzzReadCSVEvents(f *testing.F) {
	var buf bytes.Buffer
	if err := randomTrace(1, 20).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,1,2,3,0.5,0")
	f.Add("")
	f.Add("garbage\nmore garbage")
	f.Add("machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,9223372036854775807,2,3,0.5,0")

	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadCSVEvents(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must produce valid events that survive re-encoding.
		tr := &Trace{}
		for _, e := range events {
			if err := e.Validate(); err != nil {
				t.Fatalf("accepted invalid event %+v: %v", e, err)
			}
			tr.Events = append(tr.Events, e)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("re-encoding accepted events failed: %v", err)
		}
		again, err := ReadCSVEvents(&out)
		if err != nil {
			t.Fatalf("re-parsing own output failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
	})
}

// FuzzReadBinary checks the binary decoder never panics on hostile input
// and that accepted traces validate and round-trip bit-exactly.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := func() error {
		tr := randomTrace(3, 30)
		tr.Sort()
		return tr.WriteBinary(&buf)
	}(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("FGCB"))
	f.Add([]byte("FGCB\x01\x00\x00\x00\x00"))
	f.Add(buf.Bytes()[:buf.Len()/2])

	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		tr2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parsing own output failed: %v", err)
		}
		if !tracesEqual(tr, tr2) {
			t.Fatal("round trip changed the trace")
		}
	})
}
