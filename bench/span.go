package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. Spans are recorded by the benchmark's own wrappers only, at
// the calls into each layer; spans inside the program are a later change.
const (
	spPlace uint8 = iota
	spCandidates
	spDial
	spExchange
	spForecast
	spHeartbeat
	spGenerate
	spSimulate
	spEncode
	spPass
	spAnalyze
	spPredict
	spPointq
	spFit
	spReplay
)

var spanNames = [...]string{
	spPlace:      "place",
	spCandidates: "broker.candidates",
	spDial:       "client.dial",
	spExchange:   "client.exchange",
	spForecast:   "client.forecast",
	spHeartbeat:  "client.heartbeat_batch",
	spGenerate:   "testbed.generate",
	spSimulate:   "testbed.simulate",
	spEncode:     "trace.encode",
	spPass:       "pass",
	spAnalyze:    "trace.analyze",
	spPredict:    "predict.evaluate",
	spPointq:     "trace.pointq",
	spFit:        "markov.fit_generate",
	spReplay:     "gsched.replay",
}

// span is {id, parent, name, start_ns, end_ns}; the id is the index + 1 and
// 0 means "no parent". Times are nanoseconds since the recorder was made.
type span struct {
	parent     int32
	name       uint8
	start, end int64
}

// spanRecorder keeps spans in a buffer allocated before the window and
// writes them out when the benchmark ends. A nil recorder records nothing,
// which is the untraced pass.
type spanRecorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its id (0 when the buffer is full).
func (r *spanRecorder) add(parent int32, name uint8, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{parent: parent, name: name, start: int64(start.Sub(r.t0)), end: int64(end.Sub(r.t0))})
	return int32(len(r.spans))
}

// begin opens a span whose children need its id before it ends.
func (r *spanRecorder) begin(parent int32, name uint8) int32 {
	now := time.Now()
	return r.add(parent, name, now, now)
}

func (r *spanRecorder) finish(id int32) {
	if r == nil || id == 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].end = end
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other).
func (r *spanRecorder) selfTimes() []int64 {
	kids := make(map[int32][]int32)
	for i, s := range r.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.end - s.start
		ks := kids[int32(i+1)]
		sort.Slice(ks, func(a, b int) bool { return r.spans[ks[a]].start < r.spans[ks[b]].start })
		covered := s.start
		for _, k := range ks {
			lo, hi := r.spans[k].start, r.spans[k].end
			if lo < covered {
				lo = covered
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// byName pools span durations (or self times) in microseconds per name.
func (r *spanRecorder) byName(self bool) map[uint8][]float64 {
	out := make(map[uint8][]float64)
	var selfNS []int64
	if self {
		selfNS = r.selfTimes()
	}
	for i, s := range r.spans {
		d := s.end - s.start
		if self {
			d = selfNS[i]
		}
		out[s.name] = append(out[s.name], float64(d)/1e3)
	}
	return out
}

func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			i+1, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
