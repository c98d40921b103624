package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

// v2Bytes encodes tr in the v2 columnar codec.
func v2Bytes(t *testing.T, tr *Trace, opts *BlockWriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBlocks(&buf, opts); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	return buf.Bytes()
}

func TestBlockRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opts *BlockWriterOptions
	}{
		{"defaults", nil},
		{"tiny-blocks", &BlockWriterOptions{BlockSize: 7}},
		{"single-event-blocks", &BlockWriterOptions{BlockSize: 1}},
		{"raw", &BlockWriterOptions{Compression: CompressionNone}},
		{"flate", &BlockWriterOptions{Compression: CompressionFlate, BlockSize: 64}},
	}
	tr := randomTrace(21, 900)
	tr.Sort()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := v2Bytes(t, tr, tc.opts)
			got, err := ReadBlocks(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("ReadBlocks: %v", err)
			}
			if !tracesEqual(tr, got) {
				t.Error("v2 round trip lost data")
			}
			bf, err := NewBlockFileBytes(b)
			if err != nil {
				t.Fatalf("NewBlockFileBytes: %v", err)
			}
			n := 0
			for i := range bf.NumBlocks() {
				n += bf.Block(i).Count
			}
			if n != len(tr.Events) {
				t.Errorf("directory counts %d events, want %d", n, len(tr.Events))
			}
		})
	}
}

func TestBlockRoundTripEmpty(t *testing.T) {
	tr := New(sim.Window{Start: 0, End: 3 * sim.Day}, sim.Calendar{StartWeekday: 4}, 5)
	b := v2Bytes(t, tr, nil)
	got, err := ReadBlocks(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Errorf("empty round trip changed metadata: %+v vs %+v", tr, got)
	}
	bf, err := NewBlockFileBytes(b)
	if err != nil {
		t.Fatalf("NewBlockFileBytes: %v", err)
	}
	if bf.NumBlocks() != 0 || bf.Truncated() {
		t.Errorf("empty file: %d blocks, truncated=%v", bf.NumBlocks(), bf.Truncated())
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"FGC",
		"NOPE....",
		"FGCB\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", // absurd version
	}
	for _, in := range cases {
		if _, err := ReadBlocks(strings.NewReader(in)); err == nil {
			t.Errorf("reader accepted %q", in)
		}
	}
}

func TestDecoderRejectsTruncation(t *testing.T) {
	tr := randomTrace(13, 50)
	tr.Sort()
	// Chop into the footer: the loader must fail with ErrTruncated rather
	// than silently hand over the trace the complete blocks hold.
	b := v2Bytes(t, tr, nil)
	if _, err := ReadBlocks(bytes.NewReader(b[:len(b)-3])); !errors.Is(err, ErrTruncated) {
		t.Errorf("file cut 3 bytes short: %v, want ErrTruncated", err)
	}
}

func TestDecoderRejectsOutOfRangeMachine(t *testing.T) {
	// A header claiming 2 machines over an event on machine 5: the writer
	// does not look, the reader must.
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, Header{Span: sim.Window{End: sim.Day}, Machines: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(Event{Machine: 5, Start: 1, End: 2, State: availability.S3}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlocks(&buf); err == nil || !strings.Contains(err.Error(), "outside 0..1") {
		t.Errorf("event outside the header's machine range: %v, want it refused", err)
	}
}

// TestNewReaderSniffsVersion pins the version sniff every reader opens a
// file with: a v2 file loads through ReadBlocks, the in-memory BlockFile and
// the pread one alike, and a v1 or future-version file is refused by each,
// naming the version it found.
func TestNewReaderSniffsVersion(t *testing.T) {
	tr := randomTrace(3, 400)
	tr.Sort()
	var v1 bytes.Buffer
	if err := tr.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	v2 := v2Bytes(t, tr, nil)
	readers := map[string]func([]byte) (*Trace, error){
		"ReadBlocks": func(b []byte) (*Trace, error) { return ReadBlocks(bytes.NewReader(b)) },
		"NewBlockFileBytes": func(b []byte) (*Trace, error) {
			bf, err := NewBlockFileBytes(b)
			if err != nil {
				return nil, err
			}
			return CollectEvents(bf)
		},
		"NewBlockFile": func(b []byte) (*Trace, error) {
			bf, err := NewBlockFile(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				return nil, err
			}
			return CollectEvents(bf)
		},
	}
	for name, read := range readers {
		got, err := read(v2)
		if err != nil {
			t.Fatalf("%s: v2: %v", name, err)
		}
		if !tracesEqual(tr, got) {
			t.Errorf("%s: v2 lost data", name)
		}
		for raw, want := range map[string]string{
			string(v1.Bytes()):          "got version 1",
			"FGCB\x09" + string(v2[5:]): "got version 9",
		} {
			if _, err := read([]byte(raw)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %v, want it refused with %q", name, err, want)
			}
		}
	}
}

// TestBlockFileSizeNotLargerThanV1 pins the acceptance bound: with auto
// compression a v2 file never exceeds the v1 encoding of the same trace,
// beyond a small constant for the directory and footer that vanishes on any
// realistically sized corpus.
func TestBlockFileSizeNotLargerThanV1(t *testing.T) {
	// Even on incompressible random payloads the per-file overhead stays
	// bounded; from a few thousand events up, flate's wins cover it. (The
	// strict bound on the paper corpus is pinned by testbed's
	// TestMetricsDoNotPerturbOutputs.)
	const fixedOverhead = 128 // header delta + block/directory summaries + footer
	for _, n := range []int{0, 1, 50, 1000, 5000} {
		tr := randomTrace(int64(100+n), n)
		tr.Sort()
		var v1 bytes.Buffer
		if err := tr.WriteBinary(&v1); err != nil {
			t.Fatal(err)
		}
		v2 := v2Bytes(t, tr, nil)
		if n >= 5000 {
			if len(v2) > v1.Len() {
				t.Errorf("%d events: v2 file is %d bytes, v1 is %d", n, len(v2), v1.Len())
			}
		} else if len(v2) > v1.Len()+fixedOverhead {
			t.Errorf("%d events: v2 file is %d bytes, v1 + overhead allowance is %d", n, len(v2), v1.Len()+fixedOverhead)
		}
	}
}

func TestBlockFileScanPrunes(t *testing.T) {
	tr := randomTrace(33, 2000)
	// Confine S5 to the top machines so the per-block state masks have
	// pruning power (uniformly random states put all three in every block).
	for i := range tr.Events {
		if tr.Events[i].Machine >= 16 {
			tr.Events[i].State = availability.S5
		} else if i%2 == 0 {
			tr.Events[i].State = availability.S3
		} else {
			tr.Events[i].State = availability.S4
		}
	}
	tr.Sort()
	bf, err := NewBlockFileBytes(v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 50}))
	if err != nil {
		t.Fatal(err)
	}
	if bf.NumBlocks() < 10 {
		t.Fatalf("want many small blocks, got %d", bf.NumBlocks())
	}
	filters := []ScanFilter{
		{HasMachine: true, Machine: 7},
		{HasWindow: true, Window: sim.Window{Start: 10 * sim.Day, End: 11 * sim.Day}},
		{HasWindow: true, Overlap: true, Window: sim.Window{Start: 40 * sim.Day, End: 41 * sim.Day}},
		{HasMachine: true, Machine: 3, HasWindow: true, Window: sim.Window{Start: 0, End: 30 * sim.Day}},
	}
	for i, f := range filters {
		var got []Event
		decoded, skipped, err := bf.Scan(f, func(e Event) error {
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatalf("filter %d: %v", i, err)
		}
		if decoded+skipped != bf.NumBlocks() {
			t.Errorf("filter %d: decoded %d + skipped %d != %d blocks", i, decoded, skipped, bf.NumBlocks())
		}
		if skipped == 0 {
			t.Errorf("filter %d: summaries pruned nothing", i)
		}
		var want []Event
		for _, e := range tr.Events {
			if f.AdmitEvent(e) {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("filter %d: scan returned %d events, want %d", i, len(got), len(want))
		}
	}
}

// TestBlockFileSalvagesTruncation cuts a multi-block v2 file at every byte
// offset and reads each cut through the one reader. Inside the header the
// file does not open, with ErrTruncated; past it the file opens Truncated
// and CollectEvents yields exactly the events of the blocks complete before
// the cut; and ReadBlocks refuses every cut but the whole file with
// ErrTruncated. The whole file with two blocks broken fails with the
// earlier one's error. All of it holds serially and with the blocks split
// across four workers.
func TestBlockFileSalvagesTruncation(t *testing.T) {
	tr := randomTrace(44, 300)
	tr.Sort()
	full := v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 32})
	whole, err := NewBlockFileBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	if whole.NumBlocks() < 5 {
		t.Fatalf("want a multi-block file, got %d blocks", whole.NumBlocks())
	}
	broken := bytes.Clone(full)
	first := whole.NumBlocks() / 3
	for _, i := range []int{whole.NumBlocks() - 1, first} {
		broken[whole.Block(i).Offset] ^= 0xff // the block's tag
	}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() { salvageEveryCut(t, tr, full, whole) })
		bf, err := NewBlockFileBytes(broken)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("trace: block %d tag mismatch", first)
		atProcs(procs, func() { _, err = CollectEvents(bf) })
		if err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS %d: two broken blocks fail with %v, want %q", procs, err, want)
		}
	}
}

// atProcs runs fn with GOMAXPROCS at procs: 1 is the serial path, more
// splits the work across workers.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// salvageEveryCut is TestBlockFileSalvagesTruncation's walk over the cuts
// of full, tr's file, which opens as whole.
func salvageEveryCut(t *testing.T, tr *Trace, full []byte, whole *BlockFile) {
	t.Helper()
	headerLen := int(whole.Block(0).Offset)
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadBlocks(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d of %d: ReadBlocks %v, want ErrTruncated", cut, len(full), err)
		}
		bf, err := NewBlockFileBytes(full[:cut])
		if cut < headerLen {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d inside the %d-byte header: %v, want ErrTruncated", cut, headerLen, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !bf.Truncated() {
			t.Fatalf("cut %d: not reported truncated", cut)
		}
		want := 0
		for i := 0; i < whole.NumBlocks(); i++ {
			if m := whole.Block(i); m.Offset+m.StoredLen <= int64(cut) {
				want += m.Count
			}
		}
		got, err := CollectEvents(bf)
		if err != nil {
			t.Fatalf("cut %d: decoding salvage: %v", cut, err)
		}
		if len(got.Events) != want || !slices.Equal(got.Events, tr.Events[:want]) {
			t.Fatalf("cut %d: salvaged %d events, want the %d of the complete blocks", cut, len(got.Events), want)
		}
	}
	if got, err := ReadBlocks(bytes.NewReader(full)); err != nil || !tracesEqual(tr, got) {
		t.Errorf("the whole file: %v", err)
	}
}

// TestBlockWriterCutsAtMachineBoundaries pins where the writer cuts: at
// BlockSize events, and before a new machine once the block holds a quarter
// of that. So a block starts inside a machine's run only after a full one, a
// machine change inside a block comes before the quarter mark, no block but
// the last is cut short of it, a machine of a quarter block or more on the
// default layout is one block's decode of its own, and no layout has more
// blocks than events/(BlockSize/4) plus one per machine.
func TestBlockWriterCutsAtMachineBoundaries(t *testing.T) {
	traces := map[string]*Trace{"mixed": mixedTrace(57), "shard": benchTrace()}
	for name, tr := range traces {
		for _, blockSize := range []int{1, 7, 60, 400, DefaultBlockSize} {
			bf, err := NewBlockFileBytes(v2Bytes(t, tr, &BlockWriterOptions{BlockSize: blockSize}))
			if err != nil {
				t.Fatal(err)
			}
			quarter := blockSize / 4
			var prev Event
			var buf BlockBuf
			for i := 0; i < bf.NumBlocks(); i++ {
				evs, err := bf.DecodeBlock(i, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && evs[0].Machine == prev.Machine && bf.Block(i-1).Count != blockSize {
					t.Errorf("%s, block size %d: block %d starts inside machine %d's run after a block of %d events, not a full one",
						name, blockSize, i, prev.Machine, bf.Block(i-1).Count)
				}
				for j := 1; j < len(evs); j++ {
					if evs[j].Machine != evs[j-1].Machine && j >= quarter {
						t.Errorf("%s, block size %d: block %d changes machine at event %d, past the quarter mark %d", name, blockSize, i, j, quarter)
					}
				}
				if i < bf.NumBlocks()-1 && len(evs) < quarter {
					t.Errorf("%s, block size %d: block %d was cut at %d events, before the quarter mark %d", name, blockSize, i, len(evs), quarter)
				}
				prev = evs[len(evs)-1]
			}
			if limit := len(tr.Events)/max(quarter, 1) + tr.Machines; bf.NumBlocks() > limit {
				t.Errorf("%s, block size %d: %d blocks for %d events, more than %d", name, blockSize, bf.NumBlocks(), len(tr.Events), limit)
			}
		}
	}
	// A machine of a quarter block or more is one block's decode, its own.
	bf, err := NewBlockFileBytes(benchShard())
	if err != nil {
		t.Fatal(err)
	}
	for m := range bf.Header().Machines {
		ix := NewBlockIndex(bf)
		if n := ix.CountInWindow(MachineID(m), bf.Header().Span); n < DefaultBlockSize/4 {
			t.Fatalf("machine %d has %d events, fewer than the quarter block this check needs", m, n)
		}
		if ix.BlocksDecoded() != 1 || len(cachedBlocks(ix)) != 1 {
			t.Errorf("machine %d: first touch decoded %d blocks, want its one", m, ix.BlocksDecoded())
		}
		for i := range cachedBlocks(ix) {
			if b := bf.Block(i); b.MinMachine != MachineID(m) || b.MaxMachine != MachineID(m) {
				t.Errorf("machine %d: its block %d holds machines %d..%d", m, i, b.MinMachine, b.MaxMachine)
			}
		}
	}
}

// mixedTrace is randomTrace cut down to machines of very different sizes —
// 3 to about 500 events — so that at the block sizes the tests use, some
// machines share a block, some fill one alone and some straddle several.
func mixedTrace(seed int64) *Trace {
	tr := randomTrace(seed, 10000)
	tr.Sort()
	keep := []int{1 << 30, 8, 5, 150, 12, 40, 3, 250}
	seen := make([]int, tr.Machines)
	events := tr.Events[:0]
	for _, e := range tr.Events {
		if seen[e.Machine] < keep[int(e.Machine)%len(keep)] {
			seen[e.Machine]++
			events = append(events, e)
		}
	}
	tr.Events = events
	return tr
}

// TestBlockIndexMatchesIndex holds the index to one answer a query,
// whatever its source and however many goroutines share it. One index over
// the trace (BuildIndex) and one over each of two block layouts, 60 and 400
// events a block (NewBlockIndex), is shared by 1, 4 and 8 goroutines that
// each ask all 500 random queries from their own offset; every answer must
// be a serial BuildIndex's. At each layout small machines share blocks, some
// sit whole inside a block — indexed in place, as a sub-slice of the cached
// block — and others straddle blocks. A shared block index must decode each
// block the queries touched exactly once, at any number of readers, and
// leave every cached block as a fresh decode reads it; a trace index decodes
// nothing. make race and make bench-parallel run it under -race.
func TestBlockIndexMatchesIndex(t *testing.T) {
	tr := mixedTrace(55)
	qs := randomPointQueries(tr, 99, 500)
	want := askAll(tr.BuildIndex(), qs)
	for _, readers := range []int{1, 4, 8} {
		checkSharedIndex(t, nil, tr.BuildIndex(), qs, want, readers)
	}
	for _, blockSize := range []int{60, 400} {
		bf, err := NewBlockFileBytes(v2Bytes(t, tr, &BlockWriterOptions{BlockSize: blockSize}))
		if err != nil {
			t.Fatal(err)
		}
		// The layout is what the comment says it is.
		whole, straddling, shared := 0, 0, 0
		for m := 0; m < tr.Machines; m++ {
			n := 0
			for i := 0; i < bf.NumBlocks(); i++ {
				if bf.Block(i).hasMachine(MachineID(m)) {
					n++
				}
			}
			if n == 1 {
				whole++
			} else if n > 1 {
				straddling++
			}
		}
		for i := 0; i < bf.NumBlocks(); i++ {
			if bf.Block(i).MinMachine != bf.Block(i).MaxMachine {
				shared++
			}
		}
		if shared == 0 || whole == 0 || straddling == 0 {
			t.Fatalf("block size %d: %d machines sit in one block, %d straddle blocks, %d blocks are shared", blockSize, whole, straddling, shared)
		}
		for _, readers := range []int{1, 4, 8} {
			checkSharedIndex(t, bf, NewBlockIndex(bf), qs, want, readers)
		}
		one := NewBlockIndex(bf)
		one.CountInWindow(0, sim.Window{Start: 0, End: sim.Day})
		if one.BlocksDecoded() >= bf.NumBlocks() {
			t.Errorf("point query decoded all %d blocks; summaries pruned nothing", bf.NumBlocks())
		}
	}
}

// pointQuery is a machine and a window; pointAnswer is what the five point
// queries say of it, NextEventAfter and LastEndBefore at the window start.
type pointQuery struct {
	m MachineID
	w sim.Window
}

type pointAnswer struct {
	first   Event
	firstOK bool
	count   int
	any     bool
	next    Event
	nextOK  bool
	last    sim.Time
	lastOK  bool
}

func ask(ix *Index, q pointQuery) (a pointAnswer) {
	a.first, a.firstOK = ix.FirstOverlap(q.m, q.w)
	a.count = ix.CountInWindow(q.m, q.w)
	a.any = ix.AnyOverlap(q.m, q.w)
	a.next, a.nextOK = ix.NextEventAfter(q.m, q.w.Start)
	a.last, a.lastOK = ix.LastEndBefore(q.m, q.w.Start)
	return a
}

// askAll asks ix every query in order, on the calling goroutine.
func askAll(ix *Index, qs []pointQuery) []pointAnswer {
	out := make([]pointAnswer, len(qs))
	for i, q := range qs {
		out[i] = ask(ix, q)
	}
	return out
}

// randomPointQueries draws n queries on tr's machines: windows of up to 12
// hours starting in its first 92 days.
func randomPointQueries(tr *Trace, seed int64, n int) []pointQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]pointQuery, n)
	for i := range qs {
		start := sim.Time(rng.Int63n(int64(92 * sim.Day)))
		qs[i] = pointQuery{
			m: MachineID(rng.Intn(tr.Machines)),
			w: sim.Window{Start: start, End: start + sim.Time(rng.Int63n(int64(12*time.Hour)))},
		}
	}
	return qs
}

// cachedBlocks returns the blocks ix holds decoded, by block number: those
// whose decode ran (no test here decodes an empty or a broken block). No
// query may be running.
func cachedBlocks(ix *Index) map[int][]Event {
	out := make(map[int][]Event)
	for i := range ix.blocks {
		if c := &ix.blocks[i]; c.events != nil {
			out[i] = c.events
		}
	}
	return out
}

// checkSharedIndex has readers goroutines share ix, each asking every query
// of qs from its own offset, and holds every answer to want. Then, over a
// block file (bf non-nil), it holds ix to one decode per distinct block the
// queries touched and each cached block to a fresh decode of it; over a
// trace, to no decode.
func checkSharedIndex(t *testing.T, bf *BlockFile, ix *Index, qs []pointQuery, want []pointAnswer, readers int) {
	t.Helper()
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range qs {
				i := (k + r*len(qs)/readers) % len(qs)
				if got := ask(ix, qs[i]); got != want[i] {
					t.Errorf("%d readers: machine %d, window %v: got %+v, want %+v", readers, qs[i].m, qs[i].w, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ix.Err(); err != nil {
		t.Fatal(err)
	}
	touched := make(map[int]bool)
	for _, q := range qs {
		for b := 0; bf != nil && b < bf.NumBlocks(); b++ {
			if bf.Block(b).hasMachine(q.m) {
				touched[b] = true
			}
		}
	}
	if ix.BlocksDecoded() != len(touched) {
		t.Errorf("%d readers: decoded %d blocks for %d distinct blocks touched", readers, ix.BlocksDecoded(), len(touched))
	}
	if bf == nil {
		return
	}
	cached := cachedBlocks(ix)
	if len(cached) != len(touched) {
		t.Errorf("%d readers: cached %d blocks for %d distinct blocks touched", readers, len(cached), len(touched))
	}
	// The layouts alias the cached blocks; nothing may have written
	// through them.
	for b, evs := range cached {
		fresh, err := bf.DecodeBlock(b, &BlockBuf{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(evs, fresh) {
			t.Errorf("cached block %d no longer reads as a fresh decode of it", b)
		}
	}
}

// TestIndexSlotsIgnoreHeaderMachines: a header's machine count is outside
// input, so an index sizes nothing from it. Built and asked about every
// machine, and about the last one the header names, an index over a file
// whose header claims 2²⁰ machines — the most a reader opens; 2⁴⁰ is
// refused at open (TestForgedHeaderMachinesAreRefused) — and one over a
// trace that claims 2⁴⁰ must allocate no more than over the honest count.
// What is counted is the index's own allocation: its blocks are decoded
// between the build and the queries, outside the count, since a decode
// borrows pooled scratch and the race detector's sync.Pool drops a put at
// random, so a decode may allocate a fresh inflater or not.
func TestIndexSlotsIgnoreHeaderMachines(t *testing.T) {
	honest := mixedTrace(60)
	events := make([]Event, 0, len(honest.Events))
	allocated := func(claims int, build func() *Index) uint64 {
		var least uint64 = math.MaxUint64
		for range 3 {
			var before, built, decoded, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ix := build()
			runtime.ReadMemStats(&built)
			if _, err := ix.AppendEvents(events[:0], ScanFilter{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&decoded)
			for m := range honest.Machines {
				ix.CountInWindow(MachineID(m), honest.Span)
			}
			ix.CountInWindow(MachineID(claims-1), honest.Span)
			runtime.ReadMemStats(&after)
			least = min(least, built.TotalAlloc-before.TotalAlloc+after.TotalAlloc-decoded.TotalAlloc)
		}
		return least
	}
	for _, claims := range []int{maxMachines, 1 << 40} {
		forged := honest.Clone()
		forged.Machines = claims
		want := allocated(honest.Machines, honest.BuildIndex)
		if got := allocated(claims, forged.BuildIndex); got > want {
			t.Errorf("a trace claiming %d machines: its index allocated %d bytes, %d over the honest trace's", claims, got, got-want)
		}
		if claims > maxMachines {
			continue
		}
		honestFile, err := NewBlockFileBytes(v2Bytes(t, honest, &BlockWriterOptions{BlockSize: 60}))
		if err != nil {
			t.Fatal(err)
		}
		forgedFile, err := NewBlockFileBytes(v2Bytes(t, forged, &BlockWriterOptions{BlockSize: 60}))
		if err != nil || forgedFile.Header().Machines != claims {
			t.Fatalf("the forgery did not open on its machine count: %v", err)
		}
		want = allocated(honest.Machines, func() *Index { return NewBlockIndex(honestFile) })
		if got := allocated(claims, func() *Index { return NewBlockIndex(forgedFile) }); got > want {
			t.Errorf("a file claiming %d machines: its index allocated %d bytes, %d over the honest file's", claims, got, got-want)
		}
	}
}

// TestForgedSpanRowsAreCapped: a header's span is outside input, and every
// machine's hourly row is sized from it. A file claiming [-2⁶³, 2⁶³) ns must
// build no row past maxRowHours, in NewBlockIndex or in BuildIndex over the
// trace it holds, must answer every query as the honest trace's Index (which
// has rows) does, and must not cost more than its rows at the cap a machine.
func TestForgedSpanRowsAreCapped(t *testing.T) {
	all := randomTrace(56, 2000)
	honest := New(all.Span, all.Calendar, 3)
	for _, e := range all.Events {
		if e.Machine < 3 {
			honest.Add(e)
		}
	}
	honest.Sort()
	ref := honest.BuildIndex()
	forged := honest.Clone()
	forged.Span = sim.Window{Start: math.MinInt64, End: math.MaxInt64}
	bf, err := NewBlockFileBytes(v2Bytes(t, forged, &BlockWriterOptions{BlockSize: 60}))
	if err != nil || bf.Header().Span != forged.Span {
		t.Fatalf("the forgery did not open on its span: %v", err)
	}

	// The cap's bound — two int32 rows a machine — plus 1 MiB for what the
	// same calls cost over the ≈ 300 honest events.
	limit := uint64(honest.Machines)*2*4*maxRowHours + 1<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fix := forged.BuildIndex()
	bix := NewBlockIndex(bf)
	for m := range honest.Machines {
		fix.CountInWindow(MachineID(m), honest.Span)
		bix.CountInWindow(MachineID(m), honest.Span)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("indexing the forged span allocated %d bytes, more than the %d the cap allows", got, limit)
	}
	for m := range honest.Machines {
		if fix.machine(MachineID(m)).hours != nil || bix.machine(MachineID(m)).hours != nil {
			t.Fatalf("machine %d has an hourly row over the forged span", m)
		}
		if ref.machine(MachineID(m)).hours == nil {
			t.Fatalf("machine %d has no hourly row over the honest span", m)
		}
	}

	qs := randomPointQueries(honest, 57, 500)
	checkSharedIndex(t, bf, NewBlockIndex(bf), qs, askAll(ref, qs), 4)
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 2000; i++ {
		m := MachineID(rng.Intn(honest.Machines))
		start := sim.Time(rng.Int63n(int64(93 * sim.Day)))
		w := sim.Window{Start: start, End: start + sim.Time(rng.Int63n(int64(6*time.Hour)))}
		gotE, gotOK := fix.FirstOverlap(m, w)
		wantE, wantOK := ref.FirstOverlap(m, w)
		gotN, _ := fix.NextEventAfter(m, start)
		wantN, _ := ref.NextEventAfter(m, start)
		gotL, _ := fix.LastEndBefore(m, start)
		wantL, _ := ref.LastEndBefore(m, start)
		if gotE != wantE || gotOK != wantOK || gotN != wantN || gotL != wantL ||
			fix.CountInWindow(m, w) != ref.CountInWindow(m, w) || fix.AnyOverlap(m, w) != ref.AnyOverlap(m, w) {
			t.Fatalf("machine %d window %v: the forged span's Index answers differently", m, w)
		}
	}
}

// analyzeSerial is the reference: one full-range analyzer fed the sorted
// events.
func analyzeSerial(t *testing.T, tr *Trace) *StreamAnalyzer {
	t.Helper()
	a := NewStreamAnalyzer(tr.Span, tr.Calendar, tr.Machines)
	for _, e := range tr.Events {
		if err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	a.Finish()
	return a
}

// requireAnalyzersEqual compares every analyzer query surface exactly — the
// bit-identical guarantee the parallel engine makes.
func requireAnalyzersEqual(t *testing.T, want, got *StreamAnalyzer) {
	t.Helper()
	if w, g := want.Table2(), got.Table2(); w != g {
		t.Errorf("Table2: got %+v, want %+v", g, w)
	}
	if w, g := want.CountByCause(), got.CountByCause(); !reflect.DeepEqual(w, g) {
		t.Errorf("CountByCause differs")
	}
	if w, g := want.Events(), got.Events(); w != g {
		t.Errorf("Events: got %d, want %d", g, w)
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if w, g := want.IntervalLengths(dt), got.IntervalLengths(dt); !reflect.DeepEqual(w, g) {
			t.Errorf("%v IntervalLengths differ: %d vs %d samples", dt, len(w), len(g))
		}
		if w, g := want.HourlyOccurrences(dt), got.HourlyOccurrences(dt); !reflect.DeepEqual(w, g) {
			t.Errorf("%v HourlyOccurrences differ", dt)
		}
	}
}

func TestAnalyzeBlockFilesMatchesSerial(t *testing.T) {
	tr := randomTrace(66, 4000)
	tr.Sort()
	want := analyzeSerial(t, tr)
	single := v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 128})
	for _, workers := range []int{1, 2, 4, 7} {
		bf, err := NewBlockFileBytes(single)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeBlockFiles([]*BlockFile{bf}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireAnalyzersEqual(t, want, got)
	}
}

// shardV2Files encodes tr as per-machine-range v2 shard files with
// coverage, like the sharded testbed writes.
func shardV2Files(t *testing.T, tr *Trace, bounds []MachineID) []*BlockFile {
	t.Helper()
	var files []*BlockFile
	lo := MachineID(0)
	for _, hi := range bounds {
		var buf bytes.Buffer
		bw, err := NewBlockWriter(&buf, Header{Span: tr.Span, Calendar: tr.Calendar, Machines: tr.Machines}, &BlockWriterOptions{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		bw.SetCoverage(lo, hi)
		for _, e := range tr.Events {
			if e.Machine >= lo && e.Machine < hi {
				if err := bw.Write(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		bf, err := NewBlockFileBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, bf)
		lo = hi
	}
	return files
}

func TestAnalyzeBlockFilesShardedMatchesSerial(t *testing.T) {
	tr := randomTrace(77, 2500)
	tr.Sort()
	want := analyzeSerial(t, tr)
	// Uneven shards, including one covering only idle machines at the end
	// of an earlier shard's range.
	files := shardV2Files(t, tr, []MachineID{6, 7, 15, 20})
	got, err := AnalyzeBlockFiles(files, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireAnalyzersEqual(t, want, got)
}

// TestAnalyzeBlockFilesCoverageShortfall pins the serial-equivalence of the
// widening rule: shards that stop short of the fleet leave the trailing
// machines idle, exactly as a serial pass over the same shards would.
func TestAnalyzeBlockFilesCoverageShortfall(t *testing.T) {
	tr := randomTrace(88, 800)
	tr.Sort()
	keep := tr.Filter(func(e Event) bool { return e.Machine < 12 })
	want := analyzeSerial(t, keep)
	files := shardV2Files(t, keep, []MachineID{12}) // coverage [0, 12) of a 20-machine fleet
	got, err := AnalyzeBlockFiles(files, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireAnalyzersEqual(t, want, got)
}

// TestMergeFromAssociativity pins the property the worker pool relies on:
// any grouping of adjacent partial merges produces the identical analyzer.
func TestMergeFromAssociativity(t *testing.T) {
	tr := randomTrace(99, 1500)
	tr.Sort()
	bounds := []MachineID{0, 4, 9, 13, 20}
	makePartials := func() []*StreamAnalyzer {
		var out []*StreamAnalyzer
		for i := 0; i+1 < len(bounds); i++ {
			a := NewStreamAnalyzerRange(tr.Span, tr.Calendar, tr.Machines, bounds[i], bounds[i+1])
			for _, e := range tr.Events {
				if e.Machine >= bounds[i] && e.Machine < bounds[i+1] {
					if err := a.Observe(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			a.Finish()
			out = append(out, a)
		}
		return out
	}

	// Left fold: ((p0+p1)+p2)+p3.
	left := makePartials()
	acc := left[0]
	for _, p := range left[1:] {
		if err := acc.MergeFrom(p); err != nil {
			t.Fatal(err)
		}
	}
	// Pairwise: (p0+p1)+(p2+p3).
	right := makePartials()
	if err := right[0].MergeFrom(right[1]); err != nil {
		t.Fatal(err)
	}
	if err := right[2].MergeFrom(right[3]); err != nil {
		t.Fatal(err)
	}
	if err := right[0].MergeFrom(right[2]); err != nil {
		t.Fatal(err)
	}

	want := analyzeSerial(t, tr)
	requireAnalyzersEqual(t, want, acc)
	requireAnalyzersEqual(t, want, right[0])
}

func TestMergeFromRejectsMisuse(t *testing.T) {
	span := sim.Window{Start: 0, End: 2 * sim.Day}
	mk := func(lo, hi MachineID) *StreamAnalyzer {
		a := NewStreamAnalyzerRange(span, sim.Calendar{}, 10, lo, hi)
		a.Finish()
		return a
	}
	a, b := mk(0, 5), mk(5, 10)
	unfinished := NewStreamAnalyzerRange(span, sim.Calendar{}, 10, 5, 10)
	if err := a.MergeFrom(unfinished); err == nil {
		t.Error("merged an unfinished partial")
	}
	if err := b.MergeFrom(mk(0, 5)); err == nil {
		t.Error("merged non-adjacent ranges")
	}
	other := NewStreamAnalyzerRange(sim.Window{Start: 0, End: 3 * sim.Day}, sim.Calendar{}, 10, 5, 10)
	other.Finish()
	if err := a.MergeFrom(other); err == nil {
		t.Error("merged mismatched spans")
	}
	if err := a.MergeFrom(b); err != nil {
		t.Errorf("legitimate merge rejected: %v", err)
	}
}

// TestWriteBlocksRejectsUnsorted pins the writer's ordering contract.
func TestWriteBlocksRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, Header{Span: sim.Window{End: sim.Day}, Machines: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(Event{Machine: 2, Start: 5, End: 9, State: availability.S3}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(Event{Machine: 1, Start: 1, End: 2, State: availability.S3}); err == nil {
		t.Error("out-of-order machine accepted")
	}
}
