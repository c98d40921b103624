package ishare

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// decodeRequest is the fuzz targets' entry to the request decode: raw bytes
// through readRequest, the read-and-decode function serveConn runs (same
// parser, same fallback, same size limit), so they exercise what production
// executes: malformed or truncated input must return an error, never panic,
// and allocation is bounded by maxBytes regardless of input.
func decodeRequest(data []byte, maxBytes int64) (Request, error) {
	if maxBytes <= 0 {
		maxBytes = Limits{}.withDefaults().MaxMessageBytes
	}
	req, exceeded, err := readRequest(bytes.NewReader(data), maxBytes)
	if exceeded {
		return Request{}, fmt.Errorf("ishare: request exceeds %d bytes", maxBytes)
	}
	return req, err
}

// decodeResponse is the same for responses: decodeBounded, the read path of
// roundTrip.
func decodeResponse(data []byte, maxBytes int64) (Response, error) {
	if maxBytes <= 0 {
		maxBytes = Limits{}.withDefaults().MaxMessageBytes
	}
	var resp Response
	if exceeded, err := decodeBounded(bytes.NewReader(data), maxBytes, &resp); exceeded {
		return Response{}, fmt.Errorf("ishare: response exceeds %d bytes", maxBytes)
	} else if err != nil {
		return Response{}, err
	}
	return resp, nil
}

// jsonDecodeRequest is the request decode as it was before the wire codec
// — encoding/json alone behind the size limit — kept as the oracle the
// codec is compared against.
func jsonDecodeRequest(r io.Reader, maxBytes int64) (Request, error) {
	lr := &io.LimitedReader{R: r, N: maxBytes}
	var req Request
	if err := json.NewDecoder(bufio.NewReader(lr)).Decode(&req); err != nil {
		if lr.N <= 0 {
			return Request{}, fmt.Errorf("ishare: request exceeds %d bytes", maxBytes)
		}
		return Request{}, err
	}
	return req, nil
}

// jsonEncodeRequest is what json.Encoder writes for req.
func jsonEncodeRequest(t testing.TB, req Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkReader hands data out at most chunk bytes a Read, like a message
// arriving in TCP segments, and counts what was taken from it.
type chunkReader struct {
	data  []byte
	chunk int
	read  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.read == len(c.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data[c.read:])
	c.read += n
	return n, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstJSON holds readRequest (parser plus fallback) to the oracle
// on one input: same Request, same error text, whole or in segments, and
// never a byte taken past the limit.
func checkAgainstJSON(t *testing.T, data []byte, lim int64, chunk int) {
	t.Helper()
	want, wantErr := jsonDecodeRequest(bytes.NewReader(data), lim)
	for _, c := range []int{len(data) + 1, chunk} {
		src := &chunkReader{data: data, chunk: max(c, 1)}
		got, exceeded, err := readRequest(src, lim)
		if exceeded {
			err = fmt.Errorf("ishare: request exceeds %d bytes", lim)
		}
		// Which of two errors a message both over the limit and malformed
		// gets depends on read sizes, over TCP as well; the oracle's is
		// only exact for whole reads.
		if c == chunk && wantErr != nil && err != nil && int64(len(data)) >= lim {
			continue
		}
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d of %q:\n got %+v, %v\nwant %+v, %v", c, data, got, err, want, wantErr)
		}
		if int64(src.read) > lim {
			t.Fatalf("read %d bytes past the %d limit", src.read, lim)
		}
	}
	// The parser alone: whatever it accepts is encoding/json's value.
	var p requestParser
	if p.parse(data) == wireDone {
		var j Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&j); err != nil || !reflect.DeepEqual(p.req, j) {
			t.Fatalf("parser accepted %q as %+v; encoding/json: %+v, %v", data, p.req, j, err)
		}
	}
}

// checkEncode holds appendRequest to json.Encoder on one Request.
func checkEncode(t *testing.T, req Request) {
	t.Helper()
	got, ok := appendRequest(nil, &req)
	if !ok {
		return
	}
	if want := jsonEncodeRequest(t, req); !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n%s\njson.Encoder writes\n%s", got, want)
	}
}

// FuzzWireCodec pins the hand-written codec to encoding/json in both
// directions: arbitrary bytes decode to exactly the oracle's Request or
// error, whole or segmented, within the size limit; an arbitrary Request
// encodes to exactly json.Encoder's bytes or is declined.
func FuzzWireCodec(f *testing.F) {
	for _, s := range []string{
		`{"op":"register_batch","digests":[{"name":"m001","addr":"10.0.0.1:70","state":"S1(full)","load":0.1,"gen":1,"unix_ms":1700000000000},{"name":"m002","state":"S2(lowest-priority)"}]}` + "\n",
		`{"op":"heartbeat_batch","digests":[{"name":"m001","gen":2,"unix_ms":1700000000555}]}` + "\n",
		`{"op":"forecast","names":["m001","m002"],"horizon_ms":3600000,"trace":"t-1"}` + "\n",
		`{"op":"list","limit":16}`, `{"op":"heartbeat","name":"m1","state":"S3","load":1e-7,"gen":-0}`,
		`{"op":"submit","job":{"id":"j-1","cpu_seconds":2.5}}`, `{"OP":"list"}`, `{"op":"a","op":"b"}`,
		`{"op":"x","load":1e309}`, `{"op":"x","gen":1.5}`, `{"op":"n\u00e9"}`, `{"op":null}`, ` { "digests" : [ ] } x`,
		`{"digests":[{"name":"a"},]}`, `{"names":["a",]}`, `{"op":"x",}`, `{"gen":01}`, `{"load":-}`, `{`, `[]`, "",
	} {
		f.Add([]byte(s), "m001", "S1(full)", 0.25, int64(3), uint8(7))
	}
	f.Add([]byte(`{}`), "a<b", "é", math.Inf(1), int64(-1), uint8(1))
	f.Add([]byte(`{}`), `q"\`, "", 1e-7, int64(0), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, name, state string, load float64, gen int64, n uint8) {
		const lim = 1 << 12
		checkAgainstJSON(t, data, lim, int(n))

		req := Request{Op: state, Name: name, State: state, Load: load, Gen: gen, HorizonMS: gen, Limit: int(n), Trace: name}
		for i := 0; i < int(n%5); i++ {
			req.Digests = append(req.Digests, NodeDigest{Name: name, Addr: state, State: state, Load: load * float64(i), Gen: gen, UnixMS: int64(i)})
			req.Names = append(req.Names, name)
		}
		checkEncode(t, req)
		// What the encoder writes, the parser reads back.
		if enc, ok := appendRequest(nil, &req); ok {
			checkAgainstJSON(t, enc, 1<<16, int(n))
		}
	})
}

// TestWireEdgeCases: each input on or outside the codec's subset gets
// exactly the result or the error text encoding/json alone gave.
func TestWireEdgeCases(t *testing.T) {
	big := jsonEncodeRequest(t, Request{Op: "heartbeat_batch", Digests: benchDigests(40)})
	cases := []struct {
		name, in string
		lim      int64
		fast     bool // the parser, not the fallback, must have taken it
	}{
		{"plain batch", string(big), 0, true},
		{"whitespace", " {\t\"op\" : \"list\" ,\r\n \"limit\" : 4 } \n", 0, true},
		{"empty arrays", `{"op":"gossip","digests":[],"names":[]}`, 0, true},
		{"empty object", `{}`, 0, true},
		{"trailing garbage", `{"op":"list"} trailing`, 0, true},
		{"second value", `{"op":"list"}{"op":"other"}`, 0, true},
		{"minus zero", `{"op":"x","gen":-0,"load":-0}`, 0, true},
		{"large exponent", `{"op":"x","load":1e21}`, 0, true},
		{"small exponent", `{"op":"x","load":1e-7}`, 0, true},
		{"capital exponent", `{"op":"x","load":2.5E+3}`, 0, true},
		{"float overflow", `{"op":"x","load":1e309}`, 0, false},
		{"int overflow", `{"op":"x","gen":9223372036854775808}`, 0, false},
		{"fraction for int", `{"op":"x","gen":1.0}`, 0, false},
		{"leading zero", `{"op":"x","gen":01}`, 0, false},
		{"bare minus", `{"op":"x","load":-}`, 0, false},
		{"escaped name", `{"op":"register","name":"a\"b","addr":"x"}`, 0, false},
		{"unicode escape", `{"op":"register","name":"caf\u00e9"}`, 0, false},
		{"non-ascii name", `{"op":"register","name":"café"}`, 0, false},
		{"invalid utf-8", "{\"op\":\"register\",\"name\":\"a\xffb\"}", 0, false},
		{"control byte", "{\"op\":\"a\x01b\"}", 0, false},
		{"upper-case key", `{"OP":"list","Limit":3}`, 0, false},
		{"repeated scalar", `{"op":"a","gen":4,"op":"b","gen":5}`, 0, true},
		{"repeated digest scalar", `{"digests":[{"name":"a","gen":5,"name":"b"}]}`, 0, true},
		{"repeated scalar, then null", `{"op":"a","op":null}`, 0, false},
		{"repeated array", `{"digests":[{"name":"a","gen":5}],"digests":[{"name":"b"}]}`, 0, false},
		{"repeated empty array", `{"names":[],"names":["a"]}`, 0, false},
		{"unknown key", `{"op":"list","extra":{"a":[1,2]}}`, 0, false},
		{"unknown digest key", `{"digests":[{"name":"a","zone":"z"}]}`, 0, false},
		{"null string", `{"op":null}`, 0, false},
		{"null array", `{"op":"x","digests":null}`, 0, false},
		{"null digest", `{"digests":[null]}`, 0, false},
		{"wrong type", `{"op":7}`, 0, false},
		{"submit", `{"op":"submit","job":{"name":"j","cpu_seconds":2.5,"rss_mb":64}}`, 0, false},
		{"sethost", `{"op":"sethost","host_load":0.5,"host_mem_mb":128}`, 0, false},
		{"trailing comma", `{"op":"list",}`, 0, false},
		{"trailing comma in array", `{"names":["a",]}`, 0, false},
		{"missing colon", `{"op" "list"}`, 0, false},
		{"not an object", `["op"]`, 0, false},
		{"not json", `this is not json`, 0, false},
		{"truncated", `{"op":"heartbeat_batch","digests":[{"name":"a"`, 0, false},
		{"empty", ``, 0, false},
		{"at the limit", string(big), int64(len(big)) - 1, true},
		{"one byte over the limit", string(big), int64(len(big)) - 2, false},
		{"long string", `{"op":"` + strings.Repeat("a", 2*wireMaxPending) + `"}`, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lim := tc.lim
			if lim == 0 {
				lim = 1 << 16
			}
			for chunk := 1; chunk <= 64; chunk *= 4 {
				checkAgainstJSON(t, []byte(tc.in), lim, chunk)
			}
			var p requestParser // sees what readRequest would show it
			if got := p.parse([]byte(tc.in)[:min(int64(len(tc.in)), lim)]) == wireDone; got != tc.fast {
				t.Errorf("parser accepted = %v, want %v", got, tc.fast)
			}
		})
	}
	if _, err := decodeRequest(big, int64(len(big))-2); err == nil || err.Error() != fmt.Sprintf("ishare: request exceeds %d bytes", len(big)-2) {
		t.Errorf("over the limit: %v", err)
	}
}

// TestWireEncodeGolden: the requests the control plane sends leave the
// client byte-for-byte as json.Encoder wrote them, and what it cannot
// write that way it declines.
func TestWireEncodeGolden(t *testing.T) {
	batch := benchDigests(1000)
	for i := range batch {
		batch[i].Load = float64(i) / 997
		batch[i].State = fmt.Sprintf("S%d", i%5+1)
	}
	batch[1].Load, batch[2].Load, batch[3].Load, batch[4].Load = 1e-7, 1e21, 123456789e-17, -2.5e-9
	batch[5] = NodeDigest{} // name is not omitempty
	for _, req := range []Request{
		{Op: "heartbeat_batch", Digests: batch},
		{Op: "register_batch", Digests: batch[:1], Trace: "job-1"},
		{Op: "register", Name: "n", Addr: "127.0.0.1:9", State: "S1(full)", Load: 0.5, Gen: 7},
		{Op: "gossip", Digests: []NodeDigest{}},
		{Op: "forecast", Names: []string{"a", "", "c"}, HorizonMS: 3600000},
		{Op: "list", Limit: 32},
		{Op: "list", Limit: -1, Gen: math.MinInt64, Load: math.SmallestNonzeroFloat64},
		{},
	} {
		got, ok := appendRequest(nil, &req)
		if !ok {
			t.Fatalf("encoder declined %q", req.Op)
		}
		if want := jsonEncodeRequest(t, req); !bytes.Equal(got, want) {
			t.Fatalf("%q: encoder wrote\n%.300s\njson.Encoder writes\n%.300s", req.Op, got, want)
		}
	}
	for _, req := range []Request{
		{Op: "submit", Job: &JobSpec{Name: "j"}},
		{Op: "sethost", HostLoad: 0.5},
		{Op: "sethost", HostMemMB: 64},
		{Op: "register", Name: `a"b`},
		{Op: "register", Name: "a<b"},
		{Op: "register", Name: "café"},
		{Op: "register", Name: "tab\t"},
		{Op: "heartbeat", Load: math.NaN()},
		{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "a", Load: math.Inf(-1)}}},
		{Op: "forecast", Names: []string{"a&b"}},
	} {
		if _, ok := appendRequest(nil, &req); ok {
			t.Errorf("encoder took %+v", req)
		}
	}
}

// TestWireDecodeAllocs: decoding a 1000-digest heartbeat batch allocates
// one string per digest (its name) plus a constant — the states are
// interned and the slice is sized once. (The constant leaves room for the
// pooled buffer being regrown: the race detector makes sync.Pool drop it.)
func TestWireDecodeAllocs(t *testing.T) {
	ds := benchDigests(1000)
	for i := range ds {
		ds[i].Addr = ""
	}
	data := jsonEncodeRequest(t, Request{Op: "heartbeat_batch", Digests: ds})
	allocs := testing.AllocsPerRun(20, func() {
		req, err := decodeRequest(data, 0)
		if err != nil || len(req.Digests) != len(ds) {
			t.Fatalf("decode: %d digests, %v", len(req.Digests), err)
		}
	})
	if limit := float64(len(ds) + 16); allocs > limit {
		t.Errorf("%.0f allocs for %d digests, want <= %.0f", allocs, len(ds), limit)
	}
}

// wireExchange writes the segments of one request to a registry, pausing
// between them so each leaves in a TCP segment of its own, and returns the
// response and how long it took to arrive after the last write.
func wireExchange(t *testing.T, addr string, segments ...string) (Response, time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, s := range segments {
		if i > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	sent := time.Now()
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response: %v", err)
	}
	return resp, time.Since(sent)
}

func TestServeConnWireBoundaries(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	reg2, err := NewRegistryWithLimits("127.0.0.1:0", time.Minute, Limits{MaxMessageBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	batch := string(jsonEncodeRequest(t, Request{Op: "register_batch", Digests: benchDigests(50)}))

	// A complete value with no newline is answered when it completes, not
	// when the 10 s read deadline expires — by the parser and by the
	// fallback alike.
	for _, in := range []string{`{"op":"list","limit":3}`, `{"op":"list","extra":1}`, `{"op":"list"} junk`, `{"op":01`} {
		if resp, took := wireExchange(t, reg.Addr(), in); took > 2*time.Second {
			t.Errorf("%q answered after %v (%+v)", in, took, resp)
		}
	}

	// A batch arriving in several segments, cut inside a digest, a key and
	// a number.
	cuts := []int{len(batch) / 3, len(batch)/3 + 7, len(batch) / 2, len(batch) - 1}
	segs, prev := []string{}, 0
	for _, c := range cuts {
		segs, prev = append(segs, batch[prev:c]), c
	}
	if resp, _ := wireExchange(t, reg.Addr(), append(segs, batch[prev:])...); !resp.OK {
		t.Fatalf("segmented batch refused: %+v", resp)
	}
	nodes, err := (&Client{RegistryAddr: reg.Addr()}).List(ctx)
	if err != nil || len(nodes) != 50 {
		t.Fatalf("segmented batch registered %d nodes, %v", len(nodes), err)
	}

	// Over the limit, whole and segmented.
	for _, segs := range [][]string{{batch}, {batch[:100], batch[100:]}} {
		if resp, _ := wireExchange(t, reg2.Addr(), segs...); resp.OK || resp.Error != "request exceeds 256 bytes" {
			t.Errorf("over the limit: %+v", resp)
		}
	}
	if resp, _ := wireExchange(t, reg2.Addr(), "not json\n"); resp.OK || !strings.HasPrefix(resp.Error, "bad request: invalid character") {
		t.Errorf("malformed: %+v", resp)
	}
}

// TestShedDoesNotDecode: an overloaded shard answers a 1000-digest batch
// with the structured retry-after response having neither run nor decoded
// it — bytes that are not a request at all get the same answer.
func TestShedDoesNotDecode(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{
		TTL: time.Minute, MaxInflight: 1, MaxQueue: 1,
		QueueWait: time.Millisecond, RetryAfter: 77 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.inflight <- struct{}{}
	r.queue <- struct{}{}
	batch := jsonEncodeRequest(t, Request{Op: "register_batch", Digests: benchDigests(1000)})
	garbage := bytes.Repeat([]byte("x"), len(batch)-1)
	for _, in := range [][]byte{batch, append(garbage, '\n')} {
		resp, _ := wireExchange(t, r.Addr(), string(in))
		if resp.OK || resp.RetryAfterMS != 77 || !strings.Contains(resp.Error, "overloaded") {
			t.Fatalf("shed response: %+v", resp)
		}
	}
	if got := r.Sheds(); got != 2 {
		t.Errorf("sheds = %d, want 2", got)
	}
	<-r.inflight
	<-r.queue
	if resp := r.handle(Request{Op: "list"}); len(resp.Nodes) != 0 {
		t.Errorf("a shed batch was executed: %d nodes registered", len(resp.Nodes))
	}
}

var wireSink int

// BenchmarkWireHeartbeatBatch measures the wire layer where it lives: one
// 1000-digest heartbeat batch through encoding/json and through the codec,
// each way.
func BenchmarkWireHeartbeatBatch(b *testing.B) {
	ds := benchDigests(1000)
	for i := range ds {
		ds[i].Addr, ds[i].Load = "", float64(i)/997
	}
	req := Request{Op: "heartbeat_batch", Digests: ds}
	data := jsonEncodeRequest(b, req)
	run := func(name string, op func() int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				wireSink += op()
			}
		})
	}
	var buf bytes.Buffer
	run("encode/json", func() int {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(req); err != nil {
			b.Fatal(err)
		}
		return buf.Len()
	})
	var out []byte
	run("encode/wire", func() int {
		var ok bool
		if out, ok = appendRequest(out[:0], &req); !ok {
			b.Fatal("declined")
		}
		return len(out)
	})
	run("decode/json", func() int {
		got, err := jsonDecodeRequest(bytes.NewReader(data), 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		return len(got.Digests)
	})
	run("decode/wire", func() int {
		got, err := decodeRequest(data, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		return len(got.Digests)
	})
}
