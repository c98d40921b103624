package ishare

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// decodeMessage is the fuzz targets' entry to the decode of either message
// type: raw bytes through readMessage, the read-and-decode function
// serveConn and roundTrip run (same parser, same fallback, same size limit),
// so they exercise what production executes: malformed or truncated input
// must return an error, never panic, and allocation is bounded by maxBytes
// regardless of input.
func decodeMessage[M Request | Response, P wirePtr[M]](data []byte, maxBytes int64) (msg M, err error) {
	if maxBytes <= 0 {
		maxBytes = Limits{}.withDefaults().MaxMessageBytes
	}
	if exceeded, err := readMessage(&msgReader{r: bytes.NewReader(data)}, maxBytes, P(&msg), nil); exceeded {
		return *new(M), fmt.Errorf("ishare: message exceeds %d bytes", maxBytes)
	} else if err != nil {
		return *new(M), err
	}
	return msg, nil
}

func decodeRequest(data []byte, maxBytes int64) (Request, error) {
	return decodeMessage[Request](data, maxBytes)
}

func decodeResponse(data []byte, maxBytes int64) (Response, error) {
	return decodeMessage[Response](data, maxBytes)
}

// jsonDecode is the decode as it was before the wire codec — encoding/json
// alone behind the size limit — kept as the oracle the codec is compared
// against.
func jsonDecode[M Request | Response](r io.Reader, maxBytes int64) (msg M, err error) {
	lr := &io.LimitedReader{R: r, N: maxBytes}
	if err := json.NewDecoder(bufio.NewReader(lr)).Decode(&msg); err != nil {
		if lr.N <= 0 {
			return *new(M), fmt.Errorf("ishare: message exceeds %d bytes", maxBytes)
		}
		return *new(M), err
	}
	return msg, nil
}

// jsonEncode is what json.Encoder writes for msg.
func jsonEncode(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireEncode is the codec's half of writeMessage.
func wireEncode(msg any) ([]byte, bool) {
	if req, ok := msg.(*Request); ok {
		return appendRequest(nil, req)
	}
	return appendResponse(nil, msg.(*Response))
}

// listReply and forecastReply are the replies a place op waits for: n
// ranked nodes, n forecasts.
func listReply(n int) *Response {
	resp := &Response{OK: true}
	for _, d := range benchDigests(n) {
		resp.Nodes = append(resp.Nodes, NodeInfo{Name: d.Name, Addr: d.Addr, Alive: true,
			LastSeenMS: d.UnixMS, State: d.State, Load: float64(len(resp.Nodes)) / 997, Gen: d.Gen})
	}
	return resp
}

func forecastReply(n int) *Response {
	resp := &Response{OK: true}
	for i, d := range benchDigests(n) {
		resp.Forecasts = append(resp.Forecasts, ForecastInfo{Name: d.Name, Known: true,
			Survival: 1 - float64(i)/13, Samples: 12 + i, State: d.State, Gen: d.Gen, UnixMS: d.UnixMS})
	}
	return resp
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

// dirtyDigests is a spare array as a served request would leave it if
// nothing zeroed it: every slot holds another batch's digest.
var dirtyDigests = func() []NodeDigest {
	ds := benchDigests(64)
	for i := range ds {
		ds[i].State, ds[i].Load, ds[i].Gen = "S5(URR)", 0.75, 1<<40
	}
	return ds
}()

// sameMessage reports whether two decoded messages are equal bit for bit:
// reflect.DeepEqual takes -0 for 0, encoding/json does not.
func sameMessage(t *testing.T, a, b any) bool {
	return reflect.DeepEqual(a, b) && bytes.Equal(jsonEncode(t, a), jsonEncode(t, b))
}

// checkAgainstJSON holds readMessage (parser plus fallback) to the oracle
// on one input read as an M: same message, same error text, whole or in
// segments, the segmented read into a spare array another batch left
// dirty, and never a byte taken past the limit.
func checkAgainstJSON[M Request | Response, P wirePtr[M]](t *testing.T, data []byte, lim int64, chunk int) {
	t.Helper()
	want, wantErr := jsonDecode[M](bytes.NewReader(data), lim)
	for _, c := range []int{len(data) + 1, chunk} {
		src := &chunkReader{data: data, chunk: max(c, 1)}
		var got M
		var spare []NodeDigest
		if c == chunk {
			spare = append([]NodeDigest(nil), dirtyDigests...)[:0]
		}
		exceeded, err := readMessage(&msgReader{r: src}, lim, P(&got), spare)
		if exceeded {
			err = fmt.Errorf("ishare: message exceeds %d bytes", lim)
		}
		if err != nil {
			got = *new(M)
		}
		// Which of two errors a message both over the limit and malformed
		// gets depends on read sizes, over TCP as well; the oracle's is
		// only exact for whole reads.
		if c == chunk && wantErr != nil && err != nil && int64(len(data)) >= lim {
			continue
		}
		if errText(err) != errText(wantErr) || !sameMessage(t, got, want) {
			t.Fatalf("chunk %d of %q:\n got %+v, %v\nwant %+v, %v", c, data, got, err, want, wantErr)
		}
		if int64(src.read) > lim {
			t.Fatalf("read %d bytes past the %d limit", src.read, lim)
		}
	}
	// The parser alone: whatever it accepts is encoding/json's value.
	var got, j M
	if p := (messageParser{msg: P(&got)}); p.parse(data) == wireDone {
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&j); err != nil || !sameMessage(t, got, j) {
			t.Fatalf("parser accepted %q as %+v; encoding/json: %+v, %v", data, got, j, err)
		}
	}
}

// checkEncode holds the codec's encoder to json.Encoder on one message: the
// same bytes or declined, and what it writes the parser reads back.
func checkEncode[M Request | Response, P wirePtr[M]](t *testing.T, msg P, chunk int) {
	t.Helper()
	got, ok := wireEncode(msg)
	if !ok {
		return
	}
	if want := jsonEncode(t, msg); !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n%s\njson.Encoder writes\n%s", got, want)
	}
	checkAgainstJSON[M, P](t, got, 1<<16, chunk)
}

// oldPeerForecastReply is a forecast reply as a peer built before the
// three estimates nothing read were dropped writes it: the parser declines
// their keys and the fallback ignores them.
const oldPeerForecastReply = `{"ok":true,"forecasts":[{"name":"m001","known":true,"survival":0.75,"ewma_survival":0.5,"rate_survival":1e-7,"expected_events":0.3,"samples":12,"state":"S1(full)","gen":4,"unix_ms":1700000000000}]}` + "\n"

// loadEdges are loads on both sides of each border of floatValue's
// one-scan path: 16, 17, 19 and 20 significant digits (and 16 at or over
// 2^53), 2^53-1, 2^53 and 2^53+1 whole and as fractions, 22 and 23
// fraction digits, minus zero, a half beside its invalid 00.5, and a
// 17-digit load as a fleet's uniform draws give, and 20-digit mantissas of
// 2^64, which a 64-bit accumulator reads as 0. Past 2^53 the mantissa
// takes the Eisel–Lemire step, so these also hold points exactly halfway
// between two doubles and a digit either side, shortest forms of random
// doubles, and 19 significant digits at 22 and 23 fraction digits
// (TestWireFloatMatchesStrconv has a million of these shapes).
// TestWireEdgeCases decodes each bit for bit as encoding/json does;
// FuzzWireCodec starts from each.
var loadEdges = []string{
	"0.1234567890123456", "0.12345678901234567", "0.1234567890123456789", "0.12345678901234567891", "0.9999999999999999",
	"9007199254740991", "9007199254740992", "9007199254740993", "0.9007199254740991", "0.9007199254740992", "0.9007199254740993",
	"0.0000000000000000000123", "0.00000000000000000001234", "-0.0", "0.5", "00.5", "0.30000000000000004",
	"18446744073709551616", "0.18446744073709551616", "-18446744073709551616.0",
	"9007199254740995", "4503599627370496.5", "4503599627370496.4", "4503599627370496.6", "2251799813685248.25", "1125899906842624.125",
	"0.6046602879796196", "123.45678901234568", "-0.9405090880450124", "1234567890.123456789",
	"0.0001234567890123456789", "0.00001234567890123456789", "-0", "-0.000",
}

// parseAllocBound is what readMessage's doc comment bounds the parser's
// allocations by for the n bytes it took whole as msg: each array of
// objects presized to at most n/12+1 entries, each array of strings opened
// empty, and append growth for the entries past that, which for Go's
// growth factors (2, then 1.25) is under ten times the final length (16
// leaves room for size classes); its strings and numbers, at most four
// bytes a byte of input (size classes, 16 at the least); a kilobyte of
// parser state.
func parseAllocBound(n int, msg any) uint64 {
	pre, b := n/12+1, 4*n+1024
	switch m := msg.(type) {
	case *Request:
		b += arrayBound(m.Digests, pre) + arrayBound(m.Names, 0)
	case *Response:
		b += arrayBound(m.Nodes, pre) + arrayBound(m.Forecasts, pre) + arrayBound(m.Missing, 0)
	}
	return uint64(b)
}

func arrayBound[T any](s []T, pre int) int {
	if s == nil {
		return 0
	}
	return int(reflect.TypeFor[T]().Size()) * (pre + 16*len(s))
}

// TestWireParseAllocBound holds what the parser allocates taking a message
// whole to parseAllocBound, on the inputs nearest it: arrays of elements
// too short for the presize to hold them, and a batch, with and without a
// spare that holds it (then only its strings are new). A try during which
// another goroutine allocated may read over the bound, so a case fails
// only when three do.
func TestWireParseAllocBound(t *testing.T) {
	const n = 4096
	batch := jsonEncode(t, Request{Op: "heartbeat_batch", Digests: benchDigests(n)})
	empties := "[" + strings.Repeat("{},", n-1) + "{}]"
	for _, tc := range []struct {
		name, in     string
		reply, spare bool
	}{
		{"empty digests", `{"digests":` + empties + `}`, false, false},
		{"empty names", `{"names":[` + strings.Repeat(`"",`, n-1) + `""]}`, false, false},
		{"empty nodes and forecasts", `{"nodes":` + empties + `,"forecasts":` + empties + `}`, true, false},
		{"batch", string(batch), false, false},
		{"batch into a spare", string(batch), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ms runtime.MemStats
			var used, bound uint64
			for try := 0; try < 3; try++ {
				var req Request
				var resp Response
				p := messageParser{msg: &req}
				if tc.reply {
					p.msg = &resp
				}
				if tc.spare {
					p.spare = make([]NodeDigest, 0, n)
				}
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				st := p.parse([]byte(tc.in))
				runtime.ReadMemStats(&ms)
				if st != wireDone {
					t.Fatalf("parser declined %.60q", tc.in)
				}
				if tc.spare && &req.Digests[0] != &p.spare[:1][0] {
					t.Fatal("the batch was not decoded into the spare")
				}
				if bound = parseAllocBound(len(tc.in), p.msg); tc.spare {
					bound = parseAllocBound(len(tc.in), nil)
				}
				if used = ms.TotalAlloc - before; used <= bound {
					return
				}
			}
			t.Fatalf("parsing %d bytes allocated %d, over the bound %d", len(tc.in), used, bound)
		})
	}
}

// FuzzWireCodec pins the hand-written codec to encoding/json in both
// directions and for both message types: arbitrary bytes decode to exactly
// the oracle's Request and Response or error, whole or segmented, within
// the size limit; an arbitrary Request or Response encodes to exactly
// json.Encoder's bytes or is declined.
func FuzzWireCodec(f *testing.F) {
	for _, s := range []string{
		`{"op":"register_batch","digests":[{"name":"m001","addr":"10.0.0.1:70","state":"S1(full)","load":0.1,"gen":1,"unix_ms":1700000000000},{"name":"m002","state":"S2(lowest-priority)"}]}` + "\n",
		`{"op":"heartbeat_batch","digests":[{"name":"m001","gen":2,"unix_ms":1700000000555}]}` + "\n",
		`{"op":"forecast","names":["m001","m002"],"horizon_ms":3600000,"trace":"t-1"}` + "\n",
		`{"op":"list","limit":16}`, `{"op":"heartbeat_batch","digests":[{"name":"m1","state":"S3","load":1e-7,"gen":-0}]}`,
		`{"op":"submit","job":{"id":"j-1","cpu_seconds":2.5}}`, `{"OP":"list"}`, `{"op":"a","op":"b"}`,
		`{"digests":[{"name":"a","load":1e309}]}`, `{"op":"x","horizon_ms":1.5}`, `{"op":"n\u00e9"}`, `{"op":null}`, ` { "digests" : [ ] } x`,
		`{"digests":[{"name":"a"},]}`, `{"names":["a",]}`, `{"op":"x",}`, `{"limit":01}`, `{"digests":[{"name":"a","load":-}]}`, `{`, `[]`, "",
		`{"ok":true,"nodes":[{"name":"m001","addr":"10.0.0.1:70","alive":true,"last_seen_ms":1700000000000,"state":"S1(full)","load":0.1,"gen":1},{"name":"m002","addr":"","alive":false,"last_seen_ms":0}]}` + "\n",
		`{"ok":true,"forecasts":[{"name":"m001","known":true,"survival":0.75,"samples":12,"state":"S1(full)","gen":4,"unix_ms":1700000000000},{"name":"m9","known":false,"survival":-0}]}` + "\n",
		oldPeerForecastReply,
		`{"ok":true,"missing":["m003","m009"]}` + "\n",
		`{"ok":false,"error":"registry overloaded, retry later","retry_after_ms":200}` + "\n",
		`{"ok":false,"error":"unknown op x"}`, `{"ok":tru`, `{"ok":1}`, `{"ok":true,"nodes":null}`,
		`{"ok":true,"info":{"state":"S1(full)"}}`, `{"ok":true,"nodes":[{"alive":"true"}]}`,
	} {
		f.Add([]byte(s), "m001", "S1(full)", 0.25, int64(3), uint8(7))
	}
	f.Add([]byte(`{}`), "a<b", "é", math.Inf(1), int64(-1), uint8(1))
	f.Add([]byte(`{}`), `q"\`, "", 1e-7, int64(0), uint8(200))
	// At the word-at-a-time string scans' edges: a quote, a backslash, a
	// control byte and a non-ASCII byte at offsets 7, 8 and 9 of a string,
	// across its first word boundary, decoded and encoded.
	for _, c := range []string{`"`, `\`, "\x1f", "\x80"} {
		for _, at := range []int{7, 8, 9} {
			s := strings.Repeat("n", at) + c + "0123456789"
			f.Add([]byte(`{"op":"list","digests":[{"name":"`+s+`"}],"trace":"`+s+`"}`), s, s, 0.25, int64(3), uint8(7))
		}
	}
	// At the edges of the walk over an element as the encoder writes it.
	for _, s := range []string{
		`{"op":"heartbeat_batch","digests":[{"name":"m001","addr":"a:1","zone":"z"}]}`,
		`{"ok":true,"nodes":[{"name":"a","addr":"b","alive":true,"last_seen_ms":5,"name":"c"}]}`,
		`{"ok":true,"forecasts":[{"name":"a\"b","known":true,"survival":0.5}]}`,
		`{"digests":[{"name":"a","gen":123456789012345678,"unix_ms":-123456789012345678}]}`,
		`{"digests":[{"name":"a","gen":1234567890123456789,"unix_ms":-9223372036854775808}]}`,
		`{"digests":[{"name":"a","gen":-0}]}`, `{"digests":[{"name":"a","gen":01}]}`, `{"digests":[{"name":"a","gen":-}]}`,
		`{"digests":[{"name":"a", "gen":1}]}`, `{"digests":[{},{"name":"a"},{}]}`,
	} {
		f.Add([]byte(s), "m001", "S1(full)", 0.25, int64(3), uint8(7))
	}
	for _, s := range loadEdges {
		load, _ := strconv.ParseFloat(s, 64)
		f.Add([]byte(`{"digests":[{"name":"a","load":`+s+`}]}`), "m001", "S1(full)", load, int64(3), uint8(7))
	}
	// At the shortest-digits writer's edges, every other one negated, as
	// one digest read back in one chunk: 1e-6 and 1e21 and the floats
	// beside them, every tenth power of two from 2^-20 to 2^70 and the
	// floats beside it, loads of one and of 17 digits, 5e-324, MaxFloat64
	// and minus zero. formatEdges has every power; a seed each would spend
	// fuzz-smoke's seconds on baseline coverage.
	edges := []float64{5e-324, math.MaxFloat64, math.Copysign(0, -1), 0.1, 0.5, 9e20, 1e-5, 0.12345678901234568, 0.9405090880450124}
	for _, f := range []float64{1e-6, 1e21, 0x1p-20, 0x1p-10, 1, 0x1p10, 0x1p20, 0x1p30, 0x1p40, 0x1p50, 0x1p60, 0x1p70} {
		edges = append(edges, math.Nextafter(f, 0), f, math.Nextafter(f, math.Inf(1)))
	}
	for i, load := range edges {
		if i%2 == 1 {
			load = -load
		}
		f.Add([]byte(`{}`), "m001", "S1(full)", load, int64(3), uint8(255))
	}
	f.Fuzz(func(t *testing.T, data []byte, name, state string, load float64, gen int64, n uint8) {
		const lim = 1 << 12
		checkAgainstJSON[Request](t, data, lim, int(n))
		checkAgainstJSON[Response](t, data, lim, int(n))

		req := Request{Op: state, Digests: []NodeDigest{{Name: name, State: state, Load: load, Gen: gen}},
			HorizonMS: gen, Limit: int(n), Trace: name}
		resp := Response{OK: n%2 == 0, RetryAfterMS: gen}
		if n%3 == 0 {
			resp.Error = name
		}
		for i := 0; i < int(n%5); i++ {
			d := NodeDigest{Name: name, Addr: state, State: state, Load: load * float64(i), Gen: gen, UnixMS: int64(i)}
			req.Digests = append(req.Digests, d)
			req.Names, resp.Missing = append(req.Names, name), append(resp.Missing, name)
			resp.Nodes = append(resp.Nodes, NodeInfo{Name: name, Addr: state, Alive: i%2 == 0, LastSeenMS: gen * int64(i), State: state, Load: d.Load, Gen: gen})
			resp.Forecasts = append(resp.Forecasts, ForecastInfo{Name: name, Known: i%2 == 1, Survival: d.Load,
				Samples: int(n) * i, State: state, Gen: gen, UnixMS: int64(i)})
		}
		checkEncode(t, &req, int(n))
		checkEncode(t, &resp, int(n))
	})
}

// TestWireEdgeCases: each input on or outside the codec's subset gets
// exactly the result or the error text encoding/json alone gave, read as a
// request or (reply) as a response.
func TestWireEdgeCases(t *testing.T) {
	big := jsonEncode(t, Request{Op: "heartbeat_batch", Digests: benchDigests(40)})
	uniform := benchDigests(40) // loads of up to 17 digits, like a fleet's
	rng := rand.New(rand.NewSource(1))
	for i := range uniform {
		uniform[i].Load = rng.Float64()
	}
	list := jsonEncode(t, listReply(32))
	type edgeCase struct {
		name, in string
		lim      int64
		fast     bool // the parser, not the fallback, must have taken it
		reply    bool
	}
	cases := []edgeCase{
		{"plain batch", string(big), 0, true, false},
		{"batch of uniform loads", string(jsonEncode(t, Request{Op: "heartbeat_batch", Digests: uniform})), 0, true, false},
		{"whitespace", " {\t\"op\" : \"list\" ,\r\n \"limit\" : 4 } \n", 0, true, false},
		{"empty arrays", `{"op":"heartbeat_batch","digests":[],"names":[]}`, 0, true, false},
		{"empty object", `{}`, 0, true, false},
		{"trailing garbage", `{"op":"list"} trailing`, 0, true, false},
		{"second value", `{"op":"list"}{"op":"other"}`, 0, true, false},
		{"minus zero", `{"digests":[{"name":"a","load":-0,"gen":-0}]}`, 0, true, false},
		{"large exponent", `{"digests":[{"name":"a","load":1e21}]}`, 0, true, false},
		{"small exponent", `{"digests":[{"name":"a","load":1e-7}]}`, 0, true, false},
		{"capital exponent", `{"digests":[{"name":"a","load":2.5E+3}]}`, 0, true, false},
		{"no fraction digits", `{"digests":[{"name":"a","load":1.}]}`, 0, false, false},
		{"second point", `{"digests":[{"name":"a","load":1.5.5}]}`, 0, false, false},
		{"float overflow", `{"digests":[{"name":"a","load":1e309}]}`, 0, false, false},
		{"int overflow", `{"op":"x","horizon_ms":9223372036854775808}`, 0, false, false},
		{"fraction for int", `{"op":"x","horizon_ms":1.0}`, 0, false, false},
		{"leading zero", `{"op":"x","horizon_ms":01}`, 0, false, false},
		{"bare minus", `{"digests":[{"name":"a","load":-}]}`, 0, false, false},
		{"escaped name", `{"digests":[{"name":"a\"b","addr":"x"}]}`, 0, false, false},
		{"unicode escape", `{"digests":[{"name":"caf\u00e9"}]}`, 0, false, false},
		{"non-ascii name", `{"digests":[{"name":"café"}]}`, 0, false, false},
		{"invalid utf-8", "{\"digests\":[{\"name\":\"a\xffb\"}]}", 0, false, false},
		{"control byte", "{\"op\":\"a\x01b\"}", 0, false, false},
		{"upper-case key", `{"OP":"list","Limit":3}`, 0, false, false},
		{"repeated scalar", `{"op":"a","limit":4,"op":"b","limit":5}`, 0, true, false},
		{"repeated digest scalar", `{"digests":[{"name":"a","gen":5,"name":"b"}]}`, 0, false, false},
		{"repeated scalar, then null", `{"op":"a","op":null}`, 0, false, false},
		{"repeated array", `{"digests":[{"name":"a","gen":5}],"digests":[{"name":"b"}]}`, 0, false, false},
		{"repeated empty array", `{"names":[],"names":["a"]}`, 0, false, false},
		{"unknown key", `{"op":"list","extra":{"a":[1,2]}}`, 0, false, false},
		{"unknown digest key", `{"digests":[{"name":"a","zone":"z"}]}`, 0, false, false},
		{"a reply's key", `{"op":"list","ok":true}`, 0, false, false},
		{"null string", `{"op":null}`, 0, false, false},
		{"null array", `{"op":"x","digests":null}`, 0, false, false},
		{"null digest", `{"digests":[null]}`, 0, false, false},
		{"wrong type", `{"op":7}`, 0, false, false},
		{"submit", `{"op":"submit","job":{"name":"j","cpu_seconds":2.5,"rss_mb":64}}`, 0, false, false},
		{"sethost", `{"op":"sethost","host_load":0.5,"host_mem_mb":128}`, 0, false, false},
		{"trailing comma", `{"op":"list",}`, 0, false, false},
		{"trailing comma in array", `{"names":["a",]}`, 0, false, false},
		{"missing colon", `{"op" "list"}`, 0, false, false},
		{"not an object", `["op"]`, 0, false, false},
		{"not json", `this is not json`, 0, false, false},
		{"truncated", `{"op":"heartbeat_batch","digests":[{"name":"a"`, 0, false, false},
		{"empty", ``, 0, false, false},
		{"at the limit", string(big), int64(len(big)) - 1, true, false},
		{"one byte over the limit", string(big), int64(len(big)) - 2, false, false},
		{"long string", `{"op":"` + strings.Repeat("a", 2*wireMaxPending) + `"}`, 0, true, false},

		{"list reply", string(list), 0, true, true},
		{"forecast reply", string(jsonEncode(t, forecastReply(8))), 0, true, true},
		{"missing reply", `{"ok":true,"missing":["m003","m009"]}`, 0, true, true},
		// digests is no reply member: the parser declines the key, and
		// encoding/json ignores it.
		{"gossip reply", `{"ok":true,"digests":[{"name":"p1","unix_ms":1}]}`, 0, false, true},
		{"shed reply", `{"ok":false,"error":"registry overloaded, retry later","retry_after_ms":200}`, 0, true, true},
		{"reply whitespace", "{ \"ok\" : true , \"nodes\" : [ { \"alive\" : false } , { } ] }", 0, false, true},
		{"ok as number", `{"ok":1}`, 0, false, true},
		{"ok in upper case", `{"OK":true}`, 0, false, true},
		{"ok misspelt", `{"ok":truth}`, 0, false, true},
		{"ok cut short", `{"ok":tru`, 0, false, true},
		{"ok run on", `{"ok":truefalse}`, 0, false, true},
		{"alive as string", `{"ok":true,"nodes":[{"name":"a","alive":"true"}]}`, 0, false, true},
		{"null nodes", `{"ok":true,"nodes":null}`, 0, false, true},
		{"null ok", `{"ok":null}`, 0, false, true},
		{"nodes twice", `{"ok":true,"nodes":[{"name":"a"}],"nodes":[{"name":"b"}]}`, 0, false, true},
		{"zero survival", `{"ok":true,"forecasts":[{"name":"a","known":false,"survival":0}]}`, 0, true, true},
		{"minus zero survival", `{"ok":true,"forecasts":[{"name":"a","known":true,"survival":-0}]}`, 0, true, true},
		{"small survival", `{"ok":true,"forecasts":[{"name":"a","known":true,"survival":1e-7}]}`, 0, true, true},
		{"fractional samples", `{"ok":true,"forecasts":[{"name":"a","samples":1.5}]}`, 0, false, true},
		{"escaped node name", `{"ok":true,"nodes":[{"name":"a\"b"}]}`, 0, false, true},
		{"non-ascii node name", `{"ok":true,"nodes":[{"name":"café"}]}`, 0, false, true},
		{"escaped error", `{"ok":false,"error":"unknown op \"x\""}`, 0, false, true},
		{"info member", `{"ok":true,"info":{"state":"S1(full)","host_cpu":0.25,"free_mem_mb":512,"virtual_now_ms":9}}`, 0, false, true},
		{"job member", `{"ok":true,"job":{"completed":true,"outcome":"completed"}}`, 0, false, true},
		{"shard_map member", `{"ok":true,"shard_map":{"gen":4,"shards":["a:1","b:2"]}}`, 0, false, true},
		{"a request's key", `{"ok":true,"op":"list"}`, 0, false, true},
		{"a node's key in a forecast", `{"ok":true,"forecasts":[{"name":"a","alive":true}]}`, 0, false, true},
		{"an older peer's forecast reply", oldPeerForecastReply, 0, false, true},
		{"reply trailing garbage", `{"ok":true} trailing`, 0, true, true},
		{"reply truncated", `{"ok":true,"nodes":[{"name":"a"`, 0, false, true},
		{"reply at the limit", string(list), int64(len(list)) - 1, true, true},
		{"reply one byte over the limit", string(list), int64(len(list)) - 2, false, true},
	}
	for _, load := range loadEdges {
		cases = append(cases, edgeCase{"load " + load, `{"digests":[{"name":"a","load":` + load + `}]}`, 0, load != "00.5", false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lim := tc.lim
			if lim == 0 {
				lim = 1 << 16
			}
			var p messageParser // sees what readMessage would show it
			if p.msg = new(Request); tc.reply {
				p.msg = new(Response)
			}
			for chunk := 1; chunk <= 64; chunk *= 4 {
				if tc.reply {
					checkAgainstJSON[Response](t, []byte(tc.in), lim, chunk)
				} else {
					checkAgainstJSON[Request](t, []byte(tc.in), lim, chunk)
				}
			}
			if got := p.parse([]byte(tc.in)[:min(int64(len(tc.in)), lim)]) == wireDone; got != tc.fast {
				t.Errorf("parser accepted = %v, want %v", got, tc.fast)
			}
		})
	}
	if _, err := decodeRequest(big, int64(len(big))-2); err == nil || err.Error() != fmt.Sprintf("ishare: message exceeds %d bytes", len(big)-2) {
		t.Errorf("over the limit: %v", err)
	}
	old, err := decodeResponse([]byte(oldPeerForecastReply), 1<<16)
	want := Response{OK: true, Forecasts: []ForecastInfo{{Name: "m001", Known: true, Survival: 0.75, Samples: 12, State: "S1(full)", Gen: 4, UnixMS: 1700000000000}}}
	if err != nil || !reflect.DeepEqual(old, want) {
		t.Errorf("an older peer's forecast reply decoded to %+v, %v; want %+v", old, err, want)
	}
}

// TestWireEncodeGolden: the requests the control plane sends and the
// replies it gets leave the sender byte-for-byte as json.Encoder wrote
// them, and what the codec cannot write that way it declines.
func TestWireEncodeGolden(t *testing.T) {
	batch := benchDigests(1000)
	for i := range batch {
		batch[i].Load = float64(i) / 997
		batch[i].State = fmt.Sprintf("S%d", i%5+1)
	}
	batch[1].Load, batch[2].Load, batch[3].Load, batch[4].Load = 1e-7, 1e21, 123456789e-17, -2.5e-9
	batch[5] = NodeDigest{} // name is not omitempty
	list, forecasts := listReply(32), forecastReply(8)
	list.Nodes[3].State, list.Nodes[4] = "", NodeInfo{} // a legacy agent; name, addr, alive and last_seen_ms are not omitempty
	forecasts.Forecasts[2] = ForecastInfo{Name: "never-seen", Survival: 0.5}
	forecasts.Forecasts[3].Survival, forecasts.Forecasts[4].Survival = 0, math.Copysign(0, -1) // survival is not omitempty
	for _, msg := range []any{
		&Request{Op: "heartbeat_batch", Digests: batch},
		&Request{Op: "register_batch", Digests: batch[:1], Trace: "job-1"},
		&Request{Op: "register_batch", Digests: []NodeDigest{{Name: "n", Addr: "127.0.0.1:9", State: "S1(full)", Load: 0.5, Gen: 7}}},
		&Request{Op: "heartbeat_batch", Digests: []NodeDigest{}},
		&Request{Op: "forecast", Names: []string{"a", "", "c"}, HorizonMS: 3600000},
		&Request{Op: "list", Limit: 32},
		&Request{Op: "list", Limit: -1},
		&Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "n", Load: math.SmallestNonzeroFloat64, Gen: math.MinInt64}}},
		&Request{},
		list, forecasts,
		&Response{OK: false, Error: "registry overloaded, retry later", RetryAfterMS: 200},
		&Response{OK: true, Missing: []string{"m003", ""}},
		&Response{OK: true, Nodes: []NodeInfo{}, Forecasts: []ForecastInfo{}, Missing: []string{}},
		&Response{Error: "unknown op x"},
		&Response{},
	} {
		got, ok := wireEncode(msg)
		if !ok {
			t.Fatalf("encoder declined %+v", msg)
		}
		if want := jsonEncode(t, msg); !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%.300s\njson.Encoder writes\n%.300s", got, want)
		}
	}
	for _, msg := range []any{
		&Request{Op: "submit", Job: &JobSpec{Name: "j"}},
		&Request{Op: "register_batch", Digests: []NodeDigest{{Name: `a"b`}}},
		&Request{Op: "register_batch", Digests: []NodeDigest{{Name: "a<b"}}},
		&Request{Op: "register_batch", Digests: []NodeDigest{{Name: "café"}}},
		&Request{Op: "register_batch", Digests: []NodeDigest{{Name: "tab\t"}}},
		&Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Load: math.NaN()}}},
		&Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "a", Load: math.Inf(-1)}}},
		&Request{Op: "forecast", Names: []string{"a&b"}},
		&Response{OK: true, Info: &NodeStatus{}},
		&Response{OK: true, Job: &JobResult{}},
		&Response{Error: `unknown op "x"`},
		&Response{OK: true, Nodes: []NodeInfo{{Name: "a", Addr: "b>c"}}},
		&Response{OK: true, Missing: []string{"é"}},
		&Response{OK: true, Forecasts: []ForecastInfo{{Name: "a", Survival: math.NaN()}}},
	} {
		if _, ok := wireEncode(msg); ok {
			t.Errorf("encoder took %+v", msg)
		}
	}
}

// TestWireDecodeAllocs: decoding a 1000-digest heartbeat batch, a 32-node
// ranked list or an 8-name forecast reply allocates a constant, whatever
// the number of entries: the states are interned, the other strings share
// one allocation and the slice is sized once. (The constant leaves room for
// the pooled buffer being regrown: the race detector makes sync.Pool drop
// it.)
func TestWireDecodeAllocs(t *testing.T) {
	const limit = 16
	ds := benchDigests(1000)
	for i := range ds {
		ds[i].Addr = ""
	}
	data := jsonEncode(t, Request{Op: "heartbeat_batch", Digests: ds})
	allocs := testing.AllocsPerRun(20, func() {
		req, err := decodeRequest(data, 0)
		if err != nil || len(req.Digests) != len(ds) {
			t.Fatalf("decode: %d digests, %v", len(req.Digests), err)
		}
	})
	if allocs > limit {
		t.Errorf("%.0f allocs for %d digests, want <= %d", allocs, len(ds), limit)
	}
	for _, tc := range []struct {
		name  string
		reply *Response
		n     int
	}{{"list", listReply(32), 32}, {"forecast", forecastReply(8), 8}} {
		data := jsonEncode(t, tc.reply)
		allocs := testing.AllocsPerRun(20, func() {
			resp, err := decodeResponse(data, 0)
			if err != nil || len(resp.Nodes)+len(resp.Forecasts) != tc.n {
				t.Fatalf("decode: %+v, %v", resp, err)
			}
		})
		if allocs > limit {
			t.Errorf("%s reply: %.0f allocs for %d entries, want <= %d", tc.name, allocs, tc.n, limit)
		}
	}
}

// TestWireStatesInterned: a decoded state that is one of the five state
// names, in either form, is the interned string itself, and any other value
// is copied with the message's other strings, into their one allocation:
// a 32-node list reply allocates as often whatever its states are. (Half a
// string a node is the margin for the pooled buffer, which the race
// detector makes sync.Pool drop.)
func TestWireStatesInterned(t *testing.T) {
	allocs := func(state func(i int) string) (Response, float64) {
		reply := listReply(32)
		for i := range reply.Nodes {
			reply.Nodes[i].State = state(i)
		}
		data := jsonEncode(t, reply)
		var resp Response
		n := testing.AllocsPerRun(50, func() {
			var err error
			if resp, err = decodeResponse(data, 0); err != nil || !reflect.DeepEqual(resp.Nodes, reply.Nodes) {
				t.Fatalf("decode: %+v, %v", resp, err)
			}
		})
		return resp, n
	}
	_, none := allocs(func(int) string { return "" })
	resp, named := allocs(func(i int) string { return wireStates[i%5][i/5%2] })
	_, other := allocs(func(i int) string { return wireStates[i%5][1] + "x" })
	for i, n := range resp.Nodes {
		if unsafe.StringData(n.State) != unsafe.StringData(wireStates[i%5][i/5%2]) {
			t.Fatalf("node %d's state %q is not the interned string", i, n.State)
		}
	}
	if named > none+16 {
		t.Errorf("%.0f allocs with state names, %.0f with none: a state string is allocated", named, none)
	}
	if other > none+16 {
		t.Errorf("%.0f allocs with other states, %.0f with none: want them in the message's one string allocation", other, none)
	}
}

// TestWireEncodeAllocs: into a warm buffer the encoder allocates nothing,
// for a 1000-digest batch or a place op's replies.
func TestWireEncodeAllocs(t *testing.T) {
	batch := &Request{Op: "heartbeat_batch", Digests: benchDigests(1000)}
	list, forecasts := listReply(32), forecastReply(8)
	for _, tc := range []struct {
		name string
		enc  func(b []byte) ([]byte, bool)
	}{
		{"heartbeat batch", func(b []byte) ([]byte, bool) { return appendRequest(b, batch) }},
		{"list reply", func(b []byte) ([]byte, bool) { return appendResponse(b, list) }},
		{"forecast reply", func(b []byte) ([]byte, bool) { return appendResponse(b, forecasts) }},
	} {
		buf, ok := tc.enc(nil)
		if !ok {
			t.Fatalf("%s: encoder declined", tc.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { buf, _ = tc.enc(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs into a warm buffer, want 0", tc.name, allocs)
		}
	}
}

// combos returns every T the setters can make: element m has setter k
// applied if bit k of m is set.
func combos[T any](setters ...func(*T)) []T {
	out := make([]T, 1<<len(setters))
	for m := range out {
		for k, set := range setters {
			if m>>k&1 == 1 {
				set(&out[m])
			}
		}
	}
	return out
}

// walkArray walks each element of the array the encoder wrote after open
// in enc with walkFields, as the parser does at each '{', and requires every
// one to be taken whole and read back as written, and every cut of it to be
// short.
func walkArray[T any](t *testing.T, enc []byte, open string, fields []wireField[T], want []T) {
	t.Helper()
	i := bytes.Index(enc, []byte(open))
	if i < 0 {
		t.Fatalf("no %s in %s", open, enc)
	}
	i += len(open)
	for k := range want {
		if k > 0 {
			if enc[i] != ',' {
				t.Fatalf("%s: %.40q after element %d", open, enc[i:], k-1)
			}
			i++
		}
		if enc[i] != '{' {
			t.Fatalf("%s element %d starts %.40q", open, k, enc[i:])
		}
		var got T
		j, st := walkFields(&messageParser{}, fields, &got, enc, i)
		if st != wireDone || !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("%s element %d %.120q: walked %v, read %+v, wrote %+v", open, k, enc[i:], st, got, want[k])
		}
		for cut := i + 1; cut < j; cut++ {
			if _, st := walkFields(&messageParser{}, fields, new(T), enc[:cut], i); st != wireShort {
				t.Fatalf("%s element %d cut to %q: walked %v, want short", open, k, enc[i:cut], st)
			}
		}
		i = j
	}
	if enc[i] != ']' {
		t.Fatalf("%s: %.40q after the last element", open, enc[i:])
	}
}

// TestWalkFieldsDeclines: an element that cannot become the encoder's form
// of it declines at once, cut or whole, rather than waiting for more input
// (walkArray holds every cut of an element in that form short).
func TestWalkFieldsDeclines(t *testing.T) {
	for _, in := range []string{
		`{"name":"a" `,
		`{"name":"a","zo`,
		`{"load":1,"name`,
		`{"name":"a","gen":5,"name":"b"}`,
		`{ "name":"a"}`,
	} {
		if _, st := walkFields(&messageParser{}, digestFields, new(NodeDigest), []byte(in), 0); st != wireDecline {
			t.Errorf("%q: walked %v, want decline", in, st)
		}
	}
}

// TestWireTablesFollowEncoder: each flat object the encoder writes, with
// every combination of its fields zero and non-zero, through appendRequest
// and appendResponse, is taken whole by its table's walk. A member the
// encoder writes out of table order, or that its table lacks, fails here
// rather than only parsing slower.
func TestWireTablesFollowEncoder(t *testing.T) {
	digests := combos(
		func(d *NodeDigest) { d.Name = "m001" },
		func(d *NodeDigest) { d.Addr = "10.0.0.1:70" },
		func(d *NodeDigest) { d.State = "S2(lowest-priority)" },
		func(d *NodeDigest) { d.Load = 0.25 },
		func(d *NodeDigest) { d.Gen = 7 },
		func(d *NodeDigest) { d.UnixMS = 1700000000000 },
	)
	nodes := combos(
		func(n *NodeInfo) { n.Name = "m001" },
		func(n *NodeInfo) { n.Addr = "10.0.0.1:70" },
		func(n *NodeInfo) { n.Alive = true },
		func(n *NodeInfo) { n.LastSeenMS = 1700000000000 },
		func(n *NodeInfo) { n.State = "S1" },
		func(n *NodeInfo) { n.Load = 1e-7 },
		func(n *NodeInfo) { n.Gen = -3 },
	)
	forecasts := combos(
		func(f *ForecastInfo) { f.Name = "m001" },
		func(f *ForecastInfo) { f.Known = true },
		func(f *ForecastInfo) { f.Survival = 0.75 },
		func(f *ForecastInfo) { f.Samples = 12 },
		func(f *ForecastInfo) { f.State = "S5(machine-unavail)" },
		func(f *ForecastInfo) { f.Gen = 4 },
		func(f *ForecastInfo) { f.UnixMS = 1700000000000 },
	)
	req, ok := appendRequest(nil, &Request{Op: "heartbeat_batch", Digests: digests})
	if !ok {
		t.Fatal("encoder declined the request")
	}
	walkArray(t, req, `"digests":[`, digestFields, digests)
	resp, ok := appendResponse(nil, &Response{OK: true, Nodes: nodes, Forecasts: forecasts})
	if !ok {
		t.Fatal("encoder declined the response")
	}
	walkArray(t, resp, `"nodes":[`, nodeFields, nodes)
	walkArray(t, resp, `"forecasts":[`, forecastFields, forecasts)
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
	reg2, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Limits: Limits{MaxMessageBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	batch := string(jsonEncode(t, Request{Op: "register_batch", Digests: benchDigests(50)}))

	// A complete value with no newline is answered when it completes, not
	// when the 10 s read deadline expires — by the parser and by the
	// fallback alike.
	for _, in := range []string{`{"op":"list","limit":3}`, `{"op":"list","extra":1}`, `{"op":"list"} junk`, `{"op":01`} {
		if resp, took := wireExchange(t, reg.Addr(), in); took > 2*time.Second {
			t.Errorf("%q answered after %v (%+v)", in, took, resp)
		}
	}

	// A batch arriving in several segments, cut inside a digest, a key, a
	// number and a load's fraction digits.
	frac := len(batch)/2 + strings.Index(batch[len(batch)/2:], `"load":0.2`) + len(`"load":0.2`)
	cuts := []int{len(batch) / 3, len(batch)/3 + 7, len(batch) / 2, frac, len(batch) - 1}
	segs, prev := []string{}, 0
	for _, c := range cuts {
		segs, prev = append(segs, batch[prev:c]), c
	}
	if resp, _ := wireExchange(t, reg.Addr(), append(segs, batch[prev:])...); !resp.OK {
		t.Fatalf("segmented batch refused: %+v", resp)
	}
	nodes, err := (&Client{Shards: []string{reg.Addr()}}).List(ctx)
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

	// The client side of the same boundaries. A reply that is complete with
	// no newline, from a peer that then keeps the connection open, is
	// returned when it completes, not when the 5 s timeout expires — by the
	// parser and by the fallback alike.
	list := string(bytes.TrimSuffix(jsonEncode(t, listReply(32)), []byte("\n")))
	exchange := func(maxBytes int64, segments ...string) (*Response, error) {
		return roundTrip(ctx, nil, new(connPool), replyPeer(t, segments...), Request{Op: "list"}, 5*time.Second, Limits{MaxMessageBytes: maxBytes}, true)
	}
	for _, reply := range []string{list, `{"ok":true,"info":{"state":"S1(full)"}}`, `{"ok":true} junk`} {
		start := time.Now()
		if resp, err := exchange(0, reply); err != nil || !resp.OK || time.Since(start) > 2*time.Second {
			t.Errorf("%.40q returned %+v, %v after %v", reply, resp, err, time.Since(start))
		}
	}
	// A reply in several segments, cut inside a key, a literal, a number and
	// a string.
	cut := strings.Index(list, `"alive":true`)
	resp, err := exchange(0, list[:cut+3], list[cut+3:cut+10], list[cut+10:cut+30], list[cut+30:len(list)-40], list[len(list)-40:])
	if err != nil || !reflect.DeepEqual(resp, listReply(32)) {
		t.Errorf("segmented reply: %+v, %v", resp, err)
	}
	// Over the limit, whole and segmented: the text it always had.
	for _, segs := range [][]string{{list}, {list[:100], list[100:]}} {
		if _, err := exchange(256, segs...); err == nil || !strings.HasPrefix(err.Error(), `ishare: "list" response to 127.0.0.1:`) || !strings.HasSuffix(err.Error(), " exceeds 256 bytes") {
			t.Errorf("reply over the limit: %v", err)
		}
	}
	// A read error after part of a reply, in the subset or already handed to
	// the fallback, surfaces as that error, and the connection that returned
	// it is not read again.
	for _, partial := range []string{`{"ok":true,"nodes":[{"name":"a"`, `{"ok":true,"info":{"state":`} {
		d := &dropDialer{partial: partial}
		_, err := roundTrip(ctx, d, new(connPool), reg.Addr(), Request{Op: "list"}, time.Second, Limits{}, true)
		if !errors.Is(err, errDropped) || !strings.HasPrefix(err.Error(), `ishare: reading "list" response: `) || d.conn.failed != 1 {
			t.Errorf("dropped after %q: %v, %d reads after the error", partial, err, d.conn.failed)
		}
	}
}

// storedState is what a shard holds of each node, liveness left out: a
// heartbeat moves that and nothing else.
func storedState(t *testing.T, addr string) []NodeInfo {
	t.Helper()
	nodes, err := (&Client{}).ListShard(ctx, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodes[i].Alive, nodes[i].LastSeenMS = false, 0
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// TestServeConnReusedSlotsReadZero: a heartbeat batch of bare names decoded
// into an array a batch of newer digests for other nodes was just served
// from changes no stored state, so every slot it reuses reads as zero.
func TestServeConnReusedSlotsReadZero(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	c := &Client{}
	ds := benchDigests(400)
	nodes, newer := ds[:200], ds[200:]
	for i := range newer {
		newer[i].State, newer[i].Gen, newer[i].Load, newer[i].UnixMS = "S2(lowest-priority)", 1<<40, 0.75, 1<<50
	}
	bare := make([]NodeDigest, len(nodes))
	for i := range bare {
		bare[i].Name = nodes[i].Name
	}
	if err := c.RegisterBatch(ctx, reg.Addr(), nodes); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		if err := c.RegisterBatch(ctx, reg.Addr(), newer); err != nil {
			t.Fatal(err)
		}
		want := storedState(t, reg.Addr())
		if missing, err := c.HeartbeatBatch(ctx, reg.Addr(), bare); err != nil || len(missing) != 0 {
			t.Fatalf("heartbeat_batch: missing %v, %v", missing, err)
		}
		if got := storedState(t, reg.Addr()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: a bare heartbeat changed stored state:\n got %+v\nwant %+v", round, got[:2], want[:2])
		}
	}
}

// TestReadMessageZeroesDeclinedSpare: a request whose digests the parser
// starts in the spare, then leaves to encoding/json, which rejects it,
// leaves the spare zeroed, so the pool keeps none of its names.
func TestReadMessageZeroesDeclinedSpare(t *testing.T) {
	spare := make([]NodeDigest, 0, 8)
	var req Request
	if _, err := readMessage(&msgReader{r: strings.NewReader(`{"digests":[{"name":"a"},{"name":"b"},}`)}, 1<<10, &req, spare); err == nil || req.Digests != nil {
		t.Fatalf("decoded %+v, %v; want a syntax error", req, err)
	}
	for i, d := range spare[:cap(spare)] {
		if d != (NodeDigest{}) {
			t.Fatalf("spare slot %d holds %+v", i, d)
		}
	}
}

// TestServeConnKeepsNoRequestArray: once register_batch and heartbeat_batch
// requests, served at once, are answered, overwriting every array the pool
// holds does not change a shard's listing: no handler kept a request's
// digests.
func TestServeConnKeepsNoRequestArray(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	c := &Client{}
	ds := benchDigests(300)
	beat := append([]NodeDigest(nil), ds...)
	for i := range beat {
		beat[i].State, beat[i].Gen = "S3(UEC-CPU)", 4
	}
	var wg sync.WaitGroup
	for _, send := range []func() error{
		func() error { return c.RegisterBatch(ctx, reg.Addr(), ds) },
		func() error { _, err := c.HeartbeatBatch(ctx, reg.Addr(), beat); return err },
	} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := send(); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if _, err := c.HeartbeatBatch(ctx, reg.Addr(), beat); err != nil { // the batches may have raced registration
		t.Fatal(err)
	}
	listing := storedState(t, reg.Addr())
	if len(listing) != len(ds) || listing[0].State != "S3(UEC-CPU)" {
		t.Fatalf("served %d digests: shard lists %d (%+v)", len(ds), len(listing), listing[0])
	}
	var taken []*[]NodeDigest
	for i := 0; i < 16; i++ {
		spare := wireDigests.Get().(*[]NodeDigest)
		arr := (*spare)[:cap(*spare)]
		for j := range arr {
			arr[j] = NodeDigest{Name: "overwritten", Addr: "0:0", State: "S5(URR)", Load: 1, Gen: 1 << 50, UnixMS: 1}
		}
		taken = append(taken, spare)
	}
	for _, spare := range taken {
		wireDigests.Put(spare)
	}
	if got := storedState(t, reg.Addr()); !reflect.DeepEqual(got, listing) {
		t.Errorf("overwriting pooled arrays changed the shard's listing")
	}
}

// replyPeer listens as a peer that answers each request with the segments,
// each in a TCP segment of its own, and then keeps the connection open
// until the test ends.
func replyPeer(t *testing.T, segments ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		ln.Close()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
					return
				}
				for _, s := range segments {
					_, _ = conn.Write([]byte(s)) // a client that has its answer, or its error, may be gone
					time.Sleep(5 * time.Millisecond)
				}
				<-done
			}()
		}
	}()
	return ln.Addr().String()
}

var errDropped = errors.New("dropped mid-reply")

// dropDialer dials connections that read as partial and then fail with
// errDropped, counting the reads made after the failure.
type dropDialer struct {
	partial string
	conn    *dropConn
}

type dropConn struct {
	net.Conn
	rest   []byte
	failed int
}

func (d *dropDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	d.conn = &dropConn{Conn: c, rest: []byte(d.partial)}
	return d.conn, err
}

func (c *dropConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		c.failed++
		return 0, errDropped
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

// TestListLimitIsTheCallersNumber: a list limit no shard could hold neither
// kills the registry nor sizes an allocation; it is answered with what the
// shard has, and so is the request after it.
func TestListLimitIsTheCallersNumber(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	if err := (&Client{}).RegisterBatch(ctx, reg.Addr(), benchDigests(5)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		limit string
		want  int
	}{{"1152921504606846976", 5}, {"1000000000", 5}, {"3", 3}} {
		resp, _ := wireExchange(t, reg.Addr(), `{"op":"list","limit":`+tc.limit+"}\n")
		if !resp.OK || len(resp.Nodes) != tc.want {
			t.Fatalf("limit %s: %d nodes, want %d (%+v)", tc.limit, len(resp.Nodes), tc.want, resp)
		}
	}
}

// shedCounter instruments r and returns its fgcs_registry_sheds_total.
func shedCounter(r *Registry) *obs.Counter {
	reg := obs.NewRegistry()
	r.Instrument(reg, nil)
	return reg.Counter("fgcs_registry_sheds_total", "")
}

// TestShedDoesNotDecode: an overloaded shard answers a 1000-digest batch
// with the structured retry-after response having neither run nor decoded
// it — bytes that are not a request at all get the same answer.
func TestShedDoesNotDecode(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sheds := shedCounter(r)
	fillAdmission(r)
	batch := jsonEncode(t, Request{Op: "register_batch", Digests: benchDigests(1000)})
	garbage := bytes.Repeat([]byte("x"), len(batch)-1)
	for _, in := range [][]byte{batch, append(garbage, '\n')} {
		resp, _ := wireExchange(t, r.Addr(), string(in))
		if resp.OK || resp.RetryAfterMS != 200 || !strings.Contains(resp.Error, "overloaded") {
			t.Fatalf("shed response: %+v", resp)
		}
	}
	if got := sheds.Value(); got != 2 {
		t.Errorf("sheds = %d, want 2", got)
	}
	drainAdmission(r)
	if resp := r.handle(Request{Op: "list"}); len(resp.Nodes) != 0 {
		t.Errorf("a shed batch was executed: %d nodes registered", len(resp.Nodes))
	}
}

var wireSink int

// BenchmarkWireHeartbeatBatch measures the wire layer where it lives: one
// 1000-digest heartbeat batch through encoding/json and through the codec,
// each way. With loads=ratio the loads are i/997, whose shortest forms run
// 14 to 17 digits; with loads=17digit every load has 17 significant
// digits, as a quarter of uniform draws of a fleet's loads do, and each
// decodes through the Eisel–Lemire step.
func BenchmarkWireHeartbeatBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, loads := range []struct {
		name string
		load func(i int) float64
	}{
		{"ratio", func(i int) float64 { return float64(i) / 997 }},
		{"17digit", func(int) float64 {
			for {
				x := rng.Float64()
				if s := strconv.FormatFloat(x, 'e', -1, 64); strings.IndexByte(s, 'e') == len("1.2345678901234567") {
					return x
				}
			}
		}},
	} {
		b.Run("loads="+loads.name, func(b *testing.B) { benchWireBatch(b, loads.load) })
	}
}

// BenchmarkWireFormatLoad is the writer's kernel alone: one 17-digit load
// (as BenchmarkWireHeartbeatBatch's loads=17digit) written by
// appendShortest and by strconv, ns a load.
func BenchmarkWireFormatLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, 0, 1024)
	for len(loads) < cap(loads) {
		if x := rng.Float64(); len(strconv.FormatFloat(x, 'e', -1, 64)) == len("1.2345678901234567e-01") {
			loads = append(loads, x)
		}
	}
	var out []byte
	for _, w := range []struct {
		name  string
		write func([]byte, float64) []byte
	}{
		{"wire", appendShortest},
		{"strconv", func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = w.write(out[:0], loads[i%len(loads)])
			}
			wireSink += len(out)
		})
	}
}

func benchWireBatch(b *testing.B, load func(i int) float64) {
	ds := benchDigests(1000)
	for i := range ds {
		ds[i].Addr, ds[i].Load = "", load(i)
	}
	req := Request{Op: "heartbeat_batch", Digests: ds}
	data := jsonEncode(b, req)
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
		got, err := jsonDecode[Request](bytes.NewReader(data), 1<<20)
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
	run("decode/reused", func() int { // as serveConn decodes: into a pooled array, released after
		spare := wireDigests.Get().(*[]NodeDigest)
		var got Request
		if _, err := readMessage(&msgReader{r: bytes.NewReader(data)}, 1<<20, &got, *spare); err != nil {
			b.Fatal(err)
		}
		releaseDigests(spare, got.Digests)
		return len(got.Digests)
	})
}

// BenchmarkWireReply is the same for the replies a place op waits for: a
// 32-node ranked list and an 8-name forecast.
func BenchmarkWireReply(b *testing.B) {
	for _, tc := range []struct {
		name  string
		reply *Response
	}{{"list32", listReply(32)}, {"forecast8", forecastReply(8)}} {
		data := jsonEncode(b, tc.reply)
		run := func(name string, op func() int) {
			b.Run(tc.name+"/"+name, func(b *testing.B) {
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
			if err := json.NewEncoder(&buf).Encode(tc.reply); err != nil {
				b.Fatal(err)
			}
			return buf.Len()
		})
		var out []byte
		run("encode/wire", func() int {
			var ok bool
			if out, ok = appendResponse(out[:0], tc.reply); !ok {
				b.Fatal("declined")
			}
			return len(out)
		})
		run("decode/json", func() int {
			got, err := jsonDecode[Response](bytes.NewReader(data), 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			return len(got.Nodes) + len(got.Forecasts)
		})
		run("decode/wire", func() int {
			got, err := decodeResponse(data, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			return len(got.Nodes) + len(got.Forecasts)
		})
	}
}

// rawStringByteLoop is rawString a byte a step, as it was before the word
// test: the oracle TestRawStringMatchesByteLoop holds it to.
func rawStringByteLoop(b []byte, i int) ([]byte, int, wireStatus) {
	if b[i] != '"' {
		return nil, i, wireDecline
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, wireDone
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, wireDecline
		}
	}
	return nil, i, wireShort
}

// TestRawStringMatchesByteLoop puts every byte value at every offset of
// strings of 0 to 24 plain bytes, quoted, after a prefix of 0 to 8 bytes,
// and cuts the input at every position: rawString must return what the
// byte loop does, status, string and index.
func TestRawStringMatchesByteLoop(t *testing.T) {
	for n := 0; n <= 24; n++ {
		for pre := 0; pre <= 8; pre += 3 {
			in := []byte(strings.Repeat(" ", pre) + `"` + strings.Repeat("a", n) + `"}`)
			for at := pre + 1; at <= pre+n; at++ {
				for c := 0; c < 256; c++ {
					in[at] = byte(c)
					for cut := pre + 1; cut <= len(in); cut++ {
						s, j, st := rawString(in[:cut], pre)
						ws, wj, wst := rawStringByteLoop(in[:cut], pre)
						if st != wst || j != wj || !bytes.Equal(s, ws) {
							t.Fatalf("%q cut at %d: (%q, %d, %d), byte loop (%q, %d, %d)", in, cut, s, j, st, ws, wj, wst)
						}
					}
				}
				in[at] = 'a'
			}
		}
	}
}

// TestDecodedStringsOutliveBuffer: once readMessage returns, no decoded
// string is a view of a buffer it read into. A request and a reply with
// every string field, read in small segments so the buffer is regrown
// mid-message, and one the parser declines after taking strings (the job),
// are decoded; the pooled buffers are then overwritten, and every string
// must still read as sent.
func TestDecodedStringsOutliveBuffer(t *testing.T) {
	ds := benchDigests(100)
	for i := range ds {
		ds[i].State = []string{"S1(full)", "S3", "S2 (custom)", ""}[i%4]
	}
	for _, tc := range []struct {
		name string
		msg  any
	}{
		{"request", &Request{Op: "heartbeat_batch", Digests: ds, Names: []string{"n1", "a-longer-name-0123456789"}, Trace: "trace-0123456789"}},
		{"reply", &Response{OK: true, Error: "an error text past a word", Nodes: listReply(40).Nodes,
			Missing: []string{"gone-0123456789"}, Forecasts: forecastReply(20).Forecasts}},
		{"declined", &Request{Op: "submit", Digests: ds[:3], Job: &JobSpec{ID: "j-0123456789"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := jsonEncode(t, tc.msg)
			got := reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface()
			var err error
			switch m := got.(type) {
			case *Request:
				_, err = readMessage(&msgReader{r: &chunkReader{data: data, chunk: 97}}, 1<<20, m, nil)
			case *Response:
				_, err = readMessage(&msgReader{r: &chunkReader{data: data, chunk: 97}}, 1<<20, m, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			var held []*[]byte
			for range 4 {
				bp := wireBufs.Get().(*[]byte)
				b := (*bp)[:cap(*bp)]
				for i := range b {
					b[i] = '#'
				}
				held = append(held, bp)
			}
			for _, bp := range held {
				wireBufs.Put(bp)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("decoded strings changed with the buffer:\n got %+v\nwant %+v", got, tc.msg)
			}
		})
	}
}
