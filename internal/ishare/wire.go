package ishare

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/availability"
)

// The hand-written half of the message codec; the package comment has the
// subset it takes and the rule that the rest is encoding/json's.

// wireBufs pools message buffers, none larger than its exchange's limit.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// wireDigests pools the arrays a server decodes requests' digests into.
var wireDigests = sync.Pool{New: func() any { return new([]NodeDigest) }}

const wireMaxPooledDigests = 4096 // entries; a larger array is dropped

// releaseDigests pools, zeroed, a served request's digest array, or the
// spare it was offered if it has none.
func releaseDigests(spare *[]NodeDigest, ds []NodeDigest) {
	if ds != nil {
		clear(ds)
		*spare = ds[:0]
	}
	if cap(*spare) <= wireMaxPooledDigests {
		wireDigests.Put(spare)
	}
}

// wireStates interns the state strings digests, nodes and forecasts carry,
// short and long form, indexed by the state's digit: a decoded message
// keeps no copy of one.
var wireStates = func() (t [5][2]string) {
	for s := availability.S1; s <= availability.S5; s++ {
		t[s-availability.S1] = [2]string{s.Short(), s.String()}
	}
	return t
}()

// wireState returns s's interned form when s is one of the five state
// names, in either form.
func wireState(s string) (string, bool) {
	if len(s) > 1 && s[0] == 'S' && s[1]-'1' < 5 {
		if form := wireStates[s[1]-'1'][min(len(s)-2, 1)]; s == form {
			return form, true
		}
	}
	return "", false
}

// wireEscapes marks the bytes json.Encoder does not copy through
// unescaped.
var wireEscapes = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// wireEnc appends a message as json.Encoder writes it. ok turns false when
// a value needs encoding/json (escaping, the NaN/Inf error).
type wireEnc struct {
	b  []byte
	ok bool
}

// str, num, float and flag write one `,"key":value` member; the first three
// leave an empty value out (omitempty) unless keep.
func (e *wireEnc) str(key, s string, keep bool) {
	if s == "" && !keep {
		return
	}
	for i := 0; i < len(s); i++ {
		if wireEscapes[s[i]] {
			e.ok = false
			break
		}
	}
	e.b = append(append(append(append(e.b, key...), '"'), s...), '"')
}

func (e *wireEnc) num(key string, v int64, keep bool) {
	if v != 0 || keep {
		e.b = appendInt(append(e.b, key...), v)
	}
}

func (e *wireEnc) float(key string, f float64, keep bool) {
	if f == 0 && !keep {
		return
	}
	e.b = append(e.b, key...)
	// As encoding/json: the shortest digits that round to f, 'f' in [1e-6,
	// 1e21), else 'e' except for a zero (0 or -0), exponent unpadded; NaN
	// and the infinities are its error to report.
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		e.b = appendShortest(e.b, f)
		return
	}
	format := byte('f')
	if abs != 0 {
		format = 'e'
	}
	e.ok = e.ok && abs <= math.MaxFloat64
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *wireEnc) flag(key string, v bool) {
	e.b = strconv.AppendBool(append(e.b, key...), v)
}

// endArray closes an array member of n elements, each written after an open
// of its own: nothing of an empty one (omitempty) has been written.
func (e *wireEnc) endArray(n int) {
	if n > 0 {
		e.b = append(e.b, ']')
	}
}

// digests writes a request's batch and strs a string array of either
// message type. A batch's digests mostly share one stamp: a digest stamped as the one
// before copies that one's unix_ms member (none when both are 0).
func (e *wireEnc) digests(ds []NodeDigest) {
	open := `,"digests":[{"name":`
	var stamp int64
	var at, end int // e.b[at:end] is the unix_ms member written for stamp
	for i := range ds {
		d := &ds[i]
		e.str(open, d.Name, true)
		e.str(`,"addr":`, d.Addr, false)
		e.str(`,"state":`, d.State, false)
		e.float(`,"load":`, d.Load, false)
		e.num(`,"gen":`, d.Gen, false)
		if d.UnixMS == stamp {
			e.b = append(e.b, e.b[at:end]...)
		} else {
			at = len(e.b)
			e.num(`,"unix_ms":`, d.UnixMS, false)
			stamp, end = d.UnixMS, len(e.b)
		}
		e.b = append(e.b, '}')
		open = `,{"name":`
	}
	e.endArray(len(ds))
}

func (e *wireEnc) strs(open string, ss []string) {
	for _, s := range ss {
		e.str(open, s, true)
		open = ","
	}
	e.endArray(len(ss))
}

// appendRequest appends req and its newline to b byte-for-byte as
// json.Encoder writes them, or reports false when req is outside the subset
// (a job, a string needing escapes, NaN or Inf).
func appendRequest(b []byte, req *Request) ([]byte, bool) {
	if req.Job != nil {
		return b, false
	}
	e := wireEnc{b: b, ok: true}
	e.str(`{"op":`, req.Op, true)
	e.digests(req.Digests)
	e.strs(`,"names":[`, req.Names)
	e.num(`,"horizon_ms":`, req.HorizonMS, false)
	e.num(`,"limit":`, int64(req.Limit), false)
	e.str(`,"trace":`, req.Trace, false)
	return append(e.b, '}', '\n'), e.ok
}

// appendResponse is appendRequest for a Response; info and job are outside
// the subset.
func appendResponse(b []byte, resp *Response) ([]byte, bool) {
	if resp.Info != nil || resp.Job != nil {
		return b, false
	}
	e := wireEnc{b: b, ok: true}
	e.flag(`{"ok":`, resp.OK)
	e.str(`,"error":`, resp.Error, false)
	open := `,"nodes":[{"name":`
	for i := range resp.Nodes {
		n := &resp.Nodes[i]
		e.str(open, n.Name, true)
		e.str(`,"addr":`, n.Addr, true)
		e.flag(`,"alive":`, n.Alive)
		e.num(`,"last_seen_ms":`, n.LastSeenMS, true)
		e.str(`,"state":`, n.State, false)
		e.float(`,"load":`, n.Load, false)
		e.num(`,"gen":`, n.Gen, false)
		e.b = append(e.b, '}')
		open = `,{"name":`
	}
	e.endArray(len(resp.Nodes))
	e.strs(`,"missing":[`, resp.Missing)
	open = `,"forecasts":[{"name":`
	for i := range resp.Forecasts {
		f := &resp.Forecasts[i]
		e.str(open, f.Name, true)
		e.flag(`,"known":`, f.Known)
		e.float(`,"survival":`, f.Survival, true)
		e.num(`,"samples":`, int64(f.Samples), false)
		e.str(`,"state":`, f.State, false)
		e.num(`,"gen":`, f.Gen, false)
		e.num(`,"unix_ms":`, f.UnixMS, false)
		e.b = append(e.b, '}')
		open = `,{"name":`
	}
	e.endArray(len(resp.Forecasts))
	e.num(`,"retry_after_ms":`, resp.RetryAfterMS, false)
	return append(e.b, '}', '\n'), e.ok
}

// wireStatus is what a parse step found.
type wireStatus uint8

const (
	wireShort   wireStatus = iota // the input ends inside the value: read more
	wireDone                      // complete
	wireDecline                   // outside the subset: encoding/json decides
)

// wireMaxPending bounds what readMessage lets a parse leave unconsumed:
// restart points are a scalar or an array element apart, so more than this
// pending is a string or an element no message carries, and handing it
// over keeps a peer that trickles bytes from buying a rescan of it with
// each one.
const wireMaxPending = 4096

// Where a messageParser is: what it expects next.
const (
	atOpen     uint8 = iota // the message's '{'
	atEnvelope              // a member of the message, or '}'
	atObjects               // an element of the open array of objects, or ']'
	atStrings               // an element of the open array of strings, or ']'
)

// messageParser parses one Request or Response in a single pass over a
// buffer that may still be filling: parse consumes what is complete, stops
// before a member or an array element and resumes there when called with
// the same bytes and more. It declines no later than encoding/json would
// report an error and is done where encoding/json would be, at the closing
// '}'. All it knows of either message type is its tables: the message's
// wireObject for envelope scalars, arrays of strings and which arrays of
// flat objects it carries, and each flat object's wireField list.
type messageParser struct {
	msg   wireObject   // the *Request or *Response being filled
	objs  wireArray    // the open array of objects
	strs  *[]string    // the open array of strings
	views int          // bytes of the strings that view the input (stringValue)
	owned wireStrings  // their copy, once the message is complete (own)
	spare []NodeDigest // an array a request's digests may be decoded into
	pos   int          // b[:pos] is consumed
	at    uint8
	first bool // nothing of the current object or array consumed: no comma due
}

func (p *messageParser) parse(b []byte) wireStatus {
	for {
		i := skipSpace(b, p.pos)
		if i == len(b) {
			return wireShort
		}
		switch c := b[i]; {
		case p.at == atOpen && c == '{':
			p.pos, p.at, p.first = i+1, atEnvelope, true
			continue
		case p.at == atOpen:
			return wireDecline
		case p.at == atEnvelope && c == '}':
			p.pos = i + 1
			p.own()
			return wireDone
		case (p.at == atObjects || p.at == atStrings) && c == ']':
			p.pos, p.at, p.first = i+1, atEnvelope, false
			continue
		}
		if !p.first {
			if b[i] != ',' {
				return wireDecline
			}
			if i = skipSpace(b, i+1); i == len(b) {
				return wireShort
			}
		}
		st, at := wireDone, p.at
		switch at {
		case atEnvelope:
			i, st = p.member(b, i)
		case atObjects:
			if b[i] != '{' {
				return wireDecline
			}
			i, st = p.objs.element(p, b, i)
		case atStrings:
			var s string
			if i, st = p.stringValue(&s, b, i); st == wireDone {
				*p.strs = append(*p.strs, s)
			}
		}
		if st != wireDone {
			return st
		}
		p.pos, p.first = i, p.at != at // moved into an array or an element: nothing of it consumed yet
	}
}

// member parses one `"key":value` of the message at b[i] into the field its
// table names. An array value is only opened (p.at moves into it): its
// elements are parse's. A repeated scalar takes its last value, as in
// encoding/json.
func (p *messageParser) member(b []byte, i int) (int, wireStatus) {
	key, i, st := rawString(b, i)
	if st == wireDone {
		if i = skipSpace(b, i); i < len(b) && b[i] != ':' {
			return i, wireDecline
		}
		if i = skipSpace(b, min(i+1, len(b))); i == len(b) {
			st = wireShort
		}
	}
	if st != wireDone {
		return i, st
	}
	return p.msg.wireMember(p, key, b, i)
}

// wireObject is the message the parser fills. wireMember is its key →
// field table, all that tells a Request from a Response: it parses the
// value at b[i] into the field key names, and declines what encoding/json
// must decide (an unknown or other-case key; job, info).
// wireStrings hands w every string field the parser fills.
type wireObject interface {
	wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus)
	wireStrings(w *wireStrings)
}

// wirePtr is *T for a T the parser can fill.
type wirePtr[T any] interface {
	*T
	wireObject
}

func (o *Request) wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus) {
	switch string(key) { // no copy of the key: a switch tag, not a value
	case "op":
		return p.stringValue(&o.Op, b, i)
	case "digests":
		return openObjects(p, &o.Digests, p.spare, digestFields, b, i)
	case "names":
		return p.openStrings(&o.Names, b, i)
	case "horizon_ms":
		return intValue(&o.HorizonMS, b, i)
	case "limit":
		return intSizeValue(&o.Limit, b, i)
	case "trace":
		return p.stringValue(&o.Trace, b, i)
	}
	return i, wireDecline
}

func (o *Request) wireStrings(w *wireStrings) {
	w.own(&o.Op)
	for i := range o.Digests {
		d := &o.Digests[i]
		w.own(&d.Name)
		w.own(&d.Addr)
		w.own(&d.State)
	}
	for i := range o.Names {
		w.own(&o.Names[i])
	}
	w.own(&o.Trace)
}

func (o *Response) wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus) {
	switch string(key) {
	case "ok":
		return boolValue(&o.OK, b, i)
	case "error":
		return p.stringValue(&o.Error, b, i)
	case "nodes":
		return openObjects(p, &o.Nodes, nil, nodeFields, b, i)
	case "missing":
		return p.openStrings(&o.Missing, b, i)
	case "forecasts":
		return openObjects(p, &o.Forecasts, nil, forecastFields, b, i)
	case "retry_after_ms":
		return intValue(&o.RetryAfterMS, b, i)
	}
	return i, wireDecline
}

func (o *Response) wireStrings(w *wireStrings) {
	w.own(&o.Error)
	for i := range o.Nodes {
		n := &o.Nodes[i]
		w.own(&n.Name)
		w.own(&n.Addr)
		w.own(&n.State)
	}
	for i := range o.Missing {
		w.own(&o.Missing[i])
	}
	for i := range o.Forecasts {
		f := &o.Forecasts[i]
		w.own(&f.Name)
		w.own(&f.State)
	}
}

// wireField is one member of a flat object: its key as the encoder writes
// it, quoted and with its colon, and its field, for a string member
// (messageParser.stringValue parses all of those), or what parses its value.
// A flat object's table lists its members in the order appendRequest and
// appendResponse write them, and is all the parser knows of the type.
type wireField[T any] struct {
	wireKey
	str   func(o *T) *string                            // a string member's field, or
	value func(o *T, b []byte, i int) (int, wireStatus) // any other member's parse
}

// wireKey is a member's key, and its first eight bytes (fewer, masked, of a
// shorter key) as a little-endian load reads them.
type wireKey struct {
	key        string
	head, mask uint64
}

func keyOf(key string) wireKey {
	var w [8]byte
	n := copy(w[:], key)
	return wireKey{key, binary.LittleEndian.Uint64(w[:]), ^uint64(0) >> (64 - 8*n)}
}

// at reports whether the key is at b[k:], which holds more than the key:
// its first eight bytes in one load where eight are in sight, and the rest
// as a string.
func (w *wireKey) at(b []byte, k int) bool {
	if k+8 > len(b) {
		return string(b[k:k+len(w.key)]) == w.key
	}
	return binary.LittleEndian.Uint64(b[k:])&w.mask == w.head && (len(w.key) <= 8 || string(b[k+8:k+len(w.key)]) == w.key[8:])
}

// parse parses the member's value at b[i] into o.
func (f *wireField[T]) parse(p *messageParser, o *T, b []byte, i int) (int, wireStatus) {
	if f.str != nil {
		return p.stringValue(f.str(o), b, i)
	}
	return f.value(o, b, i)
}

var digestFields = []wireField[NodeDigest]{
	{keyOf(`"name":`), func(o *NodeDigest) *string { return &o.Name }, nil},
	{keyOf(`"addr":`), func(o *NodeDigest) *string { return &o.Addr }, nil},
	{keyOf(`"state":`), func(o *NodeDigest) *string { return &o.State }, nil},
	{keyOf(`"load":`), nil, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return floatValue(&o.Load, b, i) }},
	{keyOf(`"gen":`), nil, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
	{keyOf(`"unix_ms":`), nil, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return intValue(&o.UnixMS, b, i) }},
}

var nodeFields = []wireField[NodeInfo]{
	{keyOf(`"name":`), func(o *NodeInfo) *string { return &o.Name }, nil},
	{keyOf(`"addr":`), func(o *NodeInfo) *string { return &o.Addr }, nil},
	{keyOf(`"alive":`), nil, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return boolValue(&o.Alive, b, i) }},
	{keyOf(`"last_seen_ms":`), nil, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.LastSeenMS, b, i) }},
	{keyOf(`"state":`), func(o *NodeInfo) *string { return &o.State }, nil},
	{keyOf(`"load":`), nil, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return floatValue(&o.Load, b, i) }},
	{keyOf(`"gen":`), nil, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
}

var forecastFields = []wireField[ForecastInfo]{
	{keyOf(`"name":`), func(o *ForecastInfo) *string { return &o.Name }, nil},
	{keyOf(`"known":`), nil, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return boolValue(&o.Known, b, i) }},
	{keyOf(`"survival":`), nil, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return floatValue(&o.Survival, b, i) }},
	{keyOf(`"samples":`), nil, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intSizeValue(&o.Samples, b, i) }},
	{keyOf(`"state":`), func(o *ForecastInfo) *string { return &o.State }, nil},
	{keyOf(`"gen":`), nil, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
	{keyOf(`"unix_ms":`), nil, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.UnixMS, b, i) }},
}

// walkFields parses the object at b[i] ('{') into o if it is exactly what
// the encoder writes: members in the table's order, each at most once,
// nothing between tokens, then '}'. It returns the index after the '}' and
// done; short while the input ends where the object's next member or its
// '}' could still arrive; decline on any other input. Either of those may
// have filled some of o.
func walkFields[T any](p *messageParser, fields []wireField[T], o *T, b []byte, i int) (int, wireStatus) {
	i, comma, short := i+1, 0, false // no comma before the first member
	for n := range fields {
		f, k := &fields[n], i+comma
		if v := k + len(f.key); v >= len(b) {
			rest := b[min(k, len(b)):] // all of the member in sight: short if it begins f's
			short = short || (comma == 0 || i == len(b) || b[i] == ',') && string(rest) == f.key[:len(rest)]
		} else if (comma == 0 || b[i] == ',') && f.at(b, k) {
			var st wireStatus
			if i, st = f.parse(p, o, b, v); st != wireDone {
				return i, st
			}
			comma = 1
		}
	}
	switch {
	case i < len(b) && b[i] == '}':
		return i + 1, wireDone
	case short:
		return i, wireShort
	}
	return i, wireDecline
}

// wireArray is the open array of flat objects. element appends a slot for
// the element at b[i] ('{') and walks its table into it; a walk not done
// takes the slot and the string bytes it counted back, so a cut element is
// walked again from its '{', into the same slot, once more has arrived.
type wireArray interface {
	element(p *messageParser, b []byte, i int) (int, wireStatus)
}

type wireObjects[T any] struct {
	dst    *[]T
	fields []wireField[T]
}

func (a *wireObjects[T]) element(p *messageParser, b []byte, i int) (int, wireStatus) {
	n, views := len(*a.dst), p.views
	*a.dst = append(*a.dst, *new(T))
	j, st := walkFields(p, a.fields, &(*a.dst)[n], b, i)
	if st != wireDone {
		*a.dst, p.views = (*a.dst)[:n], views
	}
	return j, st
}

// openObjects opens the array of flat objects at b[i] into *dst, unless
// b[i] starts something else (null included) or the array a second time:
// encoding/json's rules apply to those. The slice is the spare array when
// that holds what is in sight, else pre-sized from the braces in sight, but
// never beyond what the bytes could hold (`{"name":""},` is 12).
func openObjects[T any](p *messageParser, dst *[]T, spare []T, fields []wireField[T], b []byte, i int) (int, wireStatus) {
	if b[i] != '[' || *dst != nil {
		return i, wireDecline
	}
	rest := b[i+1:]
	if n := min(bytes.Count(rest, []byte{'{'}), len(rest)/12+1); cap(spare) >= max(n, 1) {
		*dst = spare[:0]
	} else {
		*dst = make([]T, 0, n)
	}
	p.at, p.objs = atObjects, &wireObjects[T]{dst, fields}
	return i + 1, wireDone
}

// openStrings is openObjects for an array of strings.
func (p *messageParser) openStrings(dst *[]string, b []byte, i int) (int, wireStatus) {
	if b[i] != '[' || *dst != nil {
		return i, wireDecline
	}
	*dst, p.strs, p.at = []string{}, dst, atStrings
	return i + 1, wireDone
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// swarOnes and swarHigh are a 1 and a high bit in each byte of a word. Of
// a word's bytes, x - 0x20·swarOnes sets the high bit of those below 0x20
// or from 0xA0, and (x ^ c·swarOnes) - swarOnes, for an ASCII c from 0x20,
// that of c and of those from 0x80 to 0x9F (as does the same with one bit
// of c masked, for c and its partner); any other byte sets it in no term
// and borrows from no byte above it. So of an OR of such terms, masked with
// swarHigh, the lowest set bit is in the word's first byte that is
// non-ASCII, a control byte or a c, and a word with none sets no bit.
const swarOnes, swarHigh = 0x0101010101010101, 0x8080808080808080

// rawString returns the string at b[i] unquoted and the index after it.
// Escapes, control bytes and non-ASCII decline, at the byte itself; so does
// anything that is not a string (null included). While eight bytes are in
// sight it skips them a word at a time, to the first that is '"', a
// backslash, a control byte or non-ASCII (swarHigh's rule), and it goes on
// a byte a step from there.
func rawString(b []byte, i int) ([]byte, int, wireStatus) {
	if b[i] != '"' {
		return nil, i, wireDecline
	}
	j := i + 1
	for ; j+8 <= len(b); j += 8 {
		x := binary.LittleEndian.Uint64(b[j:])
		if t := ((x - 0x20*swarOnes) | ((x ^ 0x22*swarOnes) - swarOnes) | ((x ^ 0x5C*swarOnes) - swarOnes)) & swarHigh; t != 0 {
			j += bits.TrailingZeros64(t) / 8
			break
		}
	}
	for ; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, wireDone
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, wireDecline
		}
	}
	return nil, i, wireShort
}

// stringValue stores the string at b[i] in *dst: one of the five state
// names, in either form, as its interned string, any other as a view of b,
// with no copy, whose bytes it counts for own.
func (p *messageParser) stringValue(dst *string, b []byte, i int) (int, wireStatus) {
	s, i, st := rawString(b, i)
	var view string
	if len(s) > 0 {
		view = unsafe.String(&s[0], len(s))
	}
	if form, ok := wireState(view); ok {
		view = form
	} else {
		p.views += len(s)
	}
	*dst = view
	return i, st
}

// own gives a complete message's strings one allocation. While the message
// fills, each is a view of the buffer it is parsed from, or an interned
// state name (stringValue); once it is complete, one walk over its strings
// (wireStrings) copies each view into an allocation of the bytes the views
// were counted at and makes the string a view of its copy. The buffers,
// pooled or regrown, are so viewed by nothing once readMessage returns, and
// readMessage zeroes a message the parser did not complete. The views kept
// are disjoint bytes of the message, so the allocation is the count capped
// at the message's bytes; the count is over them only where a repeated key
// parsed a value twice.
// A string kept past the message keeps all of its strings: the registry
// clones the names and addresses it keeps.
func (p *messageParser) own() {
	if p.views > 0 {
		p.owned.buf = make([]byte, min(p.views, p.pos))
		p.msg.wireStrings(&p.owned)
	}
}

// wireStrings is own's allocation: buf[:n] is filled.
type wireStrings struct {
	buf []byte
	n   int
}

// own moves *s, unless it is empty or a state name, to the next bytes of buf.
func (w *wireStrings) own(s *string) {
	if _, named := wireState(*s); len(*s) > 0 && !named {
		copy(w.buf[w.n:], *s)
		*s = unsafe.String(&w.buf[w.n], len(*s))
		w.n += len(*s)
	}
}

// numberToken delimits the number at b[i] under JSON's strict grammar and
// reports whether it is a plain integer. A number that touches the end of
// the input is short: its next byte could extend it.
func numberToken(b []byte, i int) (tok []byte, integer bool, st wireStatus) {
	j, part := i, byte(0) // which digits are due: 0 integer part, '.' fraction, 'e' exponent
	if b[j] == '-' {
		j++
	}
	for ; ; j++ {
		k := j
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		switch {
		case part == 0 && j > k+1 && b[k] == '0':
			return nil, false, wireDecline
		case j == len(b):
			return nil, false, wireShort
		case j == k:
			return nil, false, wireDecline
		case part == 0 && b[j] == '.':
			part = '.'
		case part != 'e' && b[j]|0x20 == 'e':
			if part = 'e'; j+1 < len(b) && (b[j+1] == '+' || b[j+1] == '-') {
				j++
			}
		default:
			return b[i:j], part == 0, wireDone
		}
	}
}

// floatValue and intValue convert with the calls encoding/json makes, and
// decline where it reports an error (overflow, a fraction for an integer).
// Each builds the common case as it scans, eight digits a step where eight
// are in sight (digitRun), and leaves the rest to those calls: intValue a
// plain integer of up to 18 digits, which cannot overflow; floatValue a
// [-]int[.frac] of at most 19 significant digits and at most 22 fraction
// digits. A mantissa m below 2^53 and 10^k are exact as float64s, so
// m/10^k rounds once, as in strconv's own exact path; a larger one, as a
// 17-digit load has, goes through eiselLemire, the step strconv takes next,
// and only what that cannot decide is rescanned for strconv.
func floatValue(dst *float64, b []byte, i int) (int, wireStatus) {
	j, sign := i, 1.0
	if b[j] == '-' {
		j, sign = j+1, -1.0
	}
	k := j
	m, j := digitRun(0, b, j)
	whole, frac := j-k, 0
	point := j < len(b) && b[j] == '.'
	if point {
		m, j = digitRun(m, b, j+1)
		frac = j - k - whole - 1
	}
	sig := whole + frac // digits from the first non-zero one: m holds them, exactly when at most 19
	if whole == 1 && b[k] == '0' {
		sig--
		for z := k + 2; z < j && b[z] == '0'; z++ {
			sig--
		}
	}
	if whole > 0 && (whole == 1 || b[k] != '0') && (!point || frac > 0) && sig <= 19 && frac <= 22 &&
		j < len(b) && !numberByte(b[j]) {
		if m < 1<<53 {
			*dst = sign * float64(m) / math.Pow10(frac)
			return j, wireDone
		}
		if f, ok := eiselLemire(m, frac); ok {
			*dst = sign * f
			return j, wireDone
		}
	}
	tok, _, st := numberToken(b, i)
	f, err := strconv.ParseFloat(string(tok), 64)
	if st == wireDone && err != nil {
		st = wireDecline
	}
	*dst = f
	return i + len(tok), st
}

// digitRun takes the digits at b[j:] into m and returns m and the index
// after them: eight a step while the next eight bytes are all digits (a
// SWAR test and three multiplies a word, as fast_float's
// parse_eight_digits), then one a step; a run whose second byte is no digit
// skips the word test. m wraps past 19 significant digits.
func digitRun(m uint64, b []byte, j int) (uint64, int) {
	for ; j+8 <= len(b) && b[j+1]-'0' < 10; j += 8 {
		x := binary.LittleEndian.Uint64(b[j:])
		if ((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		x -= 0x3030303030303030
		x = x*10 + x>>8 // each even byte: the two-digit number it starts
		x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		m = m*1e8 + uint64(uint32(x))
	}
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		m = 10*m + uint64(b[j]-'0')
	}
	return m, j
}

// wirePow10[k] is 10^-k's binary mantissa to 128 bits, rounded down, as
// {high, low} words: 10^-k lies in [M, M+1)·2^(e-127), M = high·2^64+low
// and e = ⌊log2 10^-k⌋. TestWirePow10 recomputes each row with math/big.
var wirePow10 = [23][2]uint64{
	{0x8000000000000000, 0x0000000000000000},
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3},
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9},
	{0xD1B71758E219652B, 0xD3C36113404EA4A8},
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53},
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F},
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C},
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D},
	{0x89705F4136B4A597, 0x31680A88F8953030},
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B},
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748},
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3},
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9},
	{0xB424DC35095CD80F, 0x538484C19EF38C94},
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10},
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3},
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2},
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF},
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5},
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584},
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03},
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338},
}

// wirePow10Up[n+5] is 10^n's binary mantissa to 128 bits, rounded down
// and then one unit up, for -5 <= n <= 22, as {high, low}: 10^n lies in
// [M-1, M)·2^(e-127), M = high·2^64+low and e = ⌊log2 10^n⌋. These are the
// powers shortestDecimal scales [1e-6, 1e21) by; TestWirePow10Up
// recomputes each row with math/big.
var wirePow10Up = [28][2]uint64{
	{0xA7C5AC471B478423, 0x0FCF80DC33721D54},
	{0xD1B71758E219652B, 0xD3C36113404EA4A9},
	{0x83126E978D4FDF3B, 0x645A1CAC083126EA},
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A4},
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD},
	{0x8000000000000000, 0x0000000000000001},
	{0xA000000000000000, 0x0000000000000001},
	{0xC800000000000000, 0x0000000000000001},
	{0xFA00000000000000, 0x0000000000000001},
	{0x9C40000000000000, 0x0000000000000001},
	{0xC350000000000000, 0x0000000000000001},
	{0xF424000000000000, 0x0000000000000001},
	{0x9896800000000000, 0x0000000000000001},
	{0xBEBC200000000000, 0x0000000000000001},
	{0xEE6B280000000000, 0x0000000000000001},
	{0x9502F90000000000, 0x0000000000000001},
	{0xBA43B74000000000, 0x0000000000000001},
	{0xE8D4A51000000000, 0x0000000000000001},
	{0x9184E72A00000000, 0x0000000000000001},
	{0xB5E620F480000000, 0x0000000000000001},
	{0xE35FA931A0000000, 0x0000000000000001},
	{0x8E1BC9BF04000000, 0x0000000000000001},
	{0xB1A2BC2EC5000000, 0x0000000000000001},
	{0xDE0B6B3A76400000, 0x0000000000000001},
	{0x8AC7230489E80000, 0x0000000000000001},
	{0xAD78EBC5AC620000, 0x0000000000000001},
	{0xD8D726B7177A8000, 0x0000000000000001},
	{0x878678326EAC9000, 0x0000000000000001},
}

// eiselLemire is m·10^-k correctly rounded, for 2^53 <= m < 10^19 and
// k <= 22 (Lemire, "Number Parsing at a Gigabyte per Second", SPE 2021, as
// strconv runs it): the top bits of m times the 128-bit mantissa of 10^-k
// fix the result's 54 bits unless the product sits too near a rounding
// boundary, when ok is false. The result is always a normal float64.
func eiselLemire(m uint64, k int) (f float64, ok bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	exp := uint64(217706*-k>>16+64+1023) - uint64(clz) // ⌊log2 10^-k⌋ + bias, shifted for m's scale
	hi, lo := bits.Mul64(m, wirePow10[k][0])
	if hi&0x1FF == 0x1FF && lo+m < m { // the low word may carry: widen to 192 bits
		yHi, yLo := bits.Mul64(m, wirePow10[k][1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 { // a halfway point, to within the table's rounding: undecided
		return 0, false
	}
	mant += mant & 1 // round the 54 bits to 53
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	return math.Float64frombits(exp<<52 | mant&(1<<52-1)), true
}

// shortestDecimal returns the shortest decimal s·10^k that rounds to f, a
// float64 in [1e-6, 1e21); of two such, the nearer to f, and of two as
// near, the even one: the digits strconv writes for precision -1. It is
// Schubfach (Giulietti, "The Schubfach way to render doubles", 2020): f's
// rounding interval, in quarter units of 2^q, is scaled by 10^-k to a width
// of at least one unit with one 128-bit multiply a bound, and a multiple of
// 10^(k+1) in it is taken over one of 10^k.
func shortestDecimal(f float64) (s uint64, k int) {
	fb := math.Float64bits(f)
	c, q := fb&(1<<52-1)|1<<52, int(fb>>52&0x7FF)-1075 // f = c·2^q
	// An integer below 2^53 is its own digits.
	if q <= 0 && q > -53 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	cbl, cb, cbr := 4*c-2, 4*c, 4*c+2
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	if c == 1<<52 {       // a power of two: the float below is half as near as the one above
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log10 (3/4)·2^q⌋
	}
	h := q + (-k*1741647)>>19 + 1 // q + ⌊log2 10^-k⌋ + 1, in [1, 4]
	g := &wirePow10Up[5-k]
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, cbr<<h)
	if c&1 != 0 { // an odd f's interval leaves its bounds out
		vbl++
		vbr--
	}
	s = vb >> 2
	if s >= 10 {
		sp := s / 10
		if lo, hi := vbl <= 40*sp, 40*sp+40 <= vbr; lo != hi {
			return sp + b2u(hi), k + 1
		}
	}
	if lo, hi := vbl <= 4*s, 4*s+4 <= vbr; lo != hi {
		return s + b2u(hi), k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 { // s and s+1 both in: the nearer, a tie to even
		s++
	}
	return s, k
}

// roundToOdd is g·cp/2^128, with its lowest bit set when what it drops
// could be non-zero.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	y0, carry := bits.Add64(y0, x1, 0)
	return (y1 + carry) | b2u(y0 > 1)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendShortest appends f, 1e-6 <= |f| < 1e21, as strconv.AppendFloat(b,
// f, 'f', -1, 64) does.
func appendShortest(b []byte, f float64) []byte {
	if f < 0 {
		b, f = append(b, '-'), -f
	}
	s, k := shortestDecimal(f)
	for s%10 == 0 {
		s, k = s/10, k+1
	}
	var buf [24]byte
	d := buf[putDigits(buf[:], s):]
	switch dp := len(d) + k; { // digits before the point
	case dp <= 0:
		return append(append(b, "0.00000"[:2-dp]...), d...)
	case dp < len(d):
		return append(append(append(b, d[:dp]...), '.'), d[dp:]...)
	default:
		return append(append(b, d...), "00000000000000000000"[:dp-len(d)]...)
	}
}

// appendInt is strconv.AppendInt(b, v, 10).
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b, u = append(b, '-'), -u
	}
	var buf [20]byte
	return append(b, buf[putDigits(buf[:], u):]...)
}

// putDigits writes u's decimal digits to the end of d, eight at a time
// while more than eight are left, and returns where they start.
func putDigits(d []byte, u uint64) int {
	i := len(d)
	for ; u >= 1e8; i -= 8 {
		q := u / 1e8
		v := uint32(u - q*1e8)
		hi, lo := v/10000, v%10000
		binary.LittleEndian.PutUint64(d[i-8:], uint64(wireDigitPairs[hi/100])|uint64(wireDigitPairs[hi%100])<<16|
			uint64(wireDigitPairs[lo/100])<<32|uint64(wireDigitPairs[lo%100])<<48)
		u = q
	}
	v := uint32(u)
	for ; v >= 100; v /= 100 {
		i -= 2
		binary.LittleEndian.PutUint16(d[i:], wireDigitPairs[v%100])
	}
	if v >= 10 {
		i -= 2
		binary.LittleEndian.PutUint16(d[i:], wireDigitPairs[v])
		return i
	}
	i--
	d[i] = byte('0' + v)
	return i
}

// wireDigitPairs[v] is v's two digits, for v < 100, as the uint16 a
// little-endian load of them reads.
var wireDigitPairs = func() (t [100]uint16) {
	for v := range t {
		t[v] = uint16('0'+v/10) | uint16('0'+v%10)<<8
	}
	return t
}()

func intValue(dst *int64, b []byte, i int) (int, wireStatus) {
	j := i
	if b[j] == '-' {
		j++
	}
	k := j
	u, j := digitRun(0, b[:min(len(b), k+18)], j)
	if j > k && (j == k+1 || b[k] != '0') && j < len(b) && !numberByte(b[j]) {
		if v := int64(u); b[i] == '-' {
			*dst = -v
		} else {
			*dst = v
		}
		return j, wireDone
	}
	tok, integer, st := numberToken(b, i)
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if st == wireDone && (!integer || err != nil) {
		st = wireDecline
	}
	*dst = v
	return i + len(tok), st
}

// numberByte reports whether c would continue a number's digits.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c|0x20 == 'e'
}

// intSizeValue is intValue for an int field.
func intSizeValue(dst *int, b []byte, i int) (int, wireStatus) {
	var v int64
	i, st := intValue(&v, b, i)
	if *dst = int(v); int64(*dst) != v {
		st = wireDecline
	}
	return i, st
}

// boolValue takes the literal true or false at b[i]; anything that is not
// the start of one declines.
func boolValue(dst *bool, b []byte, i int) (int, wireStatus) {
	for _, lit := range [...]string{"true", "false"} {
		if n := min(len(lit), len(b)-i); string(b[i:i+n]) == lit[:n] {
			if n < len(lit) {
				return i, wireShort
			}
			*dst = lit == "true"
			return i + n, wireDone
		}
	}
	return i, wireDecline
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// msgReader reads the messages one stream carries, in order: what a read
// took past the end of one message is the start of the next.
type msgReader struct {
	r    io.Reader
	rest []byte // read past the last message, leading whitespace dropped
	buf  []byte // fill's storage
	n    int64  // bytes read from r
}

func (m *msgReader) Read(b []byte) (int, error) {
	if len(m.rest) > 0 {
		n := copy(b, m.rest)
		m.rest = m.rest[n:]
		return n, nil
	}
	n, err := m.r.Read(b)
	m.n += int64(n)
	return n, err
}

// fill waits for the next message's first bytes, failing only when r ends
// or fails before any arrive.
func (m *msgReader) fill() error {
	if m.buf == nil {
		m.buf = make([]byte, 512)
	}
	for len(m.rest) == 0 {
		n, err := m.Read(m.buf)
		m.rest = m.buf[:n]
		if n == 0 && err != nil {
			return err
		}
	}
	return nil
}

// keep puts tail, read past a message's end, ahead of what rest still holds.
func (m *msgReader) keep(tail []byte) {
	if tail = tail[skipSpace(tail, 0):]; len(tail) > 0 {
		m.rest = append(append([]byte(nil), tail...), m.rest...)
	}
}

// readMessage reads one message of at most maxBytes from mr into a pooled
// buffer and parses it into msg as it fills, a request's digests into spare
// when it holds them. What the parser declines, or is still incomplete when
// mr ends or the limit is reached, goes to encoding/json as the bytes
// already read plus the rest of mr under the same limit, and gets its
// result and error text. A reader that has failed is not read again: the
// fallback is handed the error it returned. exceeded reports that the error
// is the limit's. What either read past the message's end stays in mr for
// the next one.
//
// Past its pooled buffer, what the parser allocates for a message of n bytes
// is its arrays and, once it is complete, its strings: one allocation a
// message, at most n bytes (wireStrings). An array of objects opens presized
// from the bytes in sight to at most n/12+1 entries, or in spare when that
// holds them, and grows by append for elements past that: ones still to
// arrive, or averaging under 12 bytes. The spares a server offers come from
// wireDigests, which keeps none over wireMaxPooledDigests entries: at most
// one per request served at once, each at most wireMaxPooledDigests × 72
// bytes.
func readMessage[M Request | Response, P wirePtr[M]](mr *msgReader, maxBytes int64, msg P, spare []NodeDigest) (exceeded bool, err error) {
	var r io.Reader = mr
	bp := wireBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		wireBufs.Put(bp)
	}()
	p := messageParser{msg: msg, spare: spare}
	for st := wireShort; st == wireShort && int64(len(buf)) < maxBytes; {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*int64(cap(buf)), maxBytes)), buf...)
		}
		n, rerr := r.Read(buf[len(buf):min(int64(cap(buf)), maxBytes)])
		buf = buf[:len(buf)+n]
		if n > 0 {
			if st = p.parse(buf); st == wireDone {
				mr.keep(buf[p.pos:])
				return false, nil
			} else if len(buf)-p.pos > wireMaxPending {
				st = wireDecline
			}
		}
		if rerr != nil {
			r = errReader{rerr}
			break
		}
	}
	*msg = *new(M)            // the parser filled part of it,
	clear(spare[:cap(spare)]) // and perhaps of spare, which goes back to the pool zeroed
	exceeded, rest, err := decodeBounded(io.MultiReader(bytes.NewReader(buf), r), maxBytes, msg)
	if err == nil {
		mr.keep(rest)
	}
	return exceeded, err
}
