package ishare

import (
	"bytes"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"

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
// short and long form, indexed by the state's digit: a decoded batch
// allocates one string per digest (its name), not two.
var wireStates = func() (t [5][2]string) {
	for s := availability.S1; s <= availability.S5; s++ {
		t[s-availability.S1] = [2]string{s.Short(), s.String()}
	}
	return t
}()

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
		e.b = strconv.AppendInt(append(e.b, key...), v, 10)
	}
}

func (e *wireEnc) float(key string, f float64, keep bool) {
	if f == 0 && !keep {
		return
	}
	// As encoding/json: 'e' outside [1e-6, 1e21) except for a zero (0 or
	// -0), exponent unpadded; NaN and the infinities are its error to report.
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.ok = e.ok && abs <= math.MaxFloat64
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
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

// digests and strs write the array members both message types carry.
func (e *wireEnc) digests(ds []NodeDigest) {
	open := `,"digests":[{"name":`
	for i := range ds {
		d := &ds[i]
		e.str(open, d.Name, true)
		e.str(`,"addr":`, d.Addr, false)
		e.str(`,"state":`, d.State, false)
		e.float(`,"load":`, d.Load, false)
		e.num(`,"gen":`, d.Gen, false)
		e.num(`,"unix_ms":`, d.UnixMS, false)
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
// (a job, host_* fields, a string needing escapes, NaN or Inf).
func appendRequest(b []byte, req *Request) ([]byte, bool) {
	if req.Job != nil || req.HostLoad != 0 || req.HostMemMB != 0 {
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

// appendResponse is appendRequest for a Response; info, job and shard_map
// are outside the subset.
func appendResponse(b []byte, resp *Response) ([]byte, bool) {
	if resp.Info != nil || resp.Job != nil || resp.ShardMap != nil {
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
	e.digests(resp.Digests)
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
// restart points are a scalar apart, so more than this pending is a string
// no message carries, and handing it over keeps a peer that trickles bytes
// from buying a rescan of it with each one.
const wireMaxPending = 4096

// Where a messageParser is: what it expects next.
const (
	atOpen     uint8 = iota // the message's '{'
	atEnvelope              // a member of the message, or '}'
	atObjects               // an element of the open array of objects, or ']'
	atObject                // a member of the open array's last element, or '}'
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
			return wireDone
		case p.at == atObject && c == '}':
			p.pos, p.at, p.first = i+1, atObjects, false
			continue
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
		case atEnvelope, atObject:
			i, st = p.member(b, i)
		case atObjects:
			if b[i] != '{' {
				return wireDecline
			}
			// An element as the encoder writes it is taken whole; any
			// other goes member by member.
			if j, walked := p.objs.element(b, i); walked {
				i = j
			} else {
				i, p.at = i+1, atObject
			}
		case atStrings:
			var s string
			if i, st = stringValue(&s, b, i); st == wireDone {
				*p.strs = append(*p.strs, s)
			}
		}
		if st != wireDone {
			return st
		}
		p.pos, p.first = i, p.at != at // moved into an array or an element: nothing of it consumed yet
	}
}

// member parses one `"key":value` of the message or of the open array's
// last element at b[i] into the field its table names. An array value is
// only opened (p.at moves into it): its elements are parse's. A repeated
// scalar takes its last value, as in encoding/json.
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
	if p.at == atObject {
		return p.objs.member(key, b, i)
	}
	return p.msg.wireMember(p, key, b, i)
}

// wireObject is the message the parser fills. wireMember is its key →
// field table, all that tells a Request from a Response: it parses the
// value at b[i] into the field key names, and declines what encoding/json
// must decide (an unknown or other-case key; job, host_*, info,
// shard_map).
type wireObject interface {
	wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus)
}

// wirePtr is *T for a T the parser can fill.
type wirePtr[T any] interface {
	*T
	wireObject
}

func (o *Request) wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus) {
	switch string(key) { // no copy of the key: a switch tag, not a value
	case "op":
		return stringValue(&o.Op, b, i)
	case "digests":
		return openObjects(p, &o.Digests, p.spare, digestFields, b, i)
	case "names":
		return p.openStrings(&o.Names, b, i)
	case "horizon_ms":
		return intValue(&o.HorizonMS, b, i)
	case "limit":
		return intSizeValue(&o.Limit, b, i)
	case "trace":
		return stringValue(&o.Trace, b, i)
	}
	return i, wireDecline
}

func (o *Response) wireMember(p *messageParser, key, b []byte, i int) (int, wireStatus) {
	switch string(key) {
	case "ok":
		return boolValue(&o.OK, b, i)
	case "error":
		return stringValue(&o.Error, b, i)
	case "nodes":
		return openObjects(p, &o.Nodes, nil, nodeFields, b, i)
	case "digests":
		return openObjects(p, &o.Digests, nil, digestFields, b, i)
	case "missing":
		return p.openStrings(&o.Missing, b, i)
	case "forecasts":
		return openObjects(p, &o.Forecasts, nil, forecastFields, b, i)
	case "retry_after_ms":
		return intValue(&o.RetryAfterMS, b, i)
	}
	return i, wireDecline
}

// wireField is one member of a flat object: its key as the encoder writes
// it, quoted and with its colon, and what parses its value. A flat object's
// table lists its members in the order appendRequest and appendResponse
// write them, and is all the parser knows of the type.
type wireField[T any] struct {
	key   string
	value func(o *T, b []byte, i int) (int, wireStatus)
}

var digestFields = []wireField[NodeDigest]{
	{`"name":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return stringValue(&o.Name, b, i) }},
	{`"addr":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return stringValue(&o.Addr, b, i) }},
	{`"state":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return stateValue(&o.State, b, i) }},
	{`"load":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return floatValue(&o.Load, b, i) }},
	{`"gen":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
	{`"unix_ms":`, func(o *NodeDigest, b []byte, i int) (int, wireStatus) { return intValue(&o.UnixMS, b, i) }},
}

var nodeFields = []wireField[NodeInfo]{
	{`"name":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return stringValue(&o.Name, b, i) }},
	{`"addr":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return stringValue(&o.Addr, b, i) }},
	{`"alive":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return boolValue(&o.Alive, b, i) }},
	{`"last_seen_ms":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.LastSeenMS, b, i) }},
	{`"state":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return stateValue(&o.State, b, i) }},
	{`"load":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return floatValue(&o.Load, b, i) }},
	{`"gen":`, func(o *NodeInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
}

var forecastFields = []wireField[ForecastInfo]{
	{`"name":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return stringValue(&o.Name, b, i) }},
	{`"known":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return boolValue(&o.Known, b, i) }},
	{`"survival":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return floatValue(&o.Survival, b, i) }},
	{`"samples":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intSizeValue(&o.Samples, b, i) }},
	{`"state":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return stateValue(&o.State, b, i) }},
	{`"gen":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.Gen, b, i) }},
	{`"unix_ms":`, func(o *ForecastInfo, b []byte, i int) (int, wireStatus) { return intValue(&o.UnixMS, b, i) }},
}

// walkFields parses the object at b[i] ('{') into o if it is exactly what
// the encoder writes: members in the table's order, each at most once,
// nothing between tokens, then '}'. It returns the index after the '}', or
// false on any other input, one that ends first included, having filled
// some of o.
func walkFields[T any](fields []wireField[T], o *T, b []byte, i int) (int, bool) {
	i, comma := i+1, 0 // no comma before the first member
	for _, f := range fields {
		k := i + comma
		if v := k + len(f.key); v < len(b) && (comma == 0 || b[i] == ',') && string(b[k:v]) == f.key {
			var st wireStatus
			if i, st = f.value(o, b, v); st != wireDone {
				return 0, false
			}
			comma = 1
		}
	}
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	return 0, false
}

// wireArray is the open array of flat objects. element appends a slot for
// the element at b[i] ('{') and walks its table into it; when the walk
// fails the slot is left zero, for member to fill key by key.
type wireArray interface {
	element(b []byte, i int) (int, bool)
	member(key, b []byte, i int) (int, wireStatus)
}

type wireObjects[T any] struct {
	dst    *[]T
	fields []wireField[T]
}

func (a *wireObjects[T]) element(b []byte, i int) (int, bool) {
	*a.dst = append(*a.dst, *new(T))
	o := &(*a.dst)[len(*a.dst)-1]
	j, ok := walkFields(a.fields, o, b, i)
	if !ok {
		*o = *new(T)
	}
	return j, ok
}

func (a *wireObjects[T]) member(key, b []byte, i int) (int, wireStatus) {
	for _, f := range a.fields {
		if string(key) == f.key[1:len(f.key)-2] {
			return f.value(&(*a.dst)[len(*a.dst)-1], b, i)
		}
	}
	return i, wireDecline
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

// rawString returns the string at b[i] unquoted and the index after it.
// Escapes, control bytes and non-ASCII decline, at the byte itself; so does
// anything that is not a string (null included).
func rawString(b []byte, i int) ([]byte, int, wireStatus) {
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

// stringValue stores a copy of the string at b[i] in *dst.
func stringValue(dst *string, b []byte, i int) (int, wireStatus) {
	s, i, st := rawString(b, i)
	*dst = string(s)
	return i, st
}

// stateValue is stringValue for a "state" member: one of the five state
// names, in either form, is stored as its interned string, with no
// allocation; any other value is copied.
func stateValue(dst *string, b []byte, i int) (int, wireStatus) {
	s, i, st := rawString(b, i)
	if len(s) > 1 && s[0] == 'S' && s[1]-'1' < 5 {
		if form := wireStates[s[1]-'1'][min(len(s)-2, 1)]; string(s) == form {
			*dst = form
			return i, st
		}
	}
	*dst = string(s)
	return i, st
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
// Each builds the common case as it scans and leaves the rest to those
// calls: intValue a plain integer of up to 18 digits, which cannot
// overflow; floatValue a [-]int[.frac] of at most 19 significant digits
// and at most 22 fraction digits. A mantissa m below 2^53 and 10^k are
// exact as float64s, so m/10^k rounds once, as in strconv's own exact
// path; a larger one, as a 17-digit load has, goes through eiselLemire,
// the step strconv takes next, and only what that cannot decide is
// rescanned for strconv.
func floatValue(dst *float64, b []byte, i int) (int, wireStatus) {
	j, sign := i, 1.0
	if b[j] == '-' {
		j, sign = j+1, -1.0
	}
	var m uint64
	k, dot, sig := j, -1, 0 // sig counts digits from the first non-zero one
	for ; j < len(b); j++ {
		if c := b[j]; '0' <= c && c <= '9' {
			if sig > 0 || c != '0' { // apart from m, which 20 digits can wrap to 0
				sig++
			}
			m = 10*m + uint64(c-'0')
		} else if c != '.' || dot >= 0 {
			break
		} else {
			dot = j
		}
	}
	whole, frac := j-k, 0
	if dot >= 0 {
		whole, frac = dot-k, j-dot-1
	}
	if whole > 0 && (whole == 1 || b[k] != '0') && (dot < 0 || frac > 0) && sig <= 19 && frac <= 22 &&
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

func intValue(dst *int64, b []byte, i int) (int, wireStatus) {
	j := i
	if b[j] == '-' {
		j++
	}
	var v int64
	k := j
	for ; j < len(b) && j-k < 18 && '0' <= b[j] && b[j] <= '9'; j++ {
		v = 10*v + int64(b[j]-'0')
	}
	if j > k && (j == k+1 || b[k] != '0') && j < len(b) && !numberByte(b[j]) {
		if b[i] == '-' {
			v = -v
		}
		*dst = v
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
// Past its pooled buffer, what the parser allocates for a message of n
// bytes is its strings and its arrays. An array of objects opens presized
// from the bytes in sight to at most n/12+1 entries, or in spare when that
// holds them, and grows by append for elements past that: ones still to
// arrive, or averaging under 12 bytes. The spares a server offers come
// from wireDigests, which keeps none over wireMaxPooledDigests entries: at
// most one per request served at once, each at most wireMaxPooledDigests ×
// 72 bytes.
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
