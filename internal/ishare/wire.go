package ishare

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/availability"
)

// The hand-written half of the request codec; the package comment has the
// subset it takes and the rule that the rest is encoding/json's.

// wireBufs pools message buffers, none larger than its exchange's limit.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// wireStates interns the state strings digests carry: a decoded batch
// allocates one string per digest (its name), not two.
var wireStates = func() map[string]string {
	m := make(map[string]string)
	for s := availability.S1; s <= availability.S5; s++ {
		m[s.String()], m[s.Short()] = s.String(), s.Short()
	}
	return m
}()

// wireEnc appends a Request as json.Encoder writes it. ok turns false when
// a value needs encoding/json (escaping, the NaN/Inf error).
type wireEnc struct {
	b  []byte
	ok bool
}

// str, num and float write one `,"key":value` member, omitempty unless keep.
func (e *wireEnc) str(key, s string, keep bool) {
	if s == "" && !keep {
		return
	}
	for i := 0; i < len(s); i++ {
		// Outside these, json.Encoder copies a byte through unescaped.
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
		}
	}
	e.b = append(append(append(append(e.b, key...), '"'), s...), '"')
}

func (e *wireEnc) num(key string, v int64) {
	if v != 0 {
		e.b = strconv.AppendInt(append(e.b, key...), v, 10)
	}
}

func (e *wireEnc) float(key string, f float64) {
	if f == 0 {
		return
	}
	// As encoding/json: 'e' outside [1e-6, 1e21), exponent unpadded; NaN
	// and the infinities are its error to report.
	abs, format := math.Abs(f), byte('f')
	if abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	e.ok = e.ok && abs <= math.MaxFloat64
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
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
	e.str(`,"name":`, req.Name, false)
	e.str(`,"addr":`, req.Addr, false)
	e.str(`,"state":`, req.State, false)
	e.float(`,"load":`, req.Load)
	e.num(`,"gen":`, req.Gen)
	open := `,"digests":[{"name":`
	for i := range req.Digests {
		d := &req.Digests[i]
		e.str(open, d.Name, true)
		e.str(`,"addr":`, d.Addr, false)
		e.str(`,"state":`, d.State, false)
		e.float(`,"load":`, d.Load)
		e.num(`,"gen":`, d.Gen)
		e.num(`,"unix_ms":`, d.UnixMS)
		e.b = append(e.b, '}')
		open = `,{"name":`
	}
	if len(req.Digests) > 0 {
		e.b = append(e.b, ']')
	}
	open = `,"names":[`
	for _, name := range req.Names {
		e.str(open, name, true)
		open = ","
	}
	if len(req.Names) > 0 {
		e.b = append(e.b, ']')
	}
	e.num(`,"horizon_ms":`, req.HorizonMS)
	e.num(`,"limit":`, int64(req.Limit))
	e.str(`,"trace":`, req.Trace, false)
	return append(e.b, '}', '\n'), e.ok
}

// wireStatus is what a parse step found.
type wireStatus uint8

const (
	wireShort   wireStatus = iota // the input ends inside the value: read more
	wireDone                      // complete
	wireDecline                   // outside the subset: encoding/json decides
)

// wireMaxPending bounds what readRequest lets a parse leave unconsumed:
// restart points are a scalar apart, so more than this pending is a string
// no request carries, and handing it over keeps a peer that trickles bytes
// from buying a rescan of it with each one.
const wireMaxPending = 4096

// Where a requestParser is: what it expects next.
const (
	atOpen    uint8 = iota // the request's '{'
	atRequest              // a request member, or '}'
	atDigests              // a "digests" element, or ']'
	atDigest               // a member of the digest in cur, or '}'
	atNames                // a "names" element, or ']'
)

// requestParser parses one Request in a single pass over a buffer that may
// still be filling: parse consumes what is complete, stops before a member
// or an array element and resumes there when called with the same bytes
// and more. It declines no later than encoding/json would report an error
// and is done where encoding/json would be, at the closing '}'.
type requestParser struct {
	req   Request
	cur   NodeDigest // the digest being parsed
	pos   int        // b[:pos] is consumed
	at    uint8
	first bool // nothing of the current object or array consumed: no comma due
}

func (p *requestParser) parse(b []byte) wireStatus {
	for {
		i := skipSpace(b, p.pos)
		if i == len(b) {
			return wireShort
		}
		switch c := b[i]; {
		case p.at == atOpen && c == '{':
			p.pos, p.at, p.first = i+1, atRequest, true
			continue
		case p.at == atOpen:
			return wireDecline
		case p.at == atRequest && c == '}':
			return wireDone
		case p.at == atDigest && c == '}':
			p.req.Digests = append(p.req.Digests, p.cur)
			p.pos, p.at, p.first = i+1, atDigests, false
			continue
		case (p.at == atDigests || p.at == atNames) && c == ']':
			p.pos, p.at, p.first = i+1, atRequest, false
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
		st, opened := wireDone, false
		switch p.at {
		case atRequest, atDigest:
			i, opened, st = p.member(b, i)
		case atDigests:
			if b[i] != '{' {
				return wireDecline
			}
			i, opened, p.at, p.cur = i+1, true, atDigest, NodeDigest{}
		case atNames:
			var s string
			if s, i, st = stringValue(b, i); st == wireDone {
				p.req.Names = append(p.req.Names, s)
			}
		}
		if st != wireDone {
			return st
		}
		p.pos, p.first = i, opened
	}
}

// member parses one `"key":value` of the request or of the current digest
// at b[i]. An array value is only opened (p.at moves into it): its elements
// are parse's.
func (p *requestParser) member(b []byte, i int) (_ int, opened bool, st wireStatus) {
	key, i, st := rawString(b, i)
	if st == wireDone {
		if i = skipSpace(b, i); i < len(b) && b[i] != ':' {
			return i, false, wireDecline
		}
		if i = skipSpace(b, min(i+1, len(b))); i == len(b) {
			st = wireShort
		}
	}
	if st != wireDone {
		return i, false, st
	}
	// The five members a digest shares with the envelope, then each one's
	// own. A repeated scalar takes its last value, as in encoding/json.
	name, addr, state, load, gen := &p.req.Name, &p.req.Addr, &p.req.State, &p.req.Load, &p.req.Gen
	if p.at == atDigest {
		name, addr, state, load, gen = &p.cur.Name, &p.cur.Addr, &p.cur.State, &p.cur.Load, &p.cur.Gen
	}
	switch { // string(key) in a comparison does not copy the key
	case string(key) == "name":
		*name, i, st = stringValue(b, i)
	case string(key) == "addr":
		*addr, i, st = stringValue(b, i)
	case string(key) == "state":
		*state, i, st = stringValue(b, i)
	case string(key) == "load":
		*load, i, st = floatValue(b, i)
	case string(key) == "gen":
		*gen, i, st = intValue(b, i, 64)
	case string(key) == "unix_ms" && p.at == atDigest:
		p.cur.UnixMS, i, st = intValue(b, i, 64)
	case p.at == atDigest:
		return i, false, wireDecline
	case string(key) == "op":
		p.req.Op, i, st = stringValue(b, i)
	case string(key) == "horizon_ms":
		p.req.HorizonMS, i, st = intValue(b, i, 64)
	case string(key) == "limit":
		var v int64
		v, i, st = intValue(b, i, strconv.IntSize)
		p.req.Limit = int(v)
	case string(key) == "trace":
		p.req.Trace, i, st = stringValue(b, i)
	case string(key) == "digests" && b[i] == '[' && p.req.Digests == nil:
		// Pre-sized from the braces in sight, but never beyond what the
		// bytes could hold (`{"name":""},` is 12).
		rest := b[i+1:]
		p.req.Digests = make([]NodeDigest, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/12+1))
		i, opened, p.at = i+1, true, atDigests
	case string(key) == "names" && b[i] == '[' && p.req.Names == nil:
		i, opened, p.at, p.req.Names = i+1, true, atNames, []string{}
	default: // unknown, other-case, job, host_*, null, a repeated array: encoding/json's rules apply
		return i, false, wireDecline
	}
	return i, opened, st
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

func stringValue(b []byte, i int) (string, int, wireStatus) {
	s, i, st := rawString(b, i)
	if len(s) > 1 && s[0] == 'S' { // only a state starts so: no lookup for the names
		if v, ok := wireStates[string(s)]; ok {
			return v, i, st
		}
	}
	return string(s), i, st
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
func floatValue(b []byte, i int) (float64, int, wireStatus) {
	tok, _, st := numberToken(b, i)
	f, err := strconv.ParseFloat(string(tok), 64)
	if st == wireDone && err != nil {
		st = wireDecline
	}
	return f, i + len(tok), st
}

func intValue(b []byte, i, bits int) (int64, int, wireStatus) {
	tok, integer, st := numberToken(b, i)
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if st == wireDone && (!integer || err != nil) {
		st = wireDecline
	}
	return v, i + len(tok), st
}

// readRequest reads one request of at most maxBytes from r into a pooled
// buffer and parses it as it fills. What the parser declines, or is still
// incomplete when r ends or the limit is reached, goes to encoding/json as
// the bytes already read plus the rest of r under the same limit, and gets
// its result and error text. exceeded reports that the error is the limit's.
func readRequest(r io.Reader, maxBytes int64) (req Request, exceeded bool, err error) {
	bp := wireBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		wireBufs.Put(bp)
	}()
	var p requestParser
	for st := wireShort; st == wireShort && int64(len(buf)) < maxBytes; {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*int64(cap(buf)), maxBytes)), buf...)
		}
		n, rerr := r.Read(buf[len(buf):min(int64(cap(buf)), maxBytes)])
		buf = buf[:len(buf)+n]
		if n > 0 {
			if st = p.parse(buf); st == wireDone {
				return p.req, false, nil
			} else if len(buf)-p.pos > wireMaxPending {
				st = wireDecline
			}
		}
		if rerr != nil {
			break
		}
	}
	if exceeded, err = decodeBounded(io.MultiReader(bytes.NewReader(buf), r), maxBytes, &req); err != nil {
		return Request{}, exceeded, err
	}
	return req, false, nil
}
