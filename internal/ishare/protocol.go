// Package ishare implements a miniature of the iShare system the paper's
// trace study runs on (Section 5): a resource registry for publication and
// discovery, node agents that publish machines and run the non-intrusive
// monitor/detector on them, and a client for job submission.
//
// The registry detects resource revocation (URR / S5) exactly as the paper
// describes: the FGCS service on a node stops responding — here, its
// heartbeats stop — and the resource is reported offline. Guest jobs
// submitted to a node run on the node's simulated machine under the
// five-state controller: they are reniced in S2, suspended through
// transient spikes, and killed on S3/S4.
//
// The wire protocol is newline-delimited JSON requests, each answered before
// the next, on a TCP connection that carries many — debuggable with netcat.
// A client keeps the connections its exchanges end with idle, per address,
// for up to half its Limits.IODeadline, when its Dialer's may carry many
// (the default's do); a server ends one idle for its IODeadline. Every
// registry mutation carries an array — a node registers and heartbeats as a
// batch of one — and every registry is named by a shard list, a single
// registry by a list of one.
//
// Both message types have one codec in two halves. The shapes moved in bulk
// — an envelope of scalars, arrays of flat objects (digests, nodes,
// forecasts) and arrays of strings (names, missing): register_batch,
// heartbeat_batch, list, forecast and their replies — are written
// and parsed by hand (wire.go), without reflection: roundTrip and serveConn
// each send the bytes json.Encoder would, in one Write, and parse the
// message as it arrives, in one pass, with one state machine that knows the
// types only by their key → field tables. A flat object's table is ordered:
// it fixes the order in which the encoder writes the object's members and
// the only order in which the parser takes them, an element whole, walked
// again from its '{' when a read cut it. That half takes a strict subset:
// known keys in exact case, no array twice; elements with their members in
// table order, each once, and no space inside; strings without escapes,
// control bytes or non-ASCII (nor, written, <, > or &); strict-grammar
// numbers that fit their field, no NaN or Inf; no null; no job, host_* or
// info member. A string is found eight bytes a step and is a view of the
// read buffer while the message fills; a complete message's strings are copied
// into one allocation of their own, so none views a pooled buffer (a state
// name is its interned form). A number is converted in the scan that finds
// it, eight digits a step, to the bits strconv gives: a decimal of at most
// 19 significant and 22 fraction digits as m/10^k when its mantissa is
// below 2^53, and above that by the Eisel–Lemire step strconv runs; only a
// number of another form, or one that step cannot decide, is rescanned for
// strconv. A number is written as strconv writes it: an integer, and a
// float's shortest digits, eight at a time from a two-digit table, the
// float's found by Schubfach in [1e-6, 1e21) and by strconv outside it (the
// 'e' form, zero); a batch's digests that share a stamp copy its bytes. All
// else — submit, info and their replies, malformed or oversized
// input — goes to encoding/json (decodeBounded, json.Encoder below) as the
// bytes already read plus the rest of the connection, and gets its result
// and error text: not a codec a caller can select, but where the subset
// ends and the oracle FuzzWireCodec holds it to.
package ishare

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Request is the single message type clients and nodes send.
type Request struct {
	// Op selects the action: "register_batch", "heartbeat_batch",
	// "unregister", "list", "forecast" (registry); "info",
	// "submit" (node).
	Op string `json:"op"`
	// Job carries a submission (submit).
	Job *JobSpec `json:"job,omitempty"`
	// Digests carries a batch of node states for register_batch and
	// heartbeat_batch. A heartbeat digest without a state only refreshes
	// liveness.
	Digests []NodeDigest `json:"digests,omitempty"`
	// Names lists the nodes a forecast asks about or an unregister removes.
	Names []string `json:"names,omitempty"`
	// HorizonMS is how far ahead, in wall milliseconds, a forecast
	// request looks (forecast).
	HorizonMS int64 `json:"horizon_ms,omitempty"`
	// Limit, when positive, asks for the ranked list discovery uses: at
	// most Limit alive S1 and S2 nodes, S1 first. Zero asks for the full
	// listing: every registered node, dead ones included.
	Limit int `json:"limit,omitempty"`
	// Trace correlates this exchange with the logical operation (usually a
	// job placement) it belongs to: the client stamps the context's trace
	// ID here and serving components log it, so one job's discovery,
	// submissions, retries and failovers line up across process logs.
	Trace string `json:"trace,omitempty"`
}

// NodeDigest is the compact availability summary the scale-out control
// plane moves around: batched registrations and heartbeats carry them to
// registry shards. Gen is the node's own version counter; a digest with a
// higher Gen (ties broken by the later UnixMS stamp) supersedes any older
// one for the same name.
type NodeDigest struct {
	Name  string  `json:"name"`
	Addr  string  `json:"addr,omitempty"`
	State string  `json:"state,omitempty"`
	Load  float64 `json:"load,omitempty"`
	Gen   int64   `json:"gen,omitempty"`
	// UnixMS is the wall-clock stamp of the observation behind this
	// digest; consumers bound staleness with it.
	UnixMS int64 `json:"unix_ms,omitempty"`
}

// Newer reports whether d supersedes the other digest for the same node.
func (d NodeDigest) Newer(o NodeDigest) bool {
	if d.Gen != o.Gen {
		return d.Gen > o.Gen
	}
	return d.UnixMS > o.UnixMS
}

// JobSpec describes a guest job: a compute-bound batch program.
type JobSpec struct {
	Name string `json:"name"`
	// CPUSeconds is the total virtual CPU time the job needs, including
	// any portion already completed elsewhere (see ResumeCPUSeconds).
	CPUSeconds float64 `json:"cpu_seconds"`
	// RSSMB is the job's working set in MiB.
	RSSMB int64 `json:"rss_mb"`
	// ID identifies one logical submission across retries and failover.
	// Nodes remember completed IDs and return the cached result instead
	// of re-running, so a resubmission after a dropped response cannot
	// execute the job twice.
	ID string `json:"id,omitempty"`
	// ResumeCPUSeconds is virtual compute this job already completed on
	// another node before being killed there (URR/UEC). The node runs
	// only the remainder and reports cumulative progress.
	ResumeCPUSeconds float64 `json:"resume_cpu_seconds,omitempty"`
}

// NodeInfo is a registry entry.
type NodeInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Alive reports whether the node heartbeated within the TTL; a dead
	// entry is the observable signature of URR (state S5).
	Alive bool `json:"alive"`
	// LastSeenMS is the wall-clock time of the last heartbeat.
	LastSeenMS int64 `json:"last_seen_ms"`
	// State, Load and Gen echo the node's last reported availability
	// digest. State is empty for a node that never reported one; the
	// ranked list leaves such nodes out, so placement never sees them.
	State string  `json:"state,omitempty"`
	Load  float64 `json:"load,omitempty"`
	Gen   int64   `json:"gen,omitempty"`
}

// NodeStatus is a node's self-report.
type NodeStatus struct {
	// State is the current availability state string (e.g. "S1(full)").
	State string `json:"state"`
	// HostCPU is the last observed host load.
	HostCPU float64 `json:"host_cpu"`
	// FreeMemMB is the memory available for guests.
	FreeMemMB int64 `json:"free_mem_mb"`
	// VirtualNowMS is the machine's virtual clock.
	VirtualNowMS int64 `json:"virtual_now_ms"`
}

// JobResult reports a submission's fate.
type JobResult struct {
	// Completed is true when the guest finished its work.
	Completed bool `json:"completed"`
	// Outcome is "completed", "killed" or "timeout".
	Outcome string `json:"outcome"`
	// FinalState is the availability state when the job ended.
	FinalState string `json:"final_state"`
	// GuestCPUSeconds is the job's cumulative virtual compute: the resume
	// offset it started from plus the CPU time this node delivered. On a
	// kill it doubles as the checkpoint the broker resumes from.
	GuestCPUSeconds float64 `json:"guest_cpu_seconds"`
	// WallSeconds is the virtual wall time the job occupied the node.
	WallSeconds float64 `json:"wall_seconds"`
	// Suspensions counts transient-spike suspensions survived.
	Suspensions int `json:"suspensions"`
	// ResumedFrom echoes the resume offset this run started at.
	ResumedFrom float64 `json:"resumed_from,omitempty"`
	// Deduped is true when the node recognized a completed job ID and
	// returned the cached result without re-running.
	Deduped bool `json:"deduped,omitempty"`
}

// ForecastInfo is one node's availability forecast: the one estimate
// consumers read (Survival), what tells it from a guess (Known, Samples)
// and the digest stamp (State/Gen/UnixMS echo the node's last heartbeat
// digest) that bounds the staleness of the history behind it, exactly as
// for discovery results.
type ForecastInfo struct {
	Name string `json:"name"`
	// Known is false when the registry has never observed this node;
	// Survival is then the cold-start prior 0.5.
	Known bool `json:"known"`
	// Survival is the history-window survival forecast over the horizon:
	// P(no unavailability event starts in the matching clock window),
	// from the same-clock-window history the paper's predictor uses.
	Survival float64 `json:"survival"`
	// Samples counts the history windows behind Survival (0 = prior).
	Samples int `json:"samples,omitempty"`
	// State, Gen and UnixMS echo the node's stored digest.
	State  string `json:"state,omitempty"`
	Gen    int64  `json:"gen,omitempty"`
	UnixMS int64  `json:"unix_ms,omitempty"`
}

// Response is the uniform reply envelope.
type Response struct {
	OK    bool        `json:"ok"`
	Error string      `json:"error,omitempty"`
	Nodes []NodeInfo  `json:"nodes,omitempty"`
	Info  *NodeStatus `json:"info,omitempty"`
	Job   *JobResult  `json:"job,omitempty"`
	// Missing names the heartbeat_batch entries the registry does not
	// know, so the sender can re-register exactly those.
	Missing []string `json:"missing,omitempty"`
	// Forecasts answers a forecast request, one entry per requested name
	// in request order.
	Forecasts []ForecastInfo `json:"forecasts,omitempty"`
	// RetryAfterMS, on a load-shed failure (OK false), hints how long the
	// caller should back off before retrying. Zero on every other path.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// decodeBounded decodes one JSON value of at most maxBytes from r into v
// with encoding/json; exceeded reports that the error is the limit's, and
// rest holds what the decoder read past the value.
func decodeBounded(r io.Reader, maxBytes int64, v any) (exceeded bool, rest []byte, err error) {
	lr := &io.LimitedReader{R: r, N: maxBytes}
	br := bufio.NewReader(lr)
	dec := json.NewDecoder(br)
	if err = dec.Decode(v); err != nil {
		return lr.N <= 0, nil, err
	}
	rest, _ = io.ReadAll(dec.Buffered())
	ahead, _ := br.Peek(br.Buffered())
	return false, append(rest, ahead...), nil
}

// writeMessage sends msg, a *Request or a *Response, on w: appended into a
// pooled buffer and written in one Write, or through json.Encoder when the
// codec declines it. maxBytes is the exchange's limit, which no pooled
// buffer outgrows.
func writeMessage(w io.Writer, msg any, maxBytes int64) (err error) {
	bp := wireBufs.Get().(*[]byte)
	buf, fast := (*bp)[:0], false
	switch m := msg.(type) {
	case *Request:
		buf, fast = appendRequest(buf, m)
	case *Response:
		buf, fast = appendResponse(buf, m)
	}
	if fast {
		_, err = w.Write(buf)
	} else {
		err = json.NewEncoder(w).Encode(msg)
	}
	if int64(cap(buf)) <= maxBytes {
		*bp = buf[:0]
		wireBufs.Put(bp)
	}
	return err
}

// connPool keeps a client's idle connections, a stack per address: an
// exchange that ends well pushes its connection and the next one pops the
// most recent, so an address holds at most as many as were once in flight
// to it together. An address is a key only while it holds one: the map has
// at most as many keys as connections idle within maxIdle.
type connPool struct {
	mu    sync.Mutex
	idle  map[string][]*poolConn // per address, least recently used first; never empty
	dials *obs.Counter           // nil: not counted
}

// poolConn is a client connection and the reader of its responses.
type poolConn struct {
	net.Conn
	r    msgReader
	used time.Time // the end of its last exchange
}

// get pops addr's most recently used connection, nil when none idled at
// most maxIdle; put pushes c. Both close the connections idle past maxIdle,
// get at addr and put at every address, and a negative maxIdle closes all.
func (p *connPool) get(addr string, maxIdle time.Duration) (c *poolConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.prune(addr, maxIdle); len(s) > 0 {
		c = s[len(s)-1]
		p.keep(addr, slices.Delete(s, len(s)-1, len(s)))
	}
	return c
}

func (p *connPool) put(addr string, c *poolConn, maxIdle time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for a := range p.idle {
		p.prune(a, maxIdle)
	}
	if c != nil {
		c.used = time.Now()
		p.keep(addr, append(p.prune(addr, maxIdle), c))
	}
}

// prune closes the bottom of addr's stack idle past maxIdle and returns the
// rest.
func (p *connPool) prune(addr string, maxIdle time.Duration) []*poolConn {
	s, n := p.idle[addr], 0
	for ; n < len(s) && (maxIdle < 0 || time.Since(s[n].used) > maxIdle); n++ {
		s[n].Close()
	}
	s = slices.Delete(s, 0, n)
	p.keep(addr, s)
	return s
}

// keep stores s as addr's stack, or forgets addr when s is empty.
func (p *connPool) keep(addr string, s []*poolConn) {
	switch {
	case len(s) == 0:
		delete(p.idle, addr)
	case p.idle == nil:
		p.idle = map[string][]*poolConn{addr: s}
	default:
		p.idle[addr] = s
	}
}

// peerClosed reports whether err shows the peer ended the connection, as a
// server does one that idled past its IODeadline or when it closes.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// roundTrip sends one request to addr and reads its bounded response, over
// pool's connection to addr that idled at most half lim.IODeadline (a
// server closes one idle for its IODeadline) if d's connections may carry
// many exchanges, else over one dialed for it; one that answered OK goes
// back to pool. The timeout bounds the call and is clamped to the context
// deadline. A reused connection the peer closed
// before any response byte likely idled out: an idempotent request is sent
// again once on a new one, not counted as a retry; a submission's fate is
// then unknown. Any other failure, an injected one too, is the caller's.
func roundTrip(ctx context.Context, d Dialer, pool *connPool, addr string, req Request, timeout time.Duration, lim Limits, idempotent bool) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return nil, fmt.Errorf("ishare: no time left for %q to %s: %w", req.Op, addr, context.DeadlineExceeded)
	}
	lim = lim.withDefaults()
	deadline := time.Now().Add(timeout)
	d = dialerOrDefault(d)
	r, ok := d.(interface{ ReusesConns() bool })
	reuse := ok && r.ReusesConns()
	var c *poolConn
	if reuse {
		c = pool.get(addr, lim.IODeadline/2)
	}
	for ; ; c = nil {
		reused := c != nil
		if !reused {
			if pool.dials != nil {
				pool.dials.Inc()
			}
			conn, err := d.Dial(addr, time.Until(deadline))
			if err != nil {
				return nil, fmt.Errorf("ishare: dialing %s: %w", addr, err)
			}
			c = &poolConn{Conn: conn, r: msgReader{r: conn}}
		}
		read := c.r.n
		resp, err := c.exchange(&req, addr, deadline, lim.MaxMessageBytes)
		if err == nil && resp.OK && reuse {
			pool.put(addr, c, lim.IODeadline/2)
			return resp, nil
		}
		c.Close()
		if err == nil || !reused || !idempotent || c.r.n != read || !peerClosed(err) {
			return resp, err
		}
	}
}

// exchange writes req on c and reads its response, both before deadline.
func (c *poolConn) exchange(req *Request, addr string, deadline time.Time, maxBytes int64) (*Response, error) {
	if err := c.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeMessage(c.Conn, req, maxBytes); err != nil {
		return nil, fmt.Errorf("ishare: sending %q: %w", req.Op, err)
	}
	var resp Response
	if exceeded, err := readMessage(&c.r, maxBytes, &resp, nil); exceeded {
		return nil, fmt.Errorf("ishare: %q response to %s exceeds %d bytes", req.Op, addr, maxBytes)
	} else if err != nil {
		return nil, fmt.Errorf("ishare: reading %q response: %w", req.Op, err)
	}
	return &resp, nil
}

// server is the accept side of a registry or a node: one goroutine a
// connection, serving the exchanges it carries.
type server struct {
	ln     net.Listener
	lim    Limits
	handle func(Request) *Response
	// admit, if set, takes an inflight slot for the request whose first
	// bytes r holds, or answers it and reports false; release frees it.
	admit   func(conn net.Conn, r io.Reader) bool
	release func()
	done    chan struct{} // closed by close

	wg   sync.WaitGroup
	mu   sync.Mutex
	idle map[net.Conn]bool // connections waiting between exchanges
}

// listen opens a server on addr that serves nothing until start.
func listen(addr string, lim Limits) (*server, error) {
	ln, err := listenTCP(addr)
	if err != nil {
		return nil, err
	}
	return &server{ln: ln, lim: lim.withDefaults(), done: make(chan struct{}), idle: make(map[net.Conn]bool)}, nil
}

// start accepts connections and serves each with handle.
func (s *server) start(handle func(Request) *Response) {
	s.handle = handle
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if errors.Is(err, net.ErrClosed) {
				return
			} else if err == nil {
				s.wg.Add(1)
				go s.serveConn(conn)
			}
		}
	}()
}

// close stops accepting and closes the connections idle between exchanges;
// one in an exchange ends after it. Later calls do nothing.
func (s *server) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	for c := range s.idle {
		c.Close()
	}
	return s.ln.Close()
}

// serveConn serves conn's exchanges in order, each read and write bounded
// by the IODeadline, until the peer sends EOF, an exchange fails, the
// handler returns nil (a service that died mid-exchange: no reply), the
// server closes or the connection idles for the IODeadline. The first
// exchange is in flight from the accept; close ends an idle connection.
func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	r := msgReader{r: conn}
	for idle := false; s.wait(conn, &r, idle) && s.exchange(conn, &r); idle = true {
	}
}

// wait waits up to the IODeadline for the next request's first bytes and
// reports whether they came and the server is still serving.
func (s *server) wait(conn net.Conn, r *msgReader, idle bool) bool {
	_ = conn.SetDeadline(time.Now().Add(s.lim.IODeadline))
	if idle && !s.setIdle(conn, true) {
		return false
	}
	err := r.fill()
	return (!idle || s.setIdle(conn, false)) && err == nil
}

// setIdle marks conn idle, in the set close closes, or busy, reporting
// whether the server is still serving.
func (s *server) setIdle(conn net.Conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.idle, conn)
	select {
	case <-s.done:
		return false
	default:
	}
	if idle {
		s.idle[conn] = true
	}
	return true
}

// exchange admits and serves the request whose first bytes r holds and
// reports whether the connection can carry another. Its arrays are valid
// until the handler returns: digests are decoded into a pooled array the
// next request reuses, so a handler copies what it keeps.
func (s *server) exchange(conn net.Conn, r *msgReader) bool {
	if s.admit != nil {
		if !s.admit(conn, r) {
			return false
		}
		defer s.release()
	}
	_ = conn.SetDeadline(time.Now().Add(s.lim.IODeadline))
	var req Request
	spare := wireDigests.Get().(*[]NodeDigest)
	defer func() { releaseDigests(spare, req.Digests) }()
	if exceeded, err := readMessage(r, s.lim.MaxMessageBytes, &req, *spare); err != nil {
		msg := "bad request: " + err.Error()
		if exceeded {
			msg = fmt.Sprintf("request exceeds %d bytes", s.lim.MaxMessageBytes)
		}
		_ = writeMessage(conn, &Response{OK: false, Error: msg}, s.lim.MaxMessageBytes)
		return false
	}
	resp := s.handle(req)
	if resp == nil {
		return false
	}
	// Handlers may run for a while (a submission simulates a whole job);
	// give the write its own fresh deadline rather than the leftovers.
	_ = conn.SetDeadline(time.Now().Add(s.lim.IODeadline))
	return writeMessage(conn, resp, s.lim.MaxMessageBytes) == nil
}
