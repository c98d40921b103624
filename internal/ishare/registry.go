package ishare

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forecast"
	"repro/internal/obs"
)

// Registry is the publication/discovery service: nodes register and
// heartbeat; clients list published resources. A node whose heartbeats
// stop for longer than the TTL is reported dead — the URR signal.
//
// At fleet scale a registry is one shard of the control plane: node IDs
// are assigned to shards by a ShardRing, and registrations and heartbeats
// arrive in batches — a node's own of one — carrying availability
// digests. Discovery, a list with a Limit, is served from per-score
// buckets — S1 nodes, then S2 — so a ranked candidate list costs
// O(limit), not a scan of every registered node. A node that never reported a digest is never listed for placement.
//
// A registry configured with a WAL is crash-recoverable: every mutating
// request is logged before it is acked, so a shard killed at any instant
// restarts (NewRegistryWithOptions over the same directory) with every
// acked registration intact. A registry configured with MaxInflight
// sheds load instead of collapsing: requests beyond the inflight bound
// wait in a bounded queue, and past that are answered with a retry-after
// hint — the protection that lets a recovering shard survive the
// re-register thundering herd.
type Registry struct {
	ttl time.Duration
	opt RegistryOptions

	mu sync.RWMutex
	// ids resolves a name once per digest to a dense ID, and entries,
	// states, buckets and the forecaster are indexed by it. An unregistered
	// node's ID goes to free and is reused before entries grows, so all of
	// them stay bounded by the live nodes.
	ids     nameIndex
	entries []registryEntry
	free    []uint32
	// states is each entry's state by ID, coded (stateCode); otherStates
	// holds, by ID, each state coded stateOther, kept verbatim for list to
	// echo.
	states      []uint8
	otherStates map[uint32]string
	// buckets index alive-or-not entries by digest score (see digestScore),
	// the score of the entry's state: 0 = S1, 1 = S2, 2 = no digest, 3 =
	// unavailable (S3–S5). Ranked discovery walks buckets 0 and 1 and stops
	// at Limit, starting where cursor points so successive walks spread
	// over a bucket.
	buckets [4][]uint32
	cursor  atomic.Uint32
	met     *registryMetrics // nil until Instrument
	log     *slog.Logger     // nil until Instrument

	// fc, when non-nil, is the embedded online forecaster: every digest
	// state transition (live or WAL-replayed) feeds it, a batch's in one
	// call (reportLocked), and the `forecast` op answers from it. Set once
	// at construction, so reads need no lock; it carries its own mutex,
	// always acquired after r.mu.
	fc *forecast.Service

	wal       *wal // nil without durability: its appends and Close do nothing
	recovered int  // records replayed at startup
	// Scratch for a batch: its names resolved to IDs (resolveLocked), the
	// states its upserts stored, for the forecaster, then a heartbeat's
	// digests split into changed ones and pure refreshes before logging;
	// guarded by mu, reused across batches so the durable hot path stays
	// allocation-free.
	batchIDs     []uint32
	fcReports    []forecast.StateReport
	fcClockMS    int64 // the latest stamp of an unchanged state, if fcClocked
	fcClocked    bool
	walChanged   []NodeDigest
	walRefreshed []string

	inflight chan struct{} // nil = unbounded admission
	queue    chan struct{}

	srv     *server
	crashed atomic.Bool
}

// registryEntry is one node's record, 48 B with one pointer: its last
// digest as list echoes it, less the state, which Registry.states holds,
// and seen, the last-seen stamp in Unix nanoseconds (math.MinInt64 until
// the first): a wall reading without the monotonic one a replayed stamp
// never had. The name and the address are one string, the name its first
// nameLen bytes.
type registryEntry struct {
	key     string
	load    float64
	gen     int64
	seen    int64
	nameLen uint32
	pos     uint32 // buckets[Registry.bucket(id)][pos] is this entry's ID
}

// name and addr are the two parts of the entry's key.
func (e *registryEntry) name() string { return e.key[:e.nameLen] }
func (e *registryEntry) addr() string { return e.key[e.nameLen:] }

// setKey stores name and addr as one new string: a decoded name or address
// shares its message's allocation, which the entry must not pin.
func (e *registryEntry) setKey(name, addr string) {
	if addr == "" {
		e.key = strings.Clone(name)
	} else {
		e.key = name + addr
	}
	e.nameLen = uint32(len(name))
}

// stateOther codes a state that is none of the five state names.
const stateOther = math.MaxUint8

// stateCode is s as Registry.states holds it: its index in codeStates,
// stateOther if it has none.
func stateCode(s string) uint8 {
	if c := slices.Index(codeStates[:], s); c >= 0 {
		return uint8(c)
	}
	return stateOther
}

// codeStates is the state each code but stateOther stands for — none, then
// the five state names, short form and long — and codeBuckets its score
// bucket.
var codeStates, codeBuckets = func() (states [2*len(wireStates) + 1]string, buckets [2*len(wireStates) + 1]uint8) {
	for d, forms := range wireStates {
		states[1+2*d], states[2+2*d] = forms[0], forms[1]
	}
	for c, s := range states {
		buckets[c] = uint8(digestScore(s))
	}
	return states, buckets
}()

// state is the state of the entry with the given ID.
func (r *Registry) state(id uint32) string {
	if c := r.states[id]; c != stateOther {
		return codeStates[c]
	}
	return r.otherStates[id]
}

// bucket is the score bucket of the entry with the given ID.
func (r *Registry) bucket(id uint32) uint8 {
	if c := r.states[id]; c != stateOther {
		return codeBuckets[c]
	}
	return uint8(digestScore(r.otherStates[id]))
}

// setStateLocked stores s as the state of the entry with the given ID.
func (r *Registry) setStateLocked(id uint32, s string) {
	if r.states[id] == stateOther {
		delete(r.otherStates, id)
	}
	if r.states[id] = stateCode(s); r.states[id] == stateOther {
		if r.otherStates == nil {
			r.otherStates = make(map[uint32]string)
		}
		r.otherStates[id] = strings.Clone(s)
	}
}

// idLocked is name's ID, math.MaxUint32 when the shard does not know it.
func (r *Registry) idLocked(name string) uint32 { return r.ids.find(name, r.entries) }

// liveLocked reports whether id is a registered node's, not a free slot:
// every live ID is where its entry says in its bucket.
func (r *Registry) liveLocked(id int) bool {
	pos, b := r.entries[id].pos, r.buckets[r.bucket(uint32(id))]
	return int(pos) < len(b) && b[pos] == uint32(id)
}

// stampMS is a logged Unix-millisecond stamp as an entry's stamp, held to
// the years 1678–2262 that Unix nanoseconds span.
func stampMS(ms int64) int64 { return min(max(ms, -maxStampMS), maxStampMS) * 1e6 }

const maxStampMS = math.MaxInt64 / 1_000_000

// unixMS is a stamp in Unix milliseconds, as time.Time.UnixMilli rounds it.
func unixMS(seen int64) int64 { return time.Unix(0, seen).UnixMilli() }

// info is the entry with the given ID as list answers it at now.
func (r *Registry) info(id uint32, now int64) NodeInfo {
	e := &r.entries[id]
	return NodeInfo{Name: e.name(), Addr: e.addr(), Alive: r.alive(e, now),
		LastSeenMS: unixMS(e.seen), State: r.state(id), Load: e.load, Gen: e.gen}
}

// alive reports whether e was seen at most the TTL before now: now - seen
// <= ttl in integer nanoseconds, a difference too large for an int64 (a
// never-seen entry's) counting as past it, as time.Time.Sub saturates.
func (r *Registry) alive(e *registryEntry, now int64) bool {
	d := now - e.seen
	return e.seen >= now || d >= 0 && d <= int64(r.ttl)
}

// RegistryOptions is the full configuration of one registry shard.
// The zero value of every field selects the pre-durability behavior:
// no WAL, unbounded admission, wall-clock time.
type RegistryOptions struct {
	// TTL is the heartbeat freshness bound (required, positive).
	TTL time.Duration
	// Limits bounds each protocol exchange.
	Limits Limits
	// WAL, when set, makes the shard durable: acked mutations are logged
	// to WAL.Dir before the ack and replayed on the next construction
	// over the same directory.
	WAL *WALOptions
	// MaxInflight bounds requests served at once; zero is unbounded (no
	// admission control). A connection idle between requests holds no slot.
	// Up to four times as many wait for a slot, each at most 100 ms; past
	// either bound a request is shed with a 200 ms retry-after hint.
	MaxInflight int
	// Now overrides the clock (chaos injects skew here); nil = time.Now.
	Now func() time.Time
	// Forecast, when set, embeds an online availability forecaster: the
	// shard derives each node's unavailability-event stream from its
	// digest state transitions (batches and WAL replay both flow through
	// the same upsert) and serves per-node survival forecasts to the
	// `forecast` op.
	Forecast *ForecastOptions
}

// ForecastOptions configures a registry shard's embedded forecaster.
type ForecastOptions struct {
	// Scale is virtual seconds of fleet time per wall second (default 1).
	// Loadtests that replay days of virtual fleet time in wall seconds
	// run their registries with a large Scale so the forecaster's
	// calendar arithmetic sees the fleet's clock, not the wall's.
	Scale float64
}

// Admission control past MaxInflight: the queue is queueFactor times
// MaxInflight, a queued request waits at most queueWait, and a shed reply
// asks the client to wait retryAfter.
const (
	queueFactor = 4
	queueWait   = 100 * time.Millisecond
	retryAfter  = 200 * time.Millisecond
)

// digestScore buckets a reported state for ranked discovery: S1 hosts
// guests at full speed, S2 at lowest priority, an empty state means the
// node never reported a digest (it has told no one it can host a guest)
// and anything else cannot host a guest at all.
func digestScore(state string) int {
	switch s := rankState(state); {
	case s >= 0:
		return s
	case state == "":
		return 2
	default:
		return 3
	}
}

// NewRegistry starts a registry listening on addr (use "127.0.0.1:0" for
// an ephemeral test port). ttl is the heartbeat freshness bound. Protocol
// exchanges use the default Limits; see NewRegistryWithOptions.
func NewRegistry(addr string, ttl time.Duration) (*Registry, error) {
	return NewRegistryWithOptions(addr, RegistryOptions{TTL: ttl})
}

// NewRegistryWithOptions starts a registry shard with the full option
// set: durability, admission control and an injectable clock. When
// opt.WAL names a directory with an existing log, the shard recovers its
// state from it before serving the first request.
func NewRegistryWithOptions(addr string, opt RegistryOptions) (*Registry, error) {
	if opt.TTL <= 0 {
		return nil, fmt.Errorf("ishare: registry TTL must be positive, got %v", opt.TTL)
	}
	r := &Registry{ttl: opt.TTL, opt: opt}
	if opt.Forecast != nil {
		// Created before WAL recovery so replayed digests feed it too.
		svc, err := forecast.NewService(forecast.ServiceConfig{Scale: opt.Forecast.Scale})
		if err != nil {
			return nil, fmt.Errorf("ishare: forecast service: %w", err)
		}
		r.fc = svc
	}
	if opt.WAL != nil {
		w, n, err := openWAL(*opt.WAL, r.applyWALRecord)
		if err != nil {
			return nil, err
		}
		r.wal = w
		r.recovered = n
	}
	srv, err := listen(addr, opt.Limits)
	if err != nil {
		r.wal.Close(true)
		return nil, fmt.Errorf("ishare: registry listen: %w", err)
	}
	r.srv = srv
	if opt.MaxInflight > 0 {
		r.inflight = make(chan struct{}, opt.MaxInflight)
		r.queue = make(chan struct{}, queueFactor*opt.MaxInflight)
		srv.admit, srv.release = r.admit, func() { <-r.inflight }
	}
	srv.start(r.handle)
	return r, nil
}

func (r *Registry) now() time.Time {
	if r.opt.Now != nil {
		return r.opt.Now()
	}
	return time.Now()
}

// applyWALRecord replays one logged mutation during recovery (before the
// listener exists, so no locking races with handlers).
func (r *Registry) applyWALRecord(rec walRecord) {
	switch rec.kind {
	case walKindUpsert:
		for _, e := range rec.entries {
			r.registerLocked(e.d, stampMS(e.lastSeenMS))
		}
		r.reportLocked()
	case walKindRemove:
		r.removeLocked(rec.name)
	case walKindRefresh:
		t := stampMS(rec.stampMS)
		for _, id := range r.resolveLocked(len(rec.names), func(i int) string { return rec.names[i] }) {
			if id != math.MaxUint32 && t > r.entries[id].seen {
				r.entries[id].seen = t
			}
		}
	}
}

// resolveLocked resolves a batch's n names (name(i) is the i-th) to their
// IDs in r.batchIDs, math.MaxUint32 for a name the shard does not know.
// A sweep heartbeats the batches it registered, in their order, so a batch
// walks IDs upward: the name after ID p is guessed to be p+1's, and the
// guess is taken when that entry holds the name. A freed entry holds "",
// which is never taken from a guess. Any other name reads the index, and
// guessing resumes only when the index answers p+1, so an unordered batch
// pays one integer compare a name over the lookups it made before.
func (r *Registry) resolveLocked(n int, name func(int) string) []uint32 {
	ids := r.batchIDs[:0]
	prev, guessing := uint32(math.MaxUint32), false
	for i := range n {
		s, id := name(i), prev+1
		if !guessing || s == "" || int(id) >= len(r.entries) || r.entries[id].name() != s {
			id = r.idLocked(s)
			guessing = id != math.MaxUint32 && id == prev+1
		}
		if id != math.MaxUint32 {
			prev = id
		}
		ids = append(ids, id)
	}
	r.batchIDs = ids
	return ids
}

// walLocked finishes the append its arguments come from — every mutation
// is logged before it is acked, under r.mu, and a nil error is the
// precondition for acking; without durability nothing was appended. When
// the append brought the log to its compaction threshold, the full state is
// snapshotted (consistently — we hold the state lock) and the log truncated.
func (r *Registry) walLocked(due bool, err error) error {
	if err != nil || r.wal == nil {
		return err
	}
	if r.met != nil {
		r.met.walAppends.Inc()
	}
	if due {
		if err := r.wal.compact(r.snapshotRecordsLocked()); err != nil {
			// Compaction failure is not fatal: the log simply keeps
			// growing until a later attempt succeeds.
			if r.log != nil {
				r.log.Warn("WAL compaction failed", "err", err.Error())
			}
		} else if r.met != nil {
			r.met.walCompactions.Inc()
		}
	}
	return nil
}

// snapshotRecordsLocked serializes the full registry state as WAL records in
// ID order: one state, one byte string, and IDs kept if none was freed. Holds r.mu.
func (r *Registry) snapshotRecordsLocked() []walRecord {
	var recs []walRecord
	entries := make([]walEntry, 0, r.ids.live)
	for id := range r.entries {
		if !r.liveLocked(id) {
			continue
		}
		e := &r.entries[id]
		ms := unixMS(e.seen)
		d := NodeDigest{Name: e.name(), Addr: e.addr(), State: r.state(uint32(id)), Load: e.load, Gen: e.gen, UnixMS: ms}
		entries = append(entries, walEntry{d: d, lastSeenMS: ms})
	}
	for len(entries) > 0 { // records of at most 512 entries
		n := min(512, len(entries))
		recs = append(recs, walRecord{kind: walKindUpsert, entries: entries[:n]})
		entries = entries[n:]
	}
	return recs
}

// Addr returns the registry's dial address.
func (r *Registry) Addr() string { return r.srv.ln.Addr().String() }

// RecoveredRecords reports how many WAL/snapshot records were replayed
// when this registry started.
func (r *Registry) RecoveredRecords() int { return r.recovered }

// Instrument attaches an obs registry (per-op request counters, node and
// alive-node gauges) and an optional structured logger. The metric
// families are registered eagerly so a scrape shows them before the first
// exchange. Call before serving traffic begins; passing a nil reg is a
// no-op for metrics.
func (r *Registry) Instrument(reg *obs.Registry, logger *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg != nil {
		r.met = newRegistryMetrics(reg)
		r.met.recovered.Set(float64(r.recovered))
	}
	if logger != nil {
		r.log = logger
	}
}

// Close stops the registry gracefully: the listener and the idle
// connections close, in-flight handlers finish, and a configured WAL is
// fsynced before closing.
func (r *Registry) Close() error {
	err := r.srv.close()
	r.srv.wg.Wait()
	if werr := r.wal.Close(true); err == nil {
		err = werr
	}
	return err
}

// Crash kills the registry the way SIGKILL would: accepting stops, idle
// connections close, in-flight exchanges are dropped without a response,
// and the WAL is abandoned without a final fsync — recovery gets exactly
// what write() already delivered. The listener port is released so a
// restart can rebind the same address.
func (r *Registry) Crash() error {
	r.crashed.Store(true)
	err := r.srv.close()
	r.srv.wg.Wait()
	if werr := r.wal.Close(false); err == nil {
		err = werr
	}
	return err
}

// Shutdown drains the registry: stop accepting, close idle connections,
// wait for in-flight requests up to the context deadline, then flush and
// close the WAL. It returns an error when the drain deadline expired first.
func (r *Registry) Shutdown(ctx context.Context) error {
	err := r.srv.close()
	done := make(chan struct{})
	go func() {
		r.srv.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("ishare: registry drain deadline expired")
	}
	if werr := r.wal.Close(true); err == nil {
		err = werr
	}
	if drainErr != nil {
		return drainErr
	}
	return err
}

// admit applies admission control to one request, whose first bytes req
// holds: take an inflight slot immediately, or wait for one in the bounded
// queue up to queueWait, or shed with a retry-after hint. Returns true when
// the caller holds an inflight slot; otherwise the connection ends.
func (r *Registry) admit(conn net.Conn, req io.Reader) bool {
	select {
	case r.inflight <- struct{}{}:
		return true
	default:
	}
	select {
	case r.queue <- struct{}{}:
	default: // queue full: shed immediately
		r.shed(conn, req)
		return false
	}
	defer func() { <-r.queue }()
	t := time.NewTimer(queueWait)
	defer t.Stop()
	select {
	case r.inflight <- struct{}{}:
		return true
	case <-t.C:
		r.shed(conn, req)
		return false
	case <-r.srv.done:
		return false
	}
}

// shed answers one request with an overload response carrying the
// retry-after hint, without executing or even decoding it: the decode is
// the dearest part of a batch and the answer does not depend on it. The
// message is still read off the socket, up to its newline, so the close
// that follows is not a reset that could cost the peer the response.
func (r *Registry) shed(conn net.Conn, req io.Reader) {
	r.mu.RLock()
	met := r.met
	r.mu.RUnlock()
	if met != nil {
		met.sheds.Inc()
	}
	lim := r.srv.lim
	_ = conn.SetReadDeadline(time.Now().Add(lim.IODeadline))
	br := bufio.NewReader(io.LimitReader(req, lim.MaxMessageBytes))
	for _, err := br.ReadSlice('\n'); err == bufio.ErrBufferFull; _, err = br.ReadSlice('\n') {
	}
	// Its own deadline: a peer that sent no newline is answered all the same.
	_ = conn.SetWriteDeadline(time.Now().Add(lim.IODeadline))
	_ = writeMessage(conn, &Response{OK: false, Error: "registry overloaded, retry later",
		RetryAfterMS: retryAfter.Milliseconds()}, lim.MaxMessageBytes)
}

// registerLocked resolves d's name to its ID — assigning one, a freed ID
// before a new one, when the shard does not know the name — and applies d.
func (r *Registry) registerLocked(d NodeDigest, now int64) {
	id := r.idLocked(d.Name)
	if id == math.MaxUint32 {
		if n := len(r.free); n > 0 {
			id, r.free = r.free[n-1], r.free[:n-1]
		} else {
			id = uint32(len(r.entries))
			r.entries = append(r.entries, registryEntry{})
			r.states = append(r.states, 0)
		}
		// Until upsert says otherwise it is a node with no digest: bucket 2.
		e := &r.entries[id]
		*e = registryEntry{seen: math.MinInt64, pos: uint32(len(r.buckets[2]))}
		e.setKey(d.Name, d.Addr)
		r.buckets[2] = append(r.buckets[2], id)
		r.ids.insert(id, r.entries)
	}
	r.upsertLocked(id, d, now)
}

// upsertLocked refreshes the entry with the given ID from d, keeping the
// score bucket index consistent. A digest only replaces the stored one when
// it is newer (higher Gen, later stamp; an unstamped digest counts as
// stamped at receipt, now), and then tells the forecaster (reportLocked): a
// new state is queued as a report, and a state name the entry already
// holds only moves the batch's clock stamp, since a report of it would
// change no view. A bare heartbeat (empty digest) refreshes liveness
// without touching the stored state. It reports whether anything beyond
// the liveness stamp changed — a false return is a pure refresh, which the
// WAL logs in compact form.
func (r *Registry) upsertLocked(id uint32, d NodeDigest, now int64) bool {
	e := &r.entries[id]
	load, gen, bucket := e.load, e.gen, r.bucket(id)
	advanced := d.Addr != "" && d.Addr != e.addr()
	if advanced {
		e.setKey(e.name(), d.Addr)
	}
	if d.State != "" {
		stamped := d
		if stamped.UnixMS == 0 {
			stamped.UnixMS = unixMS(now)
		}
		stored := NodeDigest{Gen: e.gen, UnixMS: unixMS(e.seen)}
		if r.states[id] == 0 || stamped.Newer(stored) {
			changed := d.State != r.state(id)
			if changed {
				r.setStateLocked(id, d.State)
				advanced = true
			}
			e.load, e.gen = d.Load, d.Gen
			if r.fc != nil {
				// An unchanged state name is one the forecaster reads; any
				// other value is its to judge.
				if r.states[id] != stateOther && !changed {
					if !r.fcClocked || stamped.UnixMS > r.fcClockMS {
						r.fcClockMS, r.fcClocked = stamped.UnixMS, true
					}
				} else {
					r.fcReports = append(r.fcReports, forecast.StateReport{ID: id, State: r.state(id), UnixMS: stamped.UnixMS})
				}
			}
		}
	}
	e.seen = max(e.seen, now)
	if want := r.bucket(id); want != bucket {
		r.unbucketLocked(bucket, e.pos)
		e.pos = uint32(len(r.buckets[want]))
		r.buckets[want] = append(r.buckets[want], id)
	}
	return advanced || e.load != load || e.gen != gen
}

// reportLocked hands the forecaster the states upsertLocked queued, in
// order, in one call, then advances its clock to the latest stamp of an
// unchanged state: a batch's upserts are followed by one. The two commute
// with the reports upsertLocked left out, which would each have advanced
// the clock alone.
func (r *Registry) reportLocked() {
	if len(r.fcReports) > 0 {
		r.fc.ObserveStatesID(r.fcReports)
		r.fcReports = r.fcReports[:0]
	}
	if r.fcClocked {
		r.fc.AdvanceTo(r.fcClockMS)
		r.fcClocked = false
	}
}

// unbucketLocked takes the ID at pos out of the given bucket by moving the
// bucket's last ID into its place.
func (r *Registry) unbucketLocked(bucket uint8, pos uint32) {
	b := r.buckets[bucket]
	last := b[len(b)-1]
	b[pos], r.entries[last].pos = last, pos
	r.buckets[bucket] = b[:len(b)-1]
}

// removeLocked forgets a node everywhere — name, entry, bucket and its
// history in the forecaster — and frees its ID for the next registration.
func (r *Registry) removeLocked(name string) {
	if id := r.idLocked(name); id != math.MaxUint32 {
		r.unbucketLocked(r.bucket(id), r.entries[id].pos)
		r.ids.remove(id, r.entries)
		if r.states[id] == stateOther {
			delete(r.otherStates, id)
		}
		r.entries[id], r.states[id] = registryEntry{}, 0
		r.free = append(r.free, id)
		if r.fc != nil {
			r.fc.Forget(id)
		}
	}
}

// heartbeatLocked applies a heartbeat batch whose names resolved to ids
// (math.MaxUint32 for an unknown one, which it returns in missing) and
// logs it: the digests that advanced stored state as one upsert record,
// the pure refreshes as one refresh record.
func (r *Registry) heartbeatLocked(ds []NodeDigest, ids []uint32, now int64) (missing []string, err error) {
	durable := r.wal != nil
	changed := r.walChanged[:0]     // digests that advanced stored state
	refreshed := r.walRefreshed[:0] // pure liveness refreshes
	for k, d := range ds {
		id := ids[k]
		if id == math.MaxUint32 {
			missing = append(missing, d.Name)
			continue
		}
		d.Addr = "" // liveness refresh, not re-registration
		advanced := r.upsertLocked(id, d, now)
		if !durable {
			continue
		}
		if advanced {
			changed = append(changed, d)
		} else {
			refreshed = append(refreshed, d.Name)
		}
	}
	r.reportLocked()
	if len(changed) > 0 {
		err = r.walLocked(r.wal.appendUpsert(changed, unixMS(now)))
	}
	if err == nil && len(refreshed) > 0 {
		err = r.walLocked(r.wal.appendRefresh(refreshed, unixMS(now)))
	}
	r.walChanged, r.walRefreshed = changed[:0], refreshed[:0]
	return missing, err
}

var errWALAppend = &Response{OK: false, Error: "registry WAL append failed, mutation not durable"}

func (r *Registry) handle(req Request) *Response {
	if r.crashed.Load() {
		return nil // a crashed process answers nothing
	}
	r.mu.RLock()
	met, log := r.met, r.log
	r.mu.RUnlock()
	if met != nil {
		met.request(req.Op)
	}
	switch req.Op {
	case "register_batch":
		for _, d := range req.Digests {
			if d.Name == "" || d.Addr == "" {
				return &Response{OK: false, Error: "register_batch requires name and addr on every digest"}
			}
		}
		now := r.now().UnixNano()
		r.mu.Lock()
		for _, d := range req.Digests {
			r.registerLocked(d, now)
		}
		r.reportLocked()
		err := r.walLocked(r.wal.appendUpsert(req.Digests, unixMS(now)))
		n := r.ids.live
		r.mu.Unlock()
		if err != nil {
			return errWALAppend
		}
		if met != nil {
			met.nodes.Set(float64(n))
			met.batched.Add(uint64(len(req.Digests)))
		}
		return &Response{OK: true}
	case "unregister":
		var err error
		r.mu.Lock()
		for _, name := range req.Names {
			r.removeLocked(name)
			if err = r.walLocked(r.wal.append(walRecord{kind: walKindRemove, name: name})); err != nil {
				break
			}
		}
		n := r.ids.live
		r.mu.Unlock()
		if err != nil {
			return errWALAppend
		}
		if met != nil {
			met.nodes.Set(float64(n))
		}
		if log != nil {
			log.Info("nodes unregistered", "trace", req.Trace, "names", req.Names)
		}
		return &Response{OK: true}
	case "heartbeat_batch":
		now := r.now().UnixNano()
		r.mu.Lock()
		// every name resolved in one tight loop, then applied in order
		ids := r.resolveLocked(len(req.Digests), func(i int) string { return req.Digests[i].Name })
		missing, err := r.heartbeatLocked(req.Digests, ids, now)
		r.mu.Unlock()
		if err != nil {
			return errWALAppend
		}
		if met != nil {
			met.unknownHB.Add(uint64(len(missing)))
			met.batched.Add(uint64(len(req.Digests)))
		}
		return &Response{OK: true, Missing: missing}
	case "list":
		if req.Limit > 0 {
			return r.listRanked(req.Limit)
		}
		now := r.now().UnixNano()
		r.mu.RLock()
		nodes := make([]NodeInfo, 0, r.ids.live)
		alive := 0
		for id := range r.entries { // in ID order, so an unchanged shard answers the same
			if !r.liveLocked(id) {
				continue
			}
			info := r.info(uint32(id), now)
			if info.Alive {
				alive++
			}
			nodes = append(nodes, info)
		}
		r.mu.RUnlock()
		if met != nil {
			met.alive.Set(float64(alive))
		}
		return &Response{OK: true, Nodes: nodes}
	case "forecast":
		if r.fc == nil {
			return &Response{OK: false, Error: "forecasting not enabled on this registry"}
		}
		if req.HorizonMS <= 0 {
			return &Response{OK: false, Error: "forecast requires a positive horizon_ms"}
		}
		var t0 time.Time
		if met != nil {
			t0 = time.Now()
		}
		nowMS := r.now().UnixMilli()
		horizon := time.Duration(req.HorizonMS) * time.Millisecond
		out := make([]ForecastInfo, 0, len(req.Names))
		r.mu.RLock()
		for _, name := range req.Names {
			id := r.idLocked(name) // math.MaxUint32, no such machine: the forecaster's cold prior
			f, known := r.fc.ForecastID(id, horizon, nowMS)
			fi := ForecastInfo{Name: name, Known: known, Survival: f.Survival, Samples: f.Samples}
			if id != math.MaxUint32 {
				e := &r.entries[id]
				fi.State, fi.Gen, fi.UnixMS = r.state(id), e.gen, unixMS(e.seen)
			}
			out = append(out, fi)
		}
		r.mu.RUnlock()
		if met != nil {
			met.forecasts.Add(uint64(len(out)))
			met.forecastLatency.Observe(time.Since(t0).Seconds())
		}
		return &Response{OK: true, Forecasts: out}
	default:
		return &Response{OK: false, Error: "unknown op " + req.Op}
	}
}

// listRanked serves discovery: up to limit alive nodes from the best
// available score buckets. It walks S1, then S2 (a digest-less node has
// told no one it can host a guest) and stops as soon as limit candidates
// are found, so its cost is bounded by the limit (plus dead entries
// skipped along the way), not by the shard's total population — the
// property that keeps discovery flat as a shard grows to hundreds of
// thousands of nodes. Within one bucket every alive node is as good as any
// other under the paper's placement rule, which ranks by state class, so
// each walk starts where a per-registry cursor points and the cursor moves
// on by the limit: successive calls hand out successive stretches of a
// bucket instead of sending every broker to the same few nodes. The
// response itself is ordered (state, load, name) so callers merge
// deterministically ranked lists: the walk yields the S1 run, then the S2
// run, so each run is put in (load, name) order by its IDs, and only then
// are the answers built, each once.
func (r *Registry) listRanked(limit int) *Response {
	now := r.now().UnixNano()
	r.mu.RLock()
	// The limit is the caller's number: what it sizes is bounded by the shard.
	limit = min(limit, r.ids.live)
	ids := make([]uint32, 0, limit)
	byLoadName := func(a, b uint32) int {
		ea, eb := &r.entries[a], &r.entries[b]
		return loadNameCmp(ea.load, eb.load, ea.name(), eb.name())
	}
	start := int(r.cursor.Add(uint32(limit)))
	for score := 0; score <= 1; score++ {
		b, run := r.buckets[score], len(ids)
		for i := 0; i < len(b) && len(ids) < limit; i++ {
			if id := b[(start+i)%len(b)]; r.alive(&r.entries[id], now) {
				ids = append(ids, id)
			}
		}
		// Names are unique in a shard: a total order, so no stable sort.
		slices.SortFunc(ids[run:], byLoadName)
	}
	nodes := make([]NodeInfo, len(ids))
	for i, id := range ids {
		nodes[i] = r.info(id, now)
	}
	r.mu.RUnlock()
	return &Response{OK: true, Nodes: nodes}
}

// rankCmp orders placement options best-first: score, then load, then name.
// Names are unique in a shard and across a ring's shards, so this is a total
// order and the sorted list does not depend on the order it arrived in.
func rankCmp(scoreA, scoreB int, a, b *NodeInfo) int {
	if scoreA != scoreB {
		return scoreA - scoreB
	}
	return loadNameCmp(a.Load, b.Load, a.Name, b.Name)
}

// loadNameCmp is rankCmp within one score: load, then name.
func loadNameCmp(loadA, loadB float64, nameA, nameB string) int {
	switch {
	case loadA < loadB:
		return -1
	case loadA > loadB:
		return 1
	}
	return strings.Compare(nameA, nameB)
}
