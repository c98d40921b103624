package ishare

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// ShardedRegistry runs N registry shards in one process and wires them
// into a consistent-hash ring: the in-process deployment shape used by
// tests and the load driver. Each shard is a full Registry on its own
// listener; a client lists Addrs() in Client.Shards, and nothing
// distinguishes these shards from N separately deployed processes with
// the same address list.
//
// Shards are individually killable and restartable: CrashShard models
// SIGKILL (the paper's reboot-dominated URR events), RestartShard
// rebinds the same address and — when the deployment is durable —
// recovers the shard's acked state from its per-shard WAL directory.
type ShardedRegistry struct {
	opt     RegistryOptions
	walBase string        // "" for a volatile deployment
	obs     *obs.Registry // nil until Instrument
	logger  *slog.Logger

	mu     sync.Mutex
	shards []*Registry
	addrs  []string // fixed at construction; restarts rebind the same addr
	ring   *ShardRing
}

// NewShardedRegistryWithOptions starts n registry shards on ephemeral
// loopback ports sharing one option set. When opt.WAL is set, its Dir is
// the deployment's durability root: shard i logs under Dir/shard-<i>, and
// a construction over a root with existing logs recovers every shard's
// state before serving.
func NewShardedRegistryWithOptions(n int, opt RegistryOptions) (*ShardedRegistry, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ishare: sharded registry needs at least one shard, got %d", n)
	}
	s := &ShardedRegistry{opt: opt}
	if opt.WAL != nil {
		s.walBase = opt.WAL.Dir
	}
	for i := 0; i < n; i++ {
		reg, err := NewRegistryWithOptions("127.0.0.1:0", s.shardOptions(i))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, reg)
	}
	s.addrs = make([]string, n)
	for i, reg := range s.shards {
		s.addrs[i] = reg.Addr()
	}
	ring, err := NewShardRing(s.addrs, 0)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ring = ring
	return s, nil
}

// shardOptions derives shard i's options from the deployment template:
// same TTL, limits and admission bounds, with the WAL (if any) rooted in
// the shard's own subdirectory.
func (s *ShardedRegistry) shardOptions(i int) RegistryOptions {
	opt := s.opt
	if opt.WAL != nil {
		w := *opt.WAL
		w.Dir = filepath.Join(s.walBase, fmt.Sprintf("shard-%d", i))
		opt.WAL = &w
	}
	return opt
}

// Addrs returns the shard dial addresses in shard order. Addresses are
// stable across crash/restart cycles.
func (s *ShardedRegistry) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

// Shard returns the i-th shard (the current incarnation, after restarts).
func (s *ShardedRegistry) Shard(i int) *Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i]
}

// Ring returns the consistent-hash ring over the shard addresses.
func (s *ShardedRegistry) Ring() *ShardRing {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// Owner returns the shard index owning the given node ID.
func (s *ShardedRegistry) Owner(nodeID string) int { return s.Ring().Owner(nodeID) }

// CrashShard kills shard i abruptly — no drain, no final fsync — and
// releases its port so RestartShard can rebind it. In-flight exchanges
// are dropped without a response, exactly as a killed process drops them.
func (s *ShardedRegistry) CrashShard(i int) error {
	s.mu.Lock()
	reg := s.shards[i]
	s.mu.Unlock()
	return reg.Crash()
}

// RestartShard revives shard i on its original address. A durable
// deployment recovers the shard's acked state from its WAL directory
// first; a volatile one comes back empty (its nodes re-register via the
// heartbeat Missing path). The restarted shard inherits the deployment's
// instrumentation.
func (s *ShardedRegistry) RestartShard(i int) error {
	s.mu.Lock()
	addr := s.addrs[i]
	opt := s.shardOptions(i)
	reg, logger := s.obs, s.logger
	s.mu.Unlock()

	fresh, err := NewRegistryWithOptions(addr, opt)
	if err != nil {
		return fmt.Errorf("ishare: restarting shard %d on %s: %w", i, addr, err)
	}
	if reg != nil || logger != nil {
		fresh.Instrument(reg, logger)
	}
	s.mu.Lock()
	s.shards[i] = fresh
	s.mu.Unlock()
	return nil
}

// Instrument attaches an obs registry and logger to every shard. Shard
// metrics share one family; per-shard resolution comes from running the
// shards in separate processes, which is the production shape.
func (s *ShardedRegistry) Instrument(reg *obs.Registry, logger *slog.Logger) {
	s.mu.Lock()
	s.obs, s.logger = reg, logger
	shards := append([]*Registry(nil), s.shards...)
	s.mu.Unlock()
	for _, r := range shards {
		r.Instrument(reg, logger)
	}
}

// Close stops every shard.
func (s *ShardedRegistry) Close() error {
	s.mu.Lock()
	shards := append([]*Registry(nil), s.shards...)
	s.mu.Unlock()
	var first error
	for _, reg := range shards {
		if reg == nil {
			continue
		}
		if err := reg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
