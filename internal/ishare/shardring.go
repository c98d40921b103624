package ishare

import (
	"fmt"
	"sort"
	"strconv"
)

// This file is the placement substrate of the scaled-out control plane: a
// consistent-hash ring assigning every node ID to one registry shard. The
// ring is immutable once built — reconfiguration means building a new ring
// from the new shard list — so lookups are lock-free and safe to share
// across any number of goroutines. Consistent hashing keeps the remapped
// fraction near 1/N when a shard is added: node IDs only ever move onto
// the new shard's points, never between surviving shards.

// ringVnodes is the default number of virtual points per shard. More
// points flatten the load imbalance between shards at the cost of a
// larger (still tiny) sorted point array.
const ringVnodes = 64

// ShardRing maps node IDs to registry shards by consistent hashing.
type ShardRing struct {
	shards []string
	points []ringPoint // sorted by (hash, shard) — ties break to the lower shard index
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewShardRing builds a ring over the given shard addresses with vnodes
// virtual points per shard (<= 0 uses the default). A ring needs at least
// one shard; duplicate addresses are a configuration error.
func NewShardRing(shards []string, vnodes int) (*ShardRing, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("ishare: shard ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = ringVnodes
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("ishare: shard ring: empty shard address")
		}
		if seen[s] {
			return nil, fmt.Errorf("ishare: shard ring: duplicate shard %q", s)
		}
		seen[s] = true
	}
	r := &ShardRing{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			h := ringHash(s + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, shard: i})
		}
	}
	// Sort by (hash, shard): two shards landing on the same hash point —
	// possible in principle, forced in tests — resolve deterministically
	// to the lower shard index on every lookup.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Owner returns the index of the shard owning the given node ID.
func (r *ShardRing) Owner(nodeID string) int {
	h := ringHash(nodeID)
	// First point with hash >= h, wrapping past the top of the ring.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Addr returns the address of the shard owning the given node ID.
func (r *ShardRing) Addr(nodeID string) string { return r.shards[r.Owner(nodeID)] }

// ringHash positions a key on the ring. Ring ordering compares full
// 64-bit values, which is dominated by high bits — and raw FNV-1a's high
// bits barely move between short sequential keys ("node-00", "node-01",
// …), which clusters whole fleets onto one arc. A splitmix64-style
// finalizer avalanches the FNV value first.
func ringHash(s string) uint64 {
	x := fnv64a(s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64a is the FNV-1a 64-bit hash — stable across processes and Go
// versions, unlike the runtime's randomized map hash, so every client and
// every shard derive the same ownership from the same shard list.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
