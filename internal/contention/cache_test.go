package contention

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simos"
	"repro/internal/workload"
)

// ResetAloneCache empties the calibration cache.
func ResetAloneCache() {
	aloneCache.Range(func(k, _ any) bool {
		aloneCache.Delete(k)
		return true
	})
}

// aloneCacheLen counts the calibration cache's entries.
func aloneCacheLen() (n int) {
	aloneCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// TestAloneCacheHitsAndParity verifies the calibration cache serves repeat
// alone runs without resimulating and that a cached result is identical to
// a direct measurement. A hit is told from a resimulation by planting a
// doctored entry: only a run served from the cache can return it.
func TestAloneCacheHitsAndParity(t *testing.T) {
	ResetAloneCache()
	defer ResetAloneCache()

	o := DefaultOptions()
	o.Measure = 30 * time.Second // short window keeps the test fast
	group := workload.HostGroup{Usages: []float64{0.3, 0.2}}
	spawn := func(m *simos.Machine) { group.Spawn(m, o.Period) }
	seed := comboSeed(o.Seed, 42)

	direct, err := o.measure(seed, spawn, nil)
	if err != nil {
		t.Fatal(err)
	}

	lh1, red1, err := o.MeasureGroupReduction(seed, group, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := aloneCacheLen(); n != 1 {
		t.Fatalf("after first run: %d cache entries, want 1", n)
	}
	if lh1 != direct.HostUsage {
		t.Fatalf("cached-path LH %v != direct measurement %v", lh1, direct.HostUsage)
	}

	lh2, red2, err := o.MeasureGroupReduction(seed, group, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := aloneCacheLen(); n != 1 {
		t.Fatalf("after second run: %d cache entries, want 1", n)
	}
	if lh1 != lh2 || red1 != red2 {
		t.Fatalf("cached run differs: (%v,%v) vs (%v,%v)", lh1, red1, lh2, red2)
	}

	key := o.aloneKeyFor(seed, group)
	planted := direct
	planted.HostUsage /= 2
	aloneCache.Store(key, planted)
	if lh3, _, err := o.MeasureGroupReduction(seed, group, 0); err != nil || lh3 != planted.HostUsage {
		t.Fatalf("third run: LH %v (err %v), want the planted entry's %v: the calibration was resimulated", lh3, err, planted.HostUsage)
	}
}

// TestAloneCacheKeySeparation checks that runs differing in seed, group or
// harness timing never share a cache entry.
func TestAloneCacheKeySeparation(t *testing.T) {
	o := DefaultOptions()
	base := o.aloneKeyFor(7, workload.HostGroup{Usages: []float64{0.5}})

	if k := o.aloneKeyFor(8, workload.HostGroup{Usages: []float64{0.5}}); k == base {
		t.Error("different seeds collide")
	}
	if k := o.aloneKeyFor(7, workload.HostGroup{Usages: []float64{0.25, 0.25}}); k == base {
		t.Error("different groups collide")
	}
	longer := o
	longer.Measure = o.Measure * 2
	if k := longer.aloneKeyFor(7, workload.HostGroup{Usages: []float64{0.5}}); k == base {
		t.Error("different measurement windows collide")
	}
	solaris := o
	solaris.Machine = simos.SolarisMachine(0).WithDefaults()
	if k := solaris.aloneKeyFor(7, workload.HostGroup{Usages: []float64{0.5}}); k == base {
		t.Error("different machines collide")
	}
	// The run seed overrides the machine config's seed, so a config seed
	// difference alone must NOT split the cache.
	reseeded := o
	reseeded.Machine.Seed = 99
	if k := reseeded.aloneKeyFor(7, workload.HostGroup{Usages: []float64{0.5}}); k != base {
		t.Error("machine config seed split the cache key")
	}
}

// TestComboSeedFormat pins the allocation-free seed derivation to the
// historical fmt-based construction, byte for byte.
func TestComboSeedFormat(t *testing.T) {
	ref := func(base int64, tags ...int) int64 {
		s := sim.NewSource(base)
		name := "combo"
		for _, tag := range tags {
			name = fmt.Sprintf("%s/%d", name, tag)
		}
		return int64(s.Stream(name).Uint64())
	}
	cases := [][]int{
		{},
		{0},
		{1, 2, 3},
		{100, 5, 19, 2},
		{-7, 0, 42},
		{1 << 30, -(1 << 30)},
	}
	for _, tags := range cases {
		for _, base := range []int64{1, 2, 77} {
			if got, want := comboSeed(base, tags...), ref(base, tags...); got != want {
				t.Errorf("comboSeed(%d, %v) = %d, want %d", base, tags, got, want)
			}
		}
	}
}
