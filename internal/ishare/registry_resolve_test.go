package ishare

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// mapIDs resolves names with one lookup each in a map of the shard's live
// entries by name (nameIDs), not through its index. r.mu is held.
func mapIDs(r *Registry, names []string) []uint32 {
	byName := nameIDs(r)
	ids := make([]uint32, len(names))
	for i, name := range names {
		id, ok := byName[name]
		if !ok {
			id = math.MaxUint32
		}
		ids[i] = id
	}
	return ids
}

// TestResolverMatchesMapLookup drives two durable shards through one
// history of registrations, unregistrations and re-registrations (so IDs
// are freed and reused) and heartbeat batches: in ID order, in
// registration order, shuffled, with duplicate, unknown and empty names,
// of one, and an ordered run ending in "" just below a freed ID. Shard a
// resolves each batch with resolveLocked, which must give every name the
// ID the map gives it; shard b applies the same batch with map lookups.
// Their missing lists and their logs must be the same bytes, and a replay
// of a's log — whose refresh records resolveLocked reads too — must answer
// list as b does.
func TestResolverMatchesMapLookup(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := newDurableFixture(t, dirA), newDurableFixture(t, dirB)
	rng := rand.New(rand.NewSource(44))
	states := []string{"S1(full)", "S2(reduced)", "S3(UEC-CPU)", "S1(full)"}

	ms := int64(1000)
	both := func(req Request) {
		ra, rb := a.do(t, ms, req), b.do(t, ms, req)
		if !ra.OK || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: the shards answered %+v and %+v", req.Op, ra, rb)
		}
	}
	var live, gone, order []string // order: live names as last registered
	register := func(names ...string) {
		ds := make([]NodeDigest, len(names))
		for i, name := range names {
			ds[i] = NodeDigest{Name: name, Addr: "10.0.0.1:70", State: states[rng.Intn(len(states))], Gen: 1, UnixMS: ms}
		}
		both(Request{Op: "register_batch", Digests: ds})
		live, order = append(live, names...), append(order, names...)
		gone = slices.DeleteFunc(gone, func(s string) bool { return slices.Contains(names, s) })
	}
	unregister := func(names ...string) {
		both(Request{Op: "unregister", Names: names})
		gone = append(gone, names...)
		drop := func(s string) bool { return slices.Contains(names, s) }
		live, order = slices.DeleteFunc(live, drop), slices.DeleteFunc(order, drop)
	}
	slots := func() []string { // a's entry names by ID, "" at a free one
		a.r.mu.Lock()
		defer a.r.mu.Unlock()
		names := make([]string, len(a.r.entries))
		for id, e := range a.r.entries {
			names[id] = e.name()
		}
		return names
	}
	pick := func(from []string, n int) []string { // up to n distinct names of from
		p := slices.Clone(from)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p[:min(n, len(p))]
	}
	run := func(names []string) []string { // a contiguous run, often all of it
		if len(names) == 0 || rng.Intn(3) == 0 {
			return names
		}
		lo := rng.Intn(len(names))
		return names[lo : lo+1+rng.Intn(len(names)-lo)]
	}

	for i := range 48 {
		register(fmt.Sprintf("m%03d", i))
	}
	unknown, freedRuns := 0, 0
	for round := range 400 {
		ms += 10
		if out := pick(live, 1+rng.Intn(4)); round%4 == 0 && len(out) > 0 {
			unregister(out...)
		}
		if in := pick(gone, rng.Intn(4)); round%4 == 2 {
			if rng.Intn(4) == 0 {
				in = append(in, fmt.Sprintf("new%03d", round))
			}
			if len(in) > 0 {
				register(in...)
			}
		}

		byID := slices.DeleteFunc(slots(), func(s string) bool { return s == "" })
		var names []string
		switch kind := rng.Intn(7); kind {
		case 0:
			names = slices.Clone(run(byID))
		case 1:
			names = slices.Clone(run(order))
		case 2:
			names = slices.Clone(run(pick(live, len(live))))
		case 3, 4:
			for _, name := range run(byID) {
				names = append(names, name)
				switch r := rng.Intn(8); {
				case kind == 3 && r < 2:
					names = append(names, name) // a duplicate
				case kind == 4 && r == 0:
					names = append(names, "")
				case kind == 4 && r == 1:
					unknown++
					names = append(names, fmt.Sprintf("ghost%d", unknown))
				case kind == 4 && r == 2 && len(gone) > 0:
					names = append(names, gone[rng.Intn(len(gone))])
				}
			}
		case 5:
			pool := append(append(slices.Clone(live), gone...), "", "ghost")
			names = []string{pool[rng.Intn(len(pool))]}
		case 6: // an ordered run up to just below a freed ID, then ""
			at := slots()
			for f := 2; f < len(at); f++ {
				if at[f] == "" && at[f-1] != "" && at[f-2] != "" {
					names = []string{at[f-2], at[f-1], "", at[f-1]}
					freedRuns++
					break
				}
			}
		}
		ds := make([]NodeDigest, len(names))
		for i, name := range names {
			ds[i].Name = name
			if rng.Intn(3) == 0 {
				ds[i].State, ds[i].Gen, ds[i].Load, ds[i].UnixMS = states[rng.Intn(len(states))], int64(2+round), float64(rng.Intn(100))/64, ms
			}
		}

		a.r.mu.Lock()
		got, want := slices.Clone(a.r.resolveLocked(len(ds), func(i int) string { return ds[i].Name })), mapIDs(a.r, names)
		a.r.mu.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: resolveLocked gave %v for %q, the map %v", round, got, names, want)
		}
		respA := a.do(t, ms, Request{Op: "heartbeat_batch", Digests: slices.Clone(ds)})
		b.clock.Store(ms)
		b.r.mu.Lock()
		missing, err := b.r.heartbeatLocked(ds, mapIDs(b.r, names), b.r.now().UnixNano())
		b.r.mu.Unlock()
		if err != nil || !respA.OK || !slices.Equal(respA.Missing, missing) {
			t.Fatalf("round %d: missing %q (%+v), map-resolved %q (%v)", round, respA.Missing, respA, missing, err)
		}
	}
	if freedRuns == 0 {
		t.Fatal("no batch ran into a freed ID")
	}
	checkIDInvariants(t, a.r, "resolved")
	checkIDInvariants(t, b.r, "map-resolved")

	ask := append(slices.Clone(live), gone...)
	wantList, _ := sortedAnswers(t, b, ms, ask)
	for _, f := range []*forecastFixture{a, b} {
		if err := f.r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	logA, errA := os.ReadFile(filepath.Join(dirA, walFileName))
	logB, errB := os.ReadFile(filepath.Join(dirB, walFileName))
	if errA != nil || errB != nil || !bytes.Equal(logA, logB) {
		t.Fatalf("the logs differ: %d and %d bytes (%v, %v)", len(logA), len(logB), errA, errB)
	}
	*a = *newDurableFixture(t, dirA)
	if gotList, _ := sortedAnswers(t, a, ms, ask); !reflect.DeepEqual(gotList, wantList) {
		t.Errorf("list differs after replay:\n got %+v\nwant %+v", gotList, wantList)
	}
}
