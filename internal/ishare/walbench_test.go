package ishare

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func benchDigests(n int) []NodeDigest {
	ds := make([]NodeDigest, n)
	for i := range ds {
		ds[i] = NodeDigest{Name: fmt.Sprintf("node-%06d", i), Addr: fmt.Sprintf("10.0.%d.%d:7070", i/256%256, i%256),
			State: "S1(full)", Load: 0.25, Gen: 3, UnixMS: 1700000000000}
	}
	return ds
}

func benchRegistry(b *testing.B, wal, forecast bool) *Registry {
	opt := RegistryOptions{TTL: time.Minute}
	if forecast {
		opt.Forecast = &ForecastOptions{}
	}
	if wal {
		opt.WAL = &WALOptions{Dir: b.TempDir()}
	}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkHandleRegisterBatch is a 1000-digest register_batch. With
// names=same every op registers the same 1000 nodes again, each an upsert;
// with names=fresh every op registers 1000 the shard has not seen, each an
// insert into the name index and one new name-and-address string, into a
// shard that grows to 25 000 nodes and then, off the clock, starts over.
func BenchmarkHandleRegisterBatch(b *testing.B) {
	const batch, fleet = 1000, 25_000
	for _, wal := range []bool{false, true} {
		for _, names := range []string{"same", "fresh"} {
			fresh := names == "fresh"
			b.Run(fmt.Sprintf("wal=%v/names=%s", wal, names), func(b *testing.B) {
				r := benchRegistry(b, wal, false)
				ds := benchDigests(fleet)
				lo := 0
				if !fresh {
					r.handle(Request{Op: "register_batch", Digests: ds[:batch]})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fresh && lo == fleet {
						b.StopTimer()
						r.Close()
						r, lo = benchRegistry(b, wal, false), 0
						b.StartTimer()
					}
					if resp := r.handle(Request{Op: "register_batch", Digests: ds[lo : lo+batch]}); !resp.OK {
						b.Fatal(resp.Error)
					}
					if fresh {
						lo += batch
					}
				}
			})
		}
	}
}

// BenchmarkRegistryHeartbeatBatch is the write path's layer measurement,
// the network and the codec taken out: a forecasting shard of 25 000 nodes
// absorbing 1000-digest batches of which a fifth report a new state (half
// of those a new state class, so the entry changes bucket and the
// forecaster opens or closes an event). A batch carries copies of the
// names the shard was registered with, as a decoded batch does, so each
// name lookup reads two strings. With order=registered the batches are
// the ones registered, in their order, as a sweep sends them, and the
// shard resolves names by guessing the next ID; with order=shuffled each
// batch is a random draw from the fleet, and every name reads the map.
func BenchmarkRegistryHeartbeatBatch(b *testing.B) {
	for _, wal := range []bool{false, true} {
		for _, order := range []string{"registered", "shuffled"} {
			b.Run(fmt.Sprintf("wal=%v/order=%s", wal, order), func(b *testing.B) {
				benchHeartbeatBatches(b, wal, order == "shuffled")
			})
		}
	}
}

func benchHeartbeatBatches(b *testing.B, wal, shuffled bool) {
	const fleet, batch = 25_000, 1000
	states := []string{"S1(full)", "S3(cpu-unavail)", "S2(lowest-priority)", "S1(full)"}
	r := benchRegistry(b, wal, true)
	ds := benchDigests(fleet)
	for lo := 0; lo < fleet; lo += batch {
		if resp := r.handle(Request{Op: "register_batch", Digests: ds[lo : lo+batch]}); !resp.OK {
			b.Fatal(resp.Error)
		}
	}
	for i := range ds {
		ds[i].Name = strings.Clone(ds[i].Name)
	}
	if shuffled {
		rand.New(rand.NewSource(1)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * batch % fleet
		sweep := i * batch / fleet
		hb := ds[lo : lo+batch]
		for j := range hb {
			if j%5 == 0 { // the churned fifth
				hb[j].State, hb[j].Gen = states[(sweep+j/5)%len(states)], int64(4+sweep)
			}
			hb[j].UnixMS += 1000
		}
		if resp := r.handle(Request{Op: "heartbeat_batch", Digests: hb}); !resp.OK || len(resp.Missing) != 0 {
			b.Fatalf("heartbeat_batch: %+v", resp)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/digest")
}
