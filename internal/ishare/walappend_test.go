package ishare

import (
	"testing"
	"time"
)

func BenchmarkWALAppendUpsert(b *testing.B) {
	// The background sync loop is on, as in a shard: a threshold crossing
	// kicks it rather than syncing inline.
	w, _, err := openWAL(WALOptions{Dir: b.TempDir(), CompactEvery: 1 << 30}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close(false)
	ds := benchDigests(1000)
	ms := time.Now().UnixMilli()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.appendUpsert(ds, ms); err != nil {
			b.Fatal(err)
		}
	}
}
