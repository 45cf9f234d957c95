package core

import (
	"testing"

	"chime/internal/dmsim"
)

// buildAllocTree loads a tree big enough to have real internal levels,
// returning a client with a warm node cache.
func buildAllocTree(tb testing.TB, n int) *Client {
	tb.Helper()
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	f := dmsim.MustNewFabric(cfg)
	ix, err := Bootstrap(f, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cn := ix.NewComputeNode(64<<20, 1<<20)
	cl := cn.NewClient()
	for i := 1; i <= n; i++ {
		if err := cl.Insert(uint64(i)*7, val8(uint64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// TestSearchAllocsBounded pins the allocation profile of the point-read
// engine. A warm-cache Search runs on the client's own op and fetches
// one leaf window into a pooled image; without pooling every search
// allocates a full leaf image (plus an internal image per cache miss),
// and without recycling polled completions every posted verb
// heap-allocates its handle. SearchBatch runs the same engine on
// per-batch ops. Each bound is ~2x the measured warm figure so it only
// trips on structural regressions, not noise.
func TestSearchAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	batch := make([]uint64, 8)
	for i := range batch {
		batch[i] = uint64(100*i+3) * 7
	}
	cases := []struct {
		name      string
		op        func() error
		maxAllocs float64
	}{
		{"Search", func() error {
			_, err := cl.Search(key)
			return err
		}, 4},
		{"SearchBatch/depth1", func() error {
			_, errs := cl.SearchBatch([]uint64{key}, 1)
			return errs[0]
		}, 50},
		{"SearchBatch/depth8", func() error {
			_, errs := cl.SearchBatch(batch, 8)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}, 370},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ { // warm cache and pools
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", tc.name, avg)
		if avg > tc.maxAllocs {
			t.Errorf("warm %s allocates %.1f objects/op, want <= %.0f (image pooling or completion recycling regressed?)", tc.name, avg, tc.maxAllocs)
		}
	}
}

// TestInsertAllocsBounded pins image pooling on the write path: a warm
// upsert (same key re-inserted) locks, fetches one insert window into a
// pooled buffer, and writes back. Without pooling every write allocates
// a full leaf image, blowing well past this ceiling.
func TestInsertAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ { // warm cache and pools
		if err := cl.Insert(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.Insert(key, val8(2)); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if avg > maxAllocs {
		t.Fatalf("warm Insert allocates %.1f objects/op, want <= %d (write-path image pooling regressed?)", avg, maxAllocs)
	}
}

// TestUpdateAllocsBounded does the same for the update/delete window
// path (readWindow + writeRangeAndUnlock).
func TestUpdateAllocsBounded(t *testing.T) {
	cl := buildAllocTree(t, 2000)
	key := uint64(700) * 7
	for i := 0; i < 3; i++ {
		if err := cl.Update(key, val8(1)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := cl.Update(key, val8(3)); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if avg > maxAllocs {
		t.Fatalf("warm Update allocates %.1f objects/op, want <= %d (write-path image pooling regressed?)", avg, maxAllocs)
	}
}

func BenchmarkSearch(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%2000+1) * 7
		if _, err := cl.Search(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	cl := buildAllocTree(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Scan(uint64(i%1000+1)*7, 50); err != nil {
			b.Fatal(err)
		}
	}
}
