package sherman

import (
	"encoding/binary"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

// TestCrossCNStaleCache: CN1 warms its cache, CN2 splits nodes behind
// its back, and CN1 must detect staleness via fence checks, drop cached
// nodes and still find every key.
func TestCrossCNStaleCache(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(64 << 20)
	cn2 := ix.NewComputeNode(64 << 20)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	const phase1 = 800
	for i := uint64(0); i < phase1; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm CN1's cache.
	for i := uint64(0); i < phase1; i++ {
		if _, err := cl1.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	// CN2 grows the tree far past CN1's cached view.
	const phase2 = 4000
	for i := uint64(phase1); i < phase2; i++ {
		if err := cl2.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	// CN1 must find both old and new keys through its stale cache.
	for i := uint64(0); i < phase2; i += 7 {
		got, err := cl1.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("stale-cache search %d: %v %v", i, got, err)
		}
	}
	// And update through it.
	for i := uint64(0); i < phase2; i += 101 {
		if err := cl1.Update(ycsb.KeyOf(i), val8(i+1)); err != nil {
			t.Fatalf("stale-cache update %d: %v", i, err)
		}
	}

	// Search and SearchBatch count sibling chases alike. Two fresh CNs
	// cache the same view; CN2 then grows the right edge of the key
	// space, so both walk identical stale rightmost paths and reach the
	// new keys only by chasing fence-key siblings from the old last leaf.
	top := uint64(0)
	for i := uint64(0); i < phase2; i++ {
		top = max(top, ycsb.KeyOf(i))
	}
	sinkS, sinkB := obs.NewSink(false), obs.NewSink(false)
	cnS, cnB := ix.NewComputeNode(64<<20), ix.NewComputeNode(64<<20)
	cnS.SetObserver(sinkS)
	cnB.SetObserver(sinkB)
	clS, clB := cnS.NewClient(), cnB.NewClient()
	for i := uint64(0); i < phase2; i += 7 {
		for _, cl := range []*Client{clS, clB} {
			if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var edge []uint64
	for i := uint64(1); i <= 2000; i++ {
		edge = append(edge, top+i)
		if err := cl2.Insert(top+i, val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	chases := func(s *obs.Sink) int64 { return s.Registry().Counter(obs.NameSiblingChase).Load() }
	s0, b0 := chases(sinkS), chases(sinkB)
	for i, k := range edge {
		got, err := clS.Search(k)
		if err != nil || binary.LittleEndian.Uint64(got) != uint64(i+1) {
			t.Fatalf("right-edge search %d: %v %v", i+1, got, err)
		}
	}
	vals, errs := clB.SearchBatch(edge, 1)
	for i := range edge {
		if errs[i] != nil || binary.LittleEndian.Uint64(vals[i]) != uint64(i+1) {
			t.Fatalf("right-edge batch search %d: %v %v", i+1, vals[i], errs[i])
		}
	}
	if dS, dB := chases(sinkS)-s0, chases(sinkB)-b0; dS == 0 || dS != dB {
		t.Fatalf("sibling chases: Search %d, SearchBatch %d; want equal and nonzero", dS, dB)
	}
}

func TestTinyCacheEviction(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A cache that holds roughly two internal nodes forces constant
	// eviction.
	cn := ix.NewComputeNode(int64(2 * ix.InternalNodeSize()))
	cl := cn.NewClient()
	for i := uint64(0); i < 3000; i++ {
		if err := cl.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3000; i++ {
		if _, err := cl.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	hits, misses, nodes, used := cn.CacheStats()
	if used > int64(2*ix.InternalNodeSize()) {
		t.Fatalf("cache exceeded budget: %d bytes", used)
	}
	if misses == 0 || nodes > 2 {
		t.Fatalf("eviction never happened: hits=%d misses=%d nodes=%d", hits, misses, nodes)
	}
}

func TestAccessors(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 64 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Options().SpanSize != 64 {
		t.Fatal("Options accessor")
	}
	if ix.LeafNodeSize() <= 0 || ix.InternalNodeSize() <= 0 {
		t.Fatal("node size accessors")
	}
	if ix.LeafNodeSize() < 64*17 {
		t.Fatalf("leaf %dB implausibly small", ix.LeafNodeSize())
	}
}
