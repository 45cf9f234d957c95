package core

import (
	"encoding/binary"
	"testing"

	"chime/internal/dmsim"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

// TestCrossCNStaleCache exercises the sibling-based cache validation
// (§4.2.3 rule 1) across compute nodes: CN2 splits leaves behind CN1's
// cached parents; CN1's reads must detect the mismatch between the
// leaf's sibling pointer and the cached parent's next-child pointer,
// invalidate, and retry successfully.
func TestCrossCNStaleCache(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 512 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(64<<20, 1<<20)
	cn2 := ix.NewComputeNode(64<<20, 0)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	const phase1 = 800
	for i := uint64(0); i < phase1; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < phase1; i++ { // warm CN1
		if _, err := cl1.Search(ycsb.KeyOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := cn1.CacheStats()

	const phase2 = 5000
	for i := uint64(phase1); i < phase2; i++ {
		if err := cl2.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}

	for i := uint64(0); i < phase2; i += 7 {
		got, err := cl1.Search(ycsb.KeyOf(i))
		if err != nil || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("stale-cache search %d: %v %v", i, got, err)
		}
	}
	after := cn1.CacheStats()
	if after.Invalidations == before.Invalidations {
		t.Fatal("expected cache invalidations from sibling-based validation")
	}

	// Writes through the stale cache must land too.
	for i := uint64(0); i < phase2; i += 113 {
		if err := cl1.Update(ycsb.KeyOf(i), val8(i^0xF)); err != nil {
			t.Fatalf("stale update %d: %v", i, err)
		}
		if err := cl1.Insert(ycsb.KeyOf(uint64(phase2)+i), val8(i)); err != nil {
			t.Fatalf("stale insert %d: %v", i, err)
		}
	}
	// Scans via the stale CN.
	out, err := cl1.Scan(0, 200)
	if err != nil || len(out) != 200 {
		t.Fatalf("stale scan: %d %v", len(out), err)
	}

	// Search and SearchBatch count sibling chases alike. Two fresh CNs
	// (no hotspot buffer, so Search does not speculate) cache the same
	// view; CN2 then grows the right edge of the key space, so both walk
	// identical stale rightmost paths and reach the new keys only by
	// chasing B-link siblings from the old last leaf.
	top := uint64(0)
	for i := uint64(0); i < phase2; i++ {
		top = max(top, ycsb.KeyOf(i), ycsb.KeyOf(phase2+i))
	}
	sinkS, sinkB := obs.NewSink(false), obs.NewSink(false)
	cnS, cnB := ix.NewComputeNode(64<<20, 0), ix.NewComputeNode(64<<20, 0)
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

// TestHotspotStaleAfterCrossCNUpdate: CN1's hotspot buffer records an
// entry location; CN2 moves the key (delete + reinsert elsewhere) and
// the speculative read must miss cleanly, fall back, and repair.
func TestHotspotStaleAfterCrossCNUpdate(t *testing.T) {
	cfg := dmsim.DefaultConfig()
	cfg.MNSize = 256 << 20
	ix, err := Bootstrap(dmsim.MustNewFabric(cfg), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cn1 := ix.NewComputeNode(32<<20, 1<<20)
	cn2 := ix.NewComputeNode(32<<20, 0)
	cl1, cl2 := cn1.NewClient(), cn2.NewClient()

	for i := uint64(0); i < 300; i++ {
		if err := cl1.Insert(ycsb.KeyOf(i), val8(i)); err != nil {
			t.Fatal(err)
		}
	}
	hot := ycsb.KeyOf(42)
	for i := 0; i < 30; i++ { // make it a hotspot on CN1
		if _, err := cl1.Search(hot); err != nil {
			t.Fatal(err)
		}
	}
	// CN2 rewrites the key's value out from under CN1's buffer.
	if err := cl2.Update(hot, val8(999)); err != nil {
		t.Fatal(err)
	}
	got, err := cl1.Search(hot)
	if err != nil || binary.LittleEndian.Uint64(got) != 999 {
		t.Fatalf("speculative read returned stale cross-CN value: %v %v", got, err)
	}
	// CN2 deletes it; CN1 must see the absence despite its hotspot.
	if err := cl2.Delete(hot); err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Search(hot); err == nil {
		t.Fatal("deleted key still visible through hotspot buffer")
	}
}
