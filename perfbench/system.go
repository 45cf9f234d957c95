package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chime/internal/core"
	"chime/internal/dmsim"
	"chime/internal/rdwc"
	"chime/internal/ycsb"
)

// workload is one YCSB mix with the compute-node cache budget it runs
// under. BENCHMARK.json records why each was chosen.
type workload struct {
	name       string
	mix        ycsb.Mix
	cacheBytes int64
	// fillHotspot makes a full hotspot buffer part of steady state. The
	// mixes that search record hotspots; scans and inserts never do.
	fillHotspot bool
}

var workloads = []workload{
	// 128 KB is below CHIME's ~0.3 MB internal-node footprint at 200k
	// keys, so searches miss the node cache.
	{name: "ycsb-c", mix: ycsb.WorkloadC, cacheBytes: 128 << 10, fillHotspot: true},
	// 4 MB holds every internal node: the write path, not the cache,
	// sets the cost.
	{name: "ycsb-a", mix: ycsb.WorkloadA, cacheBytes: 4 << 20, fillHotspot: true},
	{name: "ycsb-e", mix: ycsb.WorkloadE, cacheBytes: 4 << 20},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want ycsb-c, ycsb-a, ycsb-e or all)", name)
}

// config sizes a run. defaultConfig is the benchmark; tests shrink it.
type config struct {
	keys         int   // rows bulk-loaded before warm-up
	clients      int   // closed-loop simulated clients
	hotspotBytes int64 // CHIME hotspot-buffer budget (16 B per entry)
	setups       int   // set-ups per untraced run; setup_s is their median
	warmBurst    int   // warm-up ops between steady-state checks
	settleOps    int64 // warm-up ops after the hotspot buffer fills
	maxWarm      time.Duration
}

var defaultConfig = config{
	keys:         200_000,
	clients:      16,
	hotspotBytes: 512 << 10, // 32,768 entries, as Fig 12's scale gives
	setups:       3,
	warmBurst:    16_000,
	settleOps:    6_000,
	maxWarm:      90 * time.Second,
}

// index is the part of core.Client the benchmark drives. Tests
// substitute a faulty implementation to check the oracle.
type index interface {
	Search(key uint64) ([]byte, error)
	Update(key uint64, value []byte) error
	Insert(key uint64, value []byte) error
	Scan(start uint64, count int) ([]core.KV, error)
}

// system is one CHIME tree on a fresh fabric with one compute node, its
// read-delegation/write-combining layer and the load set.
type system struct {
	w    workload
	cfg  config
	fab  *dmsim.Fabric
	ix   *core.Index
	cn   *core.ComputeNode
	comb *rdwc.Combiner
	ks   *ycsb.KeySpace

	loaded   []uint64 // bulk-loaded keys, sorted; never deleted
	inserted []uint64 // keys whose Insert was acknowledged

	warm warmState
}

// warmState is the steady-state proof taken when warm-up ends.
type warmState struct {
	loadS, warmS  float64 // host seconds of bulk load and of warm-up
	ops, failed   int64
	hotspotFill   float64
	cacheUsedKB   float64
	reachedSteady bool
}

// newFabric is the default simulated fabric with 1 MB allocation chunks,
// as the figure experiments use (internal/bench.DefaultFabric), so that
// every client's chunk reservation fits one memory node.
func newFabric() (*dmsim.Fabric, error) {
	cfg := dmsim.DefaultConfig()
	cfg.ChunkBytes = 1 << 20
	return dmsim.NewFabric(cfg)
}

// setUp builds the fabric and tree, bulk-loads cfg.keys rows and warms
// the caches to steady state. Its process CPU time is what setup_s
// reports.
func setUp(w workload, cfg config, seed int64) (*system, error) {
	fab, err := newFabric()
	if err != nil {
		return nil, err
	}
	ix, err := core.Bootstrap(fab, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	s := &system{
		w:      w,
		cfg:    cfg,
		fab:    fab,
		ix:     ix,
		cn:     ix.NewComputeNode(w.cacheBytes, cfg.hotspotBytes),
		comb:   rdwc.NewCombiner(),
		ks:     ycsb.NewKeySpace(uint64(cfg.keys)),
		loaded: ycsb.LoadKeys(uint64(cfg.keys)),
	}
	sort.Slice(s.loaded, func(i, j int) bool { return s.loaded[i] < s.loaded[j] })
	t0 := time.Now()
	if err := s.load(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := s.warmUp(seed); err != nil {
		return nil, err
	}
	s.warm.loadS, s.warm.warmS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return s, nil
}

// load inserts the load keys in ascending order from one client, so
// the loaded tree is the same on every run (the figure experiments load
// from eight clients, whose interleaving shapes the tree).
func (s *system) load() error {
	c := s.newClient()
	for _, k := range s.loaded {
		if err := c.ix.Insert(k, c.nextValue(k)); err != nil {
			return fmt.Errorf("load %#x: %w", k, err)
		}
	}
	return nil
}

// warmUp runs the workload's own mix, with a seed distinct from the
// measured phases', in bursts until the steady state holds while every
// client is idle: the node cache grew by at most 1% over the last
// burst and, on mixes that search, the hotspot buffer is full and has
// then absorbed cfg.settleOps more ops. Host cost per op falls for the
// first few seconds of evictions after the buffer fills and only then
// levels off, so the settling ops belong to warm-up. A burst ends early
// the moment the buffer fills.
func (s *system) warmUp(seed int64) error {
	start := time.Now()
	gens, err := s.generators(opSeed(seed, 0))
	if err != nil {
		return err
	}
	prevCache := int64(-1)
	settled := int64(-1) // ops run since the buffer filled; -1 before
	for {
		burst := int64(s.cfg.warmBurst)
		if settled >= 0 {
			burst = min(burst, max(s.cfg.settleOps-settled, 1))
		}
		var done atomic.Int64
		cls, _ := s.runClients(gens, 0, func(c *client, gen *ycsb.Generator) bool {
			s.do(c, gen.Next(), nil)
			n := done.Add(1)
			return n < burst && !(settled < 0 && s.w.fillHotspot && n%64 == 0 && s.hotspotFull())
		})
		s.noteInserted(cls)
		for _, c := range cls {
			s.warm.ops += c.ops
			s.warm.failed += c.failed
		}
		if settled >= 0 {
			settled += done.Load()
		}
		full := !s.w.fillHotspot || s.hotspotFull()
		if full && settled < 0 && s.w.fillHotspot {
			settled = 0
		}
		used := s.cn.CacheStats().UsedBytes
		grew := prevCache < 0 || used > prevCache+prevCache/100
		prevCache = used
		if full && !grew && (!s.w.fillHotspot || settled >= s.cfg.settleOps) {
			s.warm.reachedSteady = true
			break
		}
		if time.Since(start) > s.cfg.maxWarm {
			break
		}
	}
	hs := s.cn.HotspotStats()
	s.warm.hotspotFill = ratio(int64(hs.Entries), int64(hs.Cap))
	s.warm.cacheUsedKB = float64(prevCache) / 1024
	return nil
}

func (s *system) hotspotFull() bool {
	hs := s.cn.HotspotStats()
	return hs.Cap > 0 && hs.Entries >= hs.Cap
}

// opSeed derives the generator seed of warm-up (phase 0) or of a
// measured phase (1, 2, ...) from the workload seed.
func opSeed(seed int64, phase int) int64 { return seed*1_000_003 + int64(phase)*7_777_777 }

// generators returns one op generator per client. Client i's is seeded
// with seed+i*7919, as bench.Run seeds its clients.
func (s *system) generators(seed int64) ([]*ycsb.Generator, error) {
	gens := make([]*ycsb.Generator, s.cfg.clients)
	for i := range gens {
		g, err := ycsb.NewGenerator(s.w.mix, s.ks, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// runClients runs one fresh closed-loop client per generator, all in
// one cohort. Each client steps until step returns false for any
// client, or until dur has passed when dur > 0. It returns the clients,
// for their tallies, and the wall time from launch to the last client's
// exit.
func (s *system) runClients(gens []*ycsb.Generator, dur time.Duration, step func(*client, *ycsb.Generator) bool) ([]*client, time.Duration) {
	cls := make([]*client, len(gens))
	for i := range cls {
		// Every client joins before any runs, so the cohort shares one
		// virtual epoch (see bench.Run).
		cls[i] = s.newClient()
		cls[i].dm.JoinCohort()
		cls[i].startNs = cls[i].dm.Now()
	}
	var stop atomic.Bool
	start := time.Now()
	if dur > 0 {
		t := time.AfterFunc(dur, func() { stop.Store(true) })
		defer t.Stop()
	}
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(c *client, g *ycsb.Generator) {
			defer wg.Done()
			defer c.dm.LeaveCohort()
			for !stop.Load() {
				if !step(c, g) {
					stop.Store(true)
				}
			}
			c.endNs = c.dm.Now()
		}(cls[i], gens[i])
	}
	wg.Wait()
	return cls, time.Since(start)
}

// client is one simulated client: a core client behind the compute
// node's combiner, plus the oracle's per-client tallies.
type client struct {
	ix      index
	dm      *dmsim.Client
	comb    *rdwc.Combiner
	value   [valueSize]byte
	version uint16

	ops, failed    int64
	inserted       []uint64
	startNs, endNs int64    // virtual clock when the client joined and left
	lat            []int64  // virtual ns per measured op
	kinds          [5]int64 // measured ops per ycsb.OpKind
	sp             *spanRec // nil unless the phase is traced
}

func (s *system) newClient() *client {
	cl := s.cn.NewClient()
	return &client{ix: cl, dm: cl.DM(), comb: s.comb}
}

const valueSize = 8

// tagOf is the 48-bit tag every value written for key carries in its
// high bytes; the low 16 bits count writes so updates change the bytes.
func tagOf(key uint64) uint64 { return ycsb.Mix64(key^0x7a6b5c4d3e2f1a0b) &^ 0xffff }

func tagged(key uint64, v []byte) bool {
	return len(v) == valueSize && binary.LittleEndian.Uint64(v)&^0xffff == tagOf(key)
}

// nextValue fills the client's value buffer for a write of key. The
// combiner may hand the buffer to another client's flush, but returns
// only once it has been written, so reuse after the call is safe.
func (c *client) nextValue(key uint64) []byte {
	c.version++
	binary.LittleEndian.PutUint64(c.value[:], tagOf(key)|uint64(c.version))
	return c.value[:]
}

// isLoaded reports whether key was bulk-loaded, so must exist.
func (s *system) isLoaded(key uint64) bool {
	i := sort.Search(len(s.loaded), func(i int) bool { return s.loaded[i] >= key })
	return i < len(s.loaded) && s.loaded[i] == key
}

// do runs one op through the combiner (searches and updates) or the
// core client (inserts and scans) and checks the answer. A wrong or
// missing answer, or any error other than not-found on a key not known
// to exist, counts as failed. sp, when set, records host spans.
func (s *system) do(c *client, op ycsb.Op, sp *spanRec) {
	c.ops++
	ok := true
	switch op.Kind {
	case ycsb.OpRead:
		v, err := c.search(op.Key, sp)
		switch {
		case err == nil:
			ok = tagged(op.Key, v)
		case errors.Is(err, core.ErrNotFound):
			ok = !s.isLoaded(op.Key)
		default:
			ok = false
		}
	case ycsb.OpUpdate:
		err := c.update(op.Key, sp)
		ok = err == nil || (errors.Is(err, core.ErrNotFound) && !s.isLoaded(op.Key))
	case ycsb.OpInsert:
		sp.begin(spanCoreInsert)
		err := c.ix.Insert(op.Key, c.nextValue(op.Key))
		sp.end()
		if ok = err == nil; ok {
			c.inserted = append(c.inserted, op.Key)
		}
	case ycsb.OpScan:
		sp.begin(spanCoreScan)
		kvs, err := c.ix.Scan(op.Key, op.ScanLen)
		sp.end()
		ok = err == nil && s.scanCorrect(op.Key, op.ScanLen, kvs)
	default:
		ok = false // the three mixes generate no other kind
	}
	if !ok {
		c.failed++
	}
}

func (c *client) search(key uint64, sp *spanRec) ([]byte, error) {
	sp.begin(spanRDWCRead)
	defer sp.end()
	return c.comb.Read(c.dm, key, func() ([]byte, error) {
		sp.begin(spanCoreSearch)
		defer sp.end()
		return c.ix.Search(key)
	})
}

func (c *client) update(key uint64, sp *spanRec) error {
	sp.begin(spanRDWCWrite)
	defer sp.end()
	return c.comb.Write(c.dm, key, c.nextValue(key), func(v []byte) error {
		sp.begin(spanCoreUpdate)
		defer sp.end()
		return c.ix.Update(key, v)
	})
}

// scanCorrect checks a scan of up to count keys from start: at most
// count results, strictly ascending, none below start, each correctly
// tagged, and no loaded key missing from the range the scan covers
// (all keys from start when it returned fewer than count).
func (s *system) scanCorrect(start uint64, count int, kvs []core.KV) bool {
	if len(kvs) > count {
		return false
	}
	for i, kv := range kvs {
		if kv.Key < start || (i > 0 && kv.Key <= kvs[i-1].Key) || !tagged(kv.Key, kv.Value) {
			return false
		}
	}
	j := 0
	for i := sort.Search(len(s.loaded), func(i int) bool { return s.loaded[i] >= start }); i < len(s.loaded); i++ {
		k := s.loaded[i]
		if len(kvs) == count && k > kvs[len(kvs)-1].Key {
			break
		}
		for j < len(kvs) && kvs[j].Key < k {
			j++
		}
		if j == len(kvs) || kvs[j].Key != k {
			return false
		}
	}
	return true
}

// sweep searches every loaded and every acknowledged inserted key
// through a fresh compute node with no hotspot buffer, and returns how
// many it checked and how many were missing or wrongly tagged.
func (s *system) sweep(workers int) (checked, failed int64) {
	keys := append(append([]uint64(nil), s.loaded...), s.inserted...)
	cn := s.ix.NewComputeNode(4<<20, 0)
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(cl *core.Client, w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				if v, err := cl.Search(keys[i]); err != nil || !tagged(keys[i], v) {
					bad.Add(1)
				}
			}
		}(cn.NewClient(), w)
	}
	wg.Wait()
	return int64(len(keys)), bad.Load()
}

func (s *system) noteInserted(cls []*client) {
	for _, c := range cls {
		s.inserted = append(s.inserted, c.inserted...)
		c.inserted = nil
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
