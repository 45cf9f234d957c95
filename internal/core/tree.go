package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"chime/internal/dmsim"
	"chime/internal/locktable"
	"chime/internal/obs"
	"chime/internal/offroute"
)

// Index is one CHIME tree living in the memory pool. It is cheap to
// share: it holds only the fabric handle, options, derived layouts and
// the address of the super block (root pointer). Create per-CN state
// with NewComputeNode and per-client handles with ComputeNode.NewClient.
type Index struct {
	fabric *dmsim.Fabric
	opts   Options
	leaf   *leafLayout
	inner  *internalLayout
	super  dmsim.GAddr

	// mnprog is the MN-side offload program registered at bootstrap
	// (mnprog.go); offMN is the MN it is addressed on — the root's MN,
	// where every descent starts.
	mnprog dmsim.MNProgramID
	offMN  int
}

// ErrNotFound reports that a key is absent from the tree.
var ErrNotFound = errors.New("core: key not found")

// errRestart is an internal signal: the current attempt observed a
// structural change (stale cache, half-split, deleted node) and the
// operation must retraverse.
var errRestart = errors.New("core: restart traversal")

// maxRetries bounds optimistic retry loops; exceeding it indicates a
// livelock-grade problem and surfaces as an error rather than a hang.
const maxRetries = 100000

// localWorkNs is the CN-side compute charged per tree operation step
// (hashing, local search) on the virtual clock.
const localWorkNs = 150

// Bootstrap creates a fresh tree on the fabric: a super block holding
// the root pointer and one empty leaf as the root.
func Bootstrap(f *dmsim.Fabric, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLeafLayout(opts),
		inner:  newInternalLayout(opts),
	}
	boot := f.NewClient()

	super, err := boot.AllocRPC(0, 8)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap super block: %w", err)
	}
	ix.super = super

	leafAddr, err := boot.AllocRPC(0, ix.leaf.size)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap root leaf: %w", err)
	}
	im := newLeafImage(ix.leaf)
	im.setAllMeta(leafMeta{valid: true, fenceInf: true})
	if err := boot.Write(leafAddr, im.buf); err != nil {
		return nil, err
	}
	if err := ix.writeSuper(boot, leafAddr, 0); err != nil {
		return nil, err
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Attach binds to a tree that already exists on the fabric — a
// warm-started persistent fabric whose MN memory was restored from a
// folio snapshot+log. It performs no remote writes: the super block,
// root and all nodes are taken as-is; opts must match the options the
// tree was bootstrapped with (layouts are derived from them).
func Attach(f *dmsim.Fabric, opts Options, super dmsim.GAddr) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		fabric: f,
		opts:   opts,
		leaf:   newLeafLayout(opts),
		inner:  newInternalLayout(opts),
		super:  super,
	}
	ix.mnprog = f.RegisterMNProgram(&mnProgram{ix: ix})
	ix.offMN = int(super.MN)
	return ix, nil
}

// Super returns the super block's address, the one root pointer a
// re-attaching compute node needs (persisted across restarts via
// dmsim.Fabric.SetPersistMeta).
func (ix *Index) Super() dmsim.GAddr { return ix.super }

// Options returns the tree's configuration.
func (ix *Index) Options() Options { return ix.opts }

// LeafNodeSize returns the encoded size of one leaf node in bytes.
func (ix *Index) LeafNodeSize() int { return ix.leaf.size }

// InternalNodeSize returns the encoded size of one internal node.
func (ix *Index) InternalNodeSize() int { return ix.inner.size }

// The super block is a single CAS-able word: level in the top byte, the
// root node's MN-0 offset in the low 56 bits. Root nodes are always
// allocated on MN 0 so the whole root identity fits one atomic word.
func packSuper(addr dmsim.GAddr, level uint8) uint64 {
	return dmsim.PackTagged(addr, level)
}

func unpackSuper(w uint64) (dmsim.GAddr, uint8) {
	return dmsim.UnpackTagged(w)
}

func (ix *Index) writeSuper(c *dmsim.Client, root dmsim.GAddr, level uint8) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], packSuper(root, level))
	return c.Write(ix.super, b[:])
}

// ComputeNode models one compute node: the internal-node cache and the
// hotspot buffer shared by all of its clients (§2.2, §4.3).
type ComputeNode struct {
	ix      *Index
	cache   *nodeCache
	hotspot *hotspotBuffer
	locks   *locktable.Table
	obs     obs.IndexInstruments
}

// SetObserver attaches an observability sink; clients created afterward
// count retries, torn reads, lock backoffs, sibling chases, splits and
// merges into it, and emit per-operation trace spans when the sink
// traces. Call before NewClient, from a single goroutine. With no sink
// every instrumented call is a no-op.
func (cn *ComputeNode) SetObserver(s *obs.Sink) {
	cn.obs = obs.ResolveIndex(s)
}

// NewComputeNode creates CN-shared state with the given byte budgets for
// the internal-node cache and the hotspot buffer. A zero hotspot budget,
// or Options.SpeculativeRead=false, disables speculative reads.
func (ix *Index) NewComputeNode(cacheBytes, hotspotBytes int64) *ComputeNode {
	if !ix.opts.SpeculativeRead {
		hotspotBytes = 0
	}
	return &ComputeNode{
		ix:      ix,
		cache:   newNodeCache(cacheBytes),
		hotspot: newHotspotBuffer(hotspotBytes),
		locks:   locktable.New(),
	}
}

// LockTableStats reports local-lock acquisitions and handovers.
func (cn *ComputeNode) LockTableStats() (acquires, handovers int64) {
	return cn.locks.Stats()
}

// CacheStats reports the CN's internal-node cache counters.
func (cn *ComputeNode) CacheStats() CacheStats { return cn.cache.stats() }

// HotspotStats reports the CN's hotspot-buffer counters.
func (cn *ComputeNode) HotspotStats() HotspotStats { return cn.hotspot.stats() }

// Client is one client (CPU core / coroutine) on a compute node. Not
// safe for concurrent use: each simulated client owns one goroutine.
type Client struct {
	cn    *ComputeNode
	ix    *Index
	dc    *dmsim.Client
	alloc *dmsim.ChunkAllocator

	rootAddr  dmsim.GAddr
	rootLevel uint8

	backoff int64

	// Write-pipeline counters: leaf write cycles executed and batch keys
	// absorbed into an already-open cycle (per-leaf write combining).
	wcCycles   int64
	wcCombined int64

	// Instruments resolved from the CN's sink at construction; all
	// fields are nil-safe no-ops without a sink.
	obs obs.IndexInstruments

	// router decides one-sided vs. MN-side offload per op (offload.go);
	// nil when Options.Offload is off. offBuf is the reusable offload
	// response buffer.
	router *offroute.Router
	offBuf []byte

	// one is Search's op (the point-read engine at depth 1); walk is
	// traverse's descent. Both keep their path buffers across ops.
	one  searchOp
	walk descent
}

// NewClient creates a client handle bound to this compute node.
func (cn *ComputeNode) NewClient() *Client {
	dc := cn.ix.fabric.NewClient()
	dc.SetFlight(cn.obs.Flight.NewFlight(dc.ID()))
	bufSize := cn.ix.opts.ValueSize
	if bufSize < 8 {
		bufSize = 8
	}
	return &Client{
		cn:     cn,
		ix:     cn.ix,
		dc:     dc,
		alloc:  dmsim.NewChunkAllocator(dc, int(dc.ID())%cn.ix.fabric.MNs()),
		obs:    cn.obs,
		router: offroute.New(cn.ix.opts.Offload),
		offBuf: make([]byte, bufSize),
	}
}

// DM returns the underlying fabric client (virtual clock and traffic
// stats), used by the benchmark harness.
func (c *Client) DM() *dmsim.Client { return c.dc }

// yield backs off after an optimistic conflict: a little virtual time
// plus a scheduler yield so the conflicting writer can finish in real
// time too.
func (c *Client) yield() {
	if c.backoff < 64 {
		c.backoff = 64
	} else if c.backoff < 8192 {
		c.backoff *= 2
	}
	c.dc.Advance(c.backoff)
	runtime.Gosched()
}

func (c *Client) resetBackoff() { c.backoff = 0 }

// chargeLocalWork charges the per-step CN-side compute, labeled as
// cache/local-lookup work in the flight ledger.
func (c *Client) chargeLocalWork() {
	fl := c.dc.Flight()
	prev := fl.SetPhase(obs.PhaseCacheLookup)
	c.dc.Advance(localWorkNs)
	fl.SetPhase(prev)
}

// refreshRoot re-reads the super block.
func (c *Client) refreshRoot() error {
	var b [8]byte
	if err := c.dc.Read(c.ix.super, b[:]); err != nil {
		return err
	}
	c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(b[:]))
	return nil
}

// readInternal fetches and validates an internal node, retrying torn
// reads. It does not consult the cache. The raw image is returned
// alongside the decoded node so that a subsequent node write can bump
// the node-level versions relative to the fetched state.
func (c *Client) readInternal(addr dmsim.GAddr) (*internalNode, []byte, error) {
	img := c.ix.inner.getImage()
	for try := 0; try < maxRetries; try++ {
		if err := c.dc.Read(addr, img); err != nil {
			return nil, nil, err
		}
		if err := c.ix.inner.checkInternalImage(img); err != nil {
			c.obs.TornReads.Inc()
			c.yield()
			continue
		}
		c.resetBackoff()
		return c.ix.inner.decodeInternal(addr, img), img, nil
	}
	return nil, nil, fmt.Errorf("core: internal node %v: torn-read retries exhausted", addr)
}

// pathEntry records one internal node visited during traversal, for
// split up-propagation.
type pathEntry struct {
	addr  dmsim.GAddr
	level uint8
}

// leafRef identifies the leaf a traversal reached plus the context
// needed for sibling-based validation (§4.2.3).
type leafRef struct {
	addr dmsim.GAddr

	// expected is the "next child pointer" from the parent: what the
	// leaf's sibling pointer should equal. Unknown (expectedKnown
	// false) when the leaf is its parent's last child or was reached
	// by sibling chase.
	expected      dmsim.GAddr
	expectedKnown bool

	// parentAddr/fromCache drive cache invalidation on mismatch.
	parentAddr      dmsim.GAddr
	parentFromCache bool

	path []pathEntry
}

// traverse drives a descent to the leaf covering key by post and poll:
// the point-read engine's walk at depth 1, for the synchronous write
// protocol and Scan. The returned ref's path shares the client's walk
// buffer and is valid until the next traverse.
func (c *Client) traverse(key uint64) (leafRef, error) {
	d := &c.walk
	d.key = key
	for attempt := 0; attempt < maxRetries; attempt++ {
		r, err := c.startDescent(d)
		for r == descPosted {
			r, err = c.stepDescent(d)
		}
		switch r {
		case descArrived:
			c.resetBackoff()
			return d.ref, nil
		case descFailed:
			return leafRef{}, err
		}
		c.obs.Retries.Inc()
		c.rootAddr = dmsim.NilGAddr // force a super-block re-read
		c.yield()
	}
	return leafRef{}, fmt.Errorf("core: traverse(%#x): restart loop exhausted", key)
}

// validateLeafMeta applies sibling-based validation to a fetched leaf
// window. Returns errRestart for stale caches and deleted nodes; reports
// followSibling=true when the reader should continue into the sibling
// (possible half-split).
func (c *Client) validateLeafMeta(ref *leafRef, meta leafMeta, key uint64, found bool) (followSibling bool, err error) {
	if !meta.valid {
		return false, errRestart
	}
	mismatch := ref.expectedKnown && meta.sibling != ref.expected
	if mismatch && ref.parentFromCache {
		// Cache validation (§4.2.3 rule 1): the cached parent predates a
		// split; invalidate and retry the whole search.
		c.cn.cache.invalidate(ref.parentAddr)
		return false, errRestart
	}
	if found {
		return false, nil
	}
	// Half-split validation (§4.2.3 rule 2): key absent, sibling pointer
	// mismatched (or unknown with the key beyond the fence) — the key may
	// have moved right.
	if mismatch {
		return true, nil
	}
	if !ref.expectedKnown && !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
		return true, nil
	}
	return false, nil
}
