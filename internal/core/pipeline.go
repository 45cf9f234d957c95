package core

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// The point-read engine. Every one-sided read of the tree is one
// resumable state machine whose remote reads are posted verbs, run at
// some pipeline depth on ONE client:
//
//   - Search runs a single op to completion on a client-owned op struct
//     (depth 1): post, poll, step, until done.
//   - SearchBatch keeps up to `depth` ops in flight, so the round trips
//     of different keys overlap on the virtual clock exactly as
//     coroutine-multiplexed lookups overlap on a real NIC (the CHIME
//     artifact runs several coroutines per CPU thread for this reason).
//     Scheduling is FIFO round-robin: the op whose read was posted
//     earliest is polled first (its completion is the oldest, so polling
//     it advances the clock the least), then it posts its next read and
//     goes to the back of the queue.
//
// An op is a descent (below) followed by the leaf phase (§4.4): the
// hopscotch neighbourhood window — plus, under the ReplicateMeta
// ablation, the dedicated replica READ posted after the window lands —
// then a KV-block READ for indirect values, chasing B-link siblings
// across half-splits. Cache hits advance an op several levels without
// posting anything. Optimistic-retry failures (torn reads, stale caches,
// half-splits) are isolated per op: one key restarting never unwinds its
// neighbours.
//
// Hotness-aware speculation (§4.3) is an argument of the engine, on for
// Search only: the one-entry speculative READ saves bytes but serializes
// an extra dependent round trip per key, which is exactly what batch
// pipelining is trying to hide. Found entries are still recorded in the
// hotspot buffer on every path so interleaved Searches keep speculating.
//
// The descent is shared beyond reads: the batch writers (writepipeline.go)
// resume the same walk, and traverse drives it to the leaf by post and
// poll for the synchronous write protocol and Scan.

// descent is one key's resumable walk from the root to the leaf that
// covers it: the super-block READ when the root is unknown, then
// internal nodes from the CN cache or by posted READ, chasing B-link
// siblings across half-splits, until a level-1 node names the leaf.
type descent struct {
	key  uint64
	ref  leafRef // the leaf, once arrived
	path []pathEntry
	cur  dmsim.GAddr
	hops int
	torn int

	inflight *dmsim.Completion
	atRoot   bool // the READ in flight is the super block's
	rootBuf  [8]byte
	nodeImg  []byte // internal-node image in flight (pooled)
}

// descentResult is what a descent step leaves its owner to do.
type descentResult int

const (
	descPosted  descentResult = iota // a READ is in flight: stepDescent resumes
	descArrived                      // d.ref names the leaf
	descRestart                      // optimistic conflict: restart from the root
	descFailed                       // a verb error or an exhausted retry bound
)

// startDescent (re)starts d from the root: it charges the step's local
// work and posts the super-block READ when the root is unknown,
// otherwise descends through the cache.
func (c *Client) startDescent(d *descent) (descentResult, error) {
	d.path = d.path[:0]
	d.hops, d.torn = 0, 0
	c.chargeLocalWork()
	if c.rootAddr.IsNil() {
		h, err := c.dc.PostRead(c.ix.super, d.rootBuf[:])
		if err != nil {
			return descFailed, err
		}
		d.inflight, d.atRoot = h, true
		return descPosted, nil
	}
	return c.descendFrom(d, c.rootAddr, c.rootLevel)
}

// stepDescent reaps d's READ in flight and resumes the walk.
func (c *Client) stepDescent(d *descent) (descentResult, error) {
	c.reap(&d.inflight)
	if d.atRoot {
		d.atRoot = false
		c.rootAddr, c.rootLevel = unpackSuper(binary.LittleEndian.Uint64(d.rootBuf[:]))
		return c.descendFrom(d, c.rootAddr, c.rootLevel)
	}
	if err := c.ix.inner.checkInternalImage(d.nodeImg); err != nil {
		c.obs.TornReads.Inc()
		if d.torn++; d.torn > maxRetries {
			return c.abortDescent(d, fmt.Errorf("core: internal node %v: torn-read retries exhausted", d.cur))
		}
		c.yield()
		return c.postNode(d)
	}
	fresh := c.ix.inner.decodeInternal(d.cur, d.nodeImg)
	c.ix.inner.putImage(d.nodeImg)
	d.nodeImg = nil
	if !fresh.valid {
		return descRestart, nil
	}
	c.cn.cache.put(d.cur, fresh, int64(c.ix.inner.size))
	if r, more := c.visit(d, fresh, false); !more {
		return r, nil
	}
	return c.descendCached(d)
}

func (c *Client) descendFrom(d *descent, root dmsim.GAddr, level uint8) (descentResult, error) {
	if level == 0 {
		d.ref = leafRef{addr: root} // the root is a leaf
		return descArrived, nil
	}
	d.cur = root
	return c.descendCached(d)
}

// descendCached walks internal levels through the CN cache until it
// posts a READ for a missing node or reaches an outcome.
func (c *Client) descendCached(d *descent) (descentResult, error) {
	for ; d.hops < maxRetries; d.hops++ {
		n := c.cn.cache.get(d.cur)
		if n == nil {
			d.nodeImg = c.ix.inner.getImage()
			return c.postNode(d)
		}
		if r, more := c.visit(d, n, true); !more {
			return r, nil
		}
	}
	return descFailed, fmt.Errorf("core: descent(%#x): loop exhausted", d.key)
}

func (c *Client) postNode(d *descent) (descentResult, error) {
	h, err := c.dc.PostRead(d.cur, d.nodeImg)
	if err != nil {
		return c.abortDescent(d, err)
	}
	d.inflight = h
	return descPosted, nil
}

func (c *Client) abortDescent(d *descent, err error) (descentResult, error) {
	c.ix.inner.putImage(d.nodeImg)
	d.nodeImg = nil
	return descFailed, err
}

// visit applies internal node n — cached, or just fetched — to the
// walk. more reports that the walk continues locally at d.cur.
func (c *Client) visit(d *descent, n *internalNode, fromCache bool) (r descentResult, more bool) {
	key := d.key
	if !n.covers(key) {
		if fromCache {
			// Stale cached node: drop it and retry this address remotely.
			c.cn.cache.invalidate(d.cur)
			return 0, true
		}
		if !n.fenceInf && key >= n.fenceHi && !n.sibling.IsNil() {
			// Half-split at this level: chase the B-link sibling.
			c.obs.SiblingChases.Inc()
			d.cur = n.sibling
			return 0, true
		}
		return descRestart, false
	}
	d.path = append(d.path, pathEntry{addr: d.cur, level: n.level})
	child, _, next := n.childFor(key)
	if child.IsNil() {
		if fromCache {
			c.cn.cache.invalidate(d.cur)
			return 0, true
		}
		return descRestart, false
	}
	if n.level > 1 {
		d.cur = child
		return 0, true
	}
	d.ref = leafRef{
		addr:            child,
		expected:        next,
		expectedKnown:   !next.IsNil(),
		parentAddr:      d.cur,
		parentFromCache: fromCache,
		path:            d.path,
	}
	return descArrived, false
}

// reap polls a posted verb and recycles its handle.
func (c *Client) reap(h **dmsim.Completion) {
	if *h != nil {
		c.dc.Poll(*h)
		c.dc.Release(*h)
		*h = nil
	}
}

// leafFetch is one planned leaf fetch in flight: the window READ, then
// the dedicated replica READ when the plan needs one.
type leafFetch struct {
	leaf     dmsim.GAddr
	im       *leafImage
	w        *leafWindow
	inflight *dmsim.Completion
	atMeta   bool
}

// startFetch posts the window READ of f.w into f.im.
func (c *Client) startFetch(f *leafFetch) error {
	f.atMeta = false
	segs := f.w.segs
	var h *dmsim.Completion
	var err error
	if len(segs) == 1 {
		h, err = c.dc.PostRead(f.leaf.Add(uint64(segs[0].Off)), f.im.buf[segs[0].Off:segs[0].End])
	} else {
		addrs := make([]dmsim.GAddr, len(segs))
		bufs := make([][]byte, len(segs))
		for i, s := range segs {
			addrs[i] = f.leaf.Add(uint64(s.Off))
			bufs[i] = f.im.buf[s.Off:s.End]
		}
		h, err = c.dc.PostReadBatch(addrs, bufs)
	}
	f.inflight = h
	return err
}

// stepFetch reaps the READ in flight. After the window it posts the
// dedicated replica READ when the plan has one and reports false; it
// reports true once every byte of the plan has landed.
func (c *Client) stepFetch(f *leafFetch) (bool, error) {
	c.reap(&f.inflight)
	if f.atMeta || f.w.meta.size() == 0 {
		return true, nil
	}
	f.atMeta = true
	m := f.w.meta
	h, err := c.dc.PostRead(f.leaf.Add(uint64(m.Off)), f.im.buf[m.Off:m.End])
	f.inflight = h
	return false, err
}

// readWindow fetches plan w of leaf into im synchronously and validates
// the versions of every covered cell, retrying torn reads.
func (c *Client) readWindow(leaf dmsim.GAddr, im *leafImage, w *leafWindow) error {
	f := leafFetch{leaf: leaf, im: im, w: w}
	for try := 0; try < maxRetries; try++ {
		err := c.startFetch(&f)
		for done := false; err == nil && !done; {
			done, err = c.stepFetch(&f)
		}
		if err != nil {
			return err
		}
		if checkVersions(im.buf, 0, w.covered) == nil {
			return nil
		}
		c.obs.TornReads.Inc()
		c.yield()
	}
	return fmt.Errorf("core: leaf %v: torn-read retries exhausted", leaf)
}

// searchOp states.
const (
	opDescend   = iota + 1 // descent READ in flight
	opSpecWait             // speculative one-entry READ in flight
	opSpecBlock            // speculative hit's KV-block READ in flight
	opFetchWait            // leaf window (or its replica) READ in flight
	opBlockWait            // found entry's KV-block READ in flight
	opDone
)

// searchOp is one point read in flight.
type searchOp struct {
	descent
	idx   int  // position in the SearchBatch input / result slices
	spec  bool // try the hotspot buffer's one-entry read first (§4.3)
	state int

	home     int
	win      leafWindow // planned on first use
	f        leafFetch  // f.im is the op's pooled leaf image
	inflight *dmsim.Completion
	specIdx  int
	block    []byte // KV block ([8B key][value]) of an indirect value

	chases, restarts, leafTorn int

	val []byte
	err error
}

// reset readies op for a new key, keeping its reusable path buffer.
func (op *searchOp) reset(key uint64, idx int, spec bool) {
	*op = searchOp{descent: descent{key: key, path: op.path[:0]}, idx: idx, spec: spec}
}

// searchOneSided performs a point query with one-sided verbs only: the
// engine at depth 1, with speculation, on the client's own op. The
// public Search (offload.go) routes between this and the MN-side
// offload program.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	op := &c.one
	op.reset(key, 0, true)
	for c.startSearch(op); op.state != opDone; {
		c.stepSearch(op)
	}
	return op.val, op.err
}

// SearchBatch performs up to depth point lookups concurrently on this
// client, returning per-key values and errors (ErrNotFound for absent
// keys). depth <= 1 runs one key at a time; results are positionally
// aligned with keys.
func (c *Client) SearchBatch(keys []uint64, depth int) ([][]byte, []error) {
	n := len(keys)
	vals := make([][]byte, n)
	errs := make([]error, n)
	if n == 0 {
		return vals, errs
	}
	if sp := c.obs.Tracer.Begin("chime.search_batch", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		sp.Arg("keys", n)
		sp.Arg("depth", depth)
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpBatchRead, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	if depth < 1 {
		depth = 1
	}

	// A finished op's struct carries the next admitted key.
	queue := make([]*searchOp, 0, depth)
	var spare *searchOp
	next := 0
	admit := func() {
		for next < n && len(queue) < depth {
			op := spare
			if op == nil {
				op = new(searchOp)
			}
			spare = nil
			op.reset(keys[next], next, false)
			next++
			if c.startSearch(op); op.state == opDone {
				vals[op.idx], errs[op.idx] = op.val, op.err
				spare = op
				continue
			}
			queue = append(queue, op)
		}
	}
	admit()
	for len(queue) > 0 {
		op := queue[0]
		queue = queue[1:]
		if c.stepSearch(op); op.state == opDone {
			vals[op.idx], errs[op.idx] = op.val, op.err
			spare = op
			admit()
		} else {
			queue = append(queue, op)
		}
	}
	return vals, errs
}

func (c *Client) startSearch(op *searchOp) {
	op.home = c.ix.leaf.homeOf(op.key)
	r, err := c.startDescent(&op.descent)
	c.descended(op, r, err)
}

// descended acts on a descent outcome.
func (c *Client) descended(op *searchOp, r descentResult, err error) {
	switch r {
	case descPosted:
		op.state = opDescend
	case descArrived:
		c.resetBackoff()
		c.enterLeaf(op)
	case descRestart:
		c.restartSearch(op)
	default:
		c.finishSearch(op, nil, err)
	}
}

// stepSearch reaps the op's READ in flight and advances its state
// machine until it posts again or completes.
func (c *Client) stepSearch(op *searchOp) {
	switch op.state {
	case opDescend:
		r, err := c.stepDescent(&op.descent)
		c.descended(op, r, err)

	case opSpecWait:
		c.reap(&op.inflight)
		c.specLanded(op)

	case opSpecBlock:
		c.reap(&op.inflight)
		if binary.LittleEndian.Uint64(op.block[:8]) != op.key {
			c.specMissed(op) // the entry was re-pointed under us
			return
		}
		c.specHit(op, op.block[8:])

	case opFetchWait:
		done, err := c.stepFetch(&op.f)
		if err != nil {
			c.finishSearch(op, nil, err)
		} else if done {
			c.leafLanded(op)
		}

	case opBlockWait:
		c.reap(&op.inflight)
		if binary.LittleEndian.Uint64(op.block[:8]) != op.key {
			c.restartSearch(op)
			return
		}
		c.finishSearch(op, op.block[8:], nil)

	default:
		c.finishSearch(op, nil, fmt.Errorf("core: search: step in state %d", op.state))
	}
}

// enterLeaf starts the leaf phase at op.ref: the speculative one-entry
// READ when the hotspot buffer knows where the key sat, else the window.
func (c *Client) enterLeaf(op *searchOp) {
	lay := c.ix.leaf
	if op.f.im == nil {
		op.f.im = lay.getImage()
	}
	if op.spec {
		if idx := c.cn.hotspot.lookup(op.ref.addr, op.key, op.home, lay.h, lay.span); idx >= 0 {
			op.specIdx = idx
			cc := lay.entryCells[idx]
			h, err := c.dc.PostRead(op.ref.addr.Add(uint64(cc.Off)), op.f.im.buf[cc.Off:cc.End()])
			if err != nil {
				c.finishSearch(op, nil, err)
				return
			}
			op.inflight, op.state = h, opSpecWait
			return
		}
	}
	c.fetchLeaf(op)
}

// fetchLeaf posts the neighbourhood window of op.ref (torn-read reposts
// reuse the plan and the image).
func (c *Client) fetchLeaf(op *searchOp) {
	if op.win.segs == nil {
		op.win = c.ix.leaf.planWindow(op.home, c.ix.leaf.h, c.ix.opts.ReplicateMeta, -1)
	}
	op.f.leaf, op.f.w = op.ref.addr, &op.win
	if err := c.startFetch(&op.f); err != nil {
		c.finishSearch(op, nil, err)
		return
	}
	op.state = opFetchWait
}

// specLanded judges a speculative read: the cell must be untorn and
// still hold the key.
func (c *Client) specLanded(op *searchOp) {
	lay := c.ix.leaf
	im := op.f.im
	if checkVersions(im.buf, 0, lay.entryCells[op.specIdx:op.specIdx+1]) == nil {
		if e := im.entry(op.specIdx); e.occupied && e.key == op.key {
			if !c.ix.opts.Indirect {
				c.specHit(op, append([]byte(nil), e.value...))
				return
			}
			if ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e.value[:8])); !ptr.IsNil() {
				c.postBlock(op, ptr, opSpecBlock)
				return
			}
		}
	}
	c.specMissed(op)
}

func (c *Client) specHit(op *searchOp, val []byte) {
	c.cn.hotspot.noteSpeculation(true)
	c.obs.HotspotHits.Inc()
	c.finishSearch(op, val, nil)
}

// specMissed forgets the stale hotspot and falls back to the window.
func (c *Client) specMissed(op *searchOp) {
	c.cn.hotspot.noteSpeculation(false)
	c.obs.HotspotMisses.Inc()
	c.cn.hotspot.drop(op.ref.addr, op.specIdx)
	c.fetchLeaf(op)
}

func (c *Client) postBlock(op *searchOp, ptr dmsim.GAddr, state int) {
	op.block = make([]byte, 8+c.ix.opts.ValueSize)
	h, err := c.dc.PostRead(ptr, op.block)
	if err != nil {
		c.finishSearch(op, nil, err)
		return
	}
	op.inflight, op.state = h, state
}

// leafLanded validates and searches a landed window (§4.1.2, §4.2.3).
func (c *Client) leafLanded(op *searchOp) {
	lay := c.ix.leaf
	im := op.f.im
	if checkVersions(im.buf, 0, op.win.covered) != nil {
		c.obs.TornReads.Inc()
		if op.leafTorn++; op.leafTorn > maxRetries {
			c.finishSearch(op, nil, fmt.Errorf("core: leaf %v: torn-read retries exhausted", op.ref.addr))
			return
		}
		c.yield()
		c.fetchLeaf(op)
		return
	}
	c.resetBackoff()

	// Third synchronization level (§4.1.2): the stored hopscotch bitmap
	// of the home entry must match the bitmap reconstructed from the
	// keys actually fetched; a mismatch means a concurrent hop-range
	// write was caught mid-flight.
	homeEntry := im.entry(op.home)
	if homeEntry.hopBM != im.reconstructHopBitmap(op.home) {
		c.restartSearch(op)
		return
	}
	foundIdx := -1
	var foundVal []byte
	for d := 0; d < lay.h; d++ {
		if homeEntry.hopBM&(1<<uint(d)) == 0 {
			continue
		}
		if e := im.entry(op.win.idxs[d]); e.occupied && e.key == op.key {
			foundIdx, foundVal = op.win.idxs[d], e.value
			break
		}
	}
	meta := im.meta(op.win.metaG)
	follow, err := c.validateLeafMeta(&op.ref, meta, op.key, foundIdx >= 0)
	if err != nil {
		c.restartSearch(op)
		return
	}
	switch {
	case foundIdx >= 0:
		c.cn.hotspot.record(op.ref.addr, foundIdx, op.key)
		if !c.ix.opts.Indirect {
			c.finishSearch(op, append([]byte(nil), foundVal...), nil)
			return
		}
		ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(foundVal[:8]))
		if ptr.IsNil() {
			c.restartSearch(op)
			return
		}
		c.postBlock(op, ptr, opBlockWait)
	case follow:
		c.obs.SiblingChases.Inc()
		if op.chases++; op.chases > maxRetries {
			c.finishSearch(op, nil, fmt.Errorf("core: Search(%#x): sibling chain too long", op.key))
			return
		}
		op.ref = leafRef{addr: meta.sibling}
		c.enterLeaf(op)
	default:
		c.finishSearch(op, nil, ErrNotFound)
	}
}

// restartSearch retraverses one key after an optimistic conflict; other
// keys in flight are untouched.
func (c *Client) restartSearch(op *searchOp) {
	c.obs.Retries.Inc()
	if op.restarts++; op.restarts > maxRetries {
		c.finishSearch(op, nil, fmt.Errorf("core: Search(%#x): retries exhausted", op.key))
		return
	}
	c.rootAddr = dmsim.NilGAddr // a split root invalidates it
	c.yield()
	c.startSearch(op)
}

// finishSearch completes the op and recycles its leaf image; a
// completed (non-error or not-found) read also resets the backoff.
func (c *Client) finishSearch(op *searchOp, val []byte, err error) {
	if err == nil || err == ErrNotFound {
		c.resetBackoff()
	}
	op.val, op.err = val, err
	c.ix.leaf.putImage(op.f.im)
	op.f.im = nil
	op.state = opDone
}
