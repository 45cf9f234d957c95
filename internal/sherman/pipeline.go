package sherman

import (
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
	"chime/internal/nodelayout"
	"chime/internal/obs"
)

// The point-read engine for the Sherman baseline, the same shape as
// internal/core's: every one-sided read is one resumable state machine
// whose remote reads are posted verbs. Search runs one op to completion
// on a client-owned op struct (depth 1); SearchBatch keeps up to `depth`
// ops in flight with FIFO round-robin polling, so the pipelining
// sensitivity experiment compares the two systems through an identical
// interface. An op is a descent (below) followed by whole-leaf READs —
// Sherman's read amplification is the point of the comparison — chasing
// B-link siblings by fence key, then a KV-block READ for indirect values.
//
// The descent is shared beyond reads: the batch writers
// (writepipeline.go) resume the same walk, and traverse drives it to the
// leaf by post and poll for the synchronous write protocol and scans.

// descent is one key's resumable walk from the root to the leaf that
// covers it: the super-block READ when the root is unknown, then
// internal nodes from the CN cache or by posted whole-node READ, chasing
// B-link siblings across half-splits, until a level-1 node names the
// leaf.
type descent struct {
	key  uint64
	leaf dmsim.GAddr // the leaf, once arrived
	path []pathEntry
	cur  dmsim.GAddr
	hops int
	torn int

	inflight *dmsim.Completion
	atRoot   bool // the READ in flight is the super block's
	rootBuf  [8]byte
	nodeImg  []byte // internal-node image; decoding copies what it keeps
}

// descentResult is what a descent step leaves its owner to do.
type descentResult int

const (
	descPosted  descentResult = iota // a READ is in flight: stepDescent resumes
	descArrived                      // d.leaf names the leaf
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
	if err := nodelayout.CheckVersions(d.nodeImg, 0, c.ix.inner.allCells); err != nil {
		c.obs.TornReads.Inc()
		if d.torn++; d.torn > maxRetries {
			return descFailed, fmt.Errorf("sherman: node %v: torn-read retries exhausted", d.cur)
		}
		c.ys.yield(c.dc)
		return c.postNode(d)
	}
	c.ys.reset()
	hdr := c.ix.inner.decodeHeader(d.nodeImg)
	if !hdr.valid {
		return descRestart, nil
	}
	n := c.decodeInternal(d.cur, d.nodeImg, hdr)
	c.cn.cachePut(d.cur, n)
	if r, more := c.visit(d, n, false); !more {
		return r, nil
	}
	return c.descendCached(d)
}

func (c *Client) descendFrom(d *descent, root dmsim.GAddr, level uint8) (descentResult, error) {
	if level == 0 {
		d.leaf = root // the root is a leaf
		return descArrived, nil
	}
	d.cur = root
	return c.descendCached(d)
}

// descendCached walks internal levels through the CN cache until it
// posts a READ for a missing node or reaches an outcome.
func (c *Client) descendCached(d *descent) (descentResult, error) {
	for ; d.hops < maxRetries; d.hops++ {
		n := c.cn.cacheGet(d.cur)
		if n == nil {
			return c.postNode(d)
		}
		if r, more := c.visit(d, n, true); !more {
			return r, nil
		}
	}
	return descFailed, fmt.Errorf("sherman: descent(%#x): loop exhausted", d.key)
}

func (c *Client) postNode(d *descent) (descentResult, error) {
	if len(d.nodeImg) != c.ix.inner.size {
		d.nodeImg = make([]byte, c.ix.inner.size)
	}
	h, err := c.dc.PostRead(d.cur.Add(lineSize), d.nodeImg[lineSize:])
	if err != nil {
		return descFailed, err
	}
	d.inflight = h
	return descPosted, nil
}

// visit applies internal node n — cached, or just fetched — to the
// walk. more reports that the walk continues locally at d.cur.
func (c *Client) visit(d *descent, n *node, fromCache bool) (r descentResult, more bool) {
	key := d.key
	if !n.covers(key) {
		if fromCache {
			// Stale cached node: drop it and retry this address remotely.
			c.cn.cacheDrop(d.cur)
			return 0, true
		}
		if !n.hdr.fenceInf && key >= n.hdr.fenceHi && !n.hdr.sibling.IsNil() {
			// Half-split at this level: chase the B-link sibling.
			c.obs.SiblingChases.Inc()
			d.cur = n.hdr.sibling
			return 0, true
		}
		return descRestart, false
	}
	d.path = append(d.path, pathEntry{addr: d.cur, level: n.hdr.level})
	child := n.childFor(key)
	if child.IsNil() {
		if fromCache {
			c.cn.cacheDrop(d.cur)
			return 0, true
		}
		return descRestart, false
	}
	if n.hdr.level > 1 {
		d.cur = child
		return 0, true
	}
	d.leaf = child
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

// searchOp states.
const (
	opDescend   = iota + 1 // descent READ in flight
	opLeafWait             // whole-leaf READ in flight
	opBlockWait            // found entry's KV-block READ in flight
	opDone
)

// searchOp is one point read in flight.
type searchOp struct {
	descent
	idx   int // position in the SearchBatch input / result slices
	state int

	img      []byte // leaf image; values are copied out of it
	inflight *dmsim.Completion
	block    []byte // KV block ([8B key][value]) of an indirect value

	chases, restarts, leafTorn int

	val []byte
	err error
}

// reset readies op for a new key, keeping its reusable buffers.
func (op *searchOp) reset(key uint64, idx int) {
	*op = searchOp{descent: descent{key: key, path: op.path[:0], nodeImg: op.nodeImg}, idx: idx, img: op.img}
}

// searchOneSided performs a point query with one-sided verbs, fetching
// the entire leaf node — the read amplification CHIME's hopscotch leaves
// eliminate: the engine at depth 1 on the client's own op. The public
// Search (offload.go) routes between this and the MN-side offload
// program.
func (c *Client) searchOneSided(key uint64) ([]byte, error) {
	op := &c.one
	op.reset(key, 0)
	for c.startSearch(op); op.state != opDone; {
		c.stepSearch(op)
	}
	return op.val, op.err
}

// SearchBatch performs up to depth point lookups concurrently on this
// client; results are positionally aligned with keys and absent keys
// report ErrNotFound.
func (c *Client) SearchBatch(keys []uint64, depth int) ([][]byte, []error) {
	n := len(keys)
	vals := make([][]byte, n)
	errs := make([]error, n)
	if n == 0 {
		return vals, errs
	}
	if sp := c.obs.Tracer.Begin("sherman.search_batch", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
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
			op.reset(keys[next], next)
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
	r, err := c.startDescent(&op.descent)
	c.descended(op, r, err)
}

// descended acts on a descent outcome.
func (c *Client) descended(op *searchOp, r descentResult, err error) {
	switch r {
	case descPosted:
		op.state = opDescend
	case descArrived:
		c.postLeaf(op)
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

	case opLeafWait:
		c.reap(&op.inflight)
		if nodelayout.CheckVersions(op.img, 0, c.ix.leaf.allCells) != nil {
			c.obs.TornReads.Inc()
			if op.leafTorn++; op.leafTorn > maxRetries {
				c.finishSearch(op, nil, fmt.Errorf("sherman: node %v: torn-read retries exhausted", op.leaf))
				return
			}
			c.ys.yield(c.dc)
			c.postLeaf(op)
			return
		}
		c.ys.reset()
		c.leafLanded(op)

	case opBlockWait:
		c.reap(&op.inflight)
		if binary.LittleEndian.Uint64(op.block[:8]) != op.key {
			c.restartSearch(op)
			return
		}
		c.finishSearch(op, op.block[8:], nil)

	default:
		c.finishSearch(op, nil, fmt.Errorf("sherman: search: step in state %d", op.state))
	}
}

// postLeaf posts the whole-node READ of op.leaf.
func (c *Client) postLeaf(op *searchOp) {
	if len(op.img) != c.ix.leaf.size {
		op.img = make([]byte, c.ix.leaf.size)
	}
	h, err := c.dc.PostRead(op.leaf.Add(lineSize), op.img[lineSize:])
	if err != nil {
		c.finishSearch(op, nil, err)
		return
	}
	op.inflight, op.state = h, opLeafWait
}

// leafLanded validates a landed leaf by its fence keys — following the
// sibling across a half-split — and searches it.
func (c *Client) leafLanded(op *searchOp) {
	lay := c.ix.leaf
	hdr := lay.decodeHeader(op.img)
	if !hdr.valid || op.key < hdr.fenceLow {
		c.restartSearch(op)
		return
	}
	if !hdr.fenceInf && op.key >= hdr.fenceHi {
		if hdr.sibling.IsNil() {
			c.restartSearch(op)
			return
		}
		c.obs.SiblingChases.Inc()
		if op.chases++; op.chases > maxRetries {
			c.finishSearch(op, nil, fmt.Errorf("sherman: Search(%#x): leaf chain too long", op.key))
			return
		}
		op.leaf = hdr.sibling
		c.postLeaf(op)
		return
	}
	for i := 0; i < lay.span; i++ {
		e := lay.decodeEntry(op.img, i)
		if !e.occupied || e.key != op.key {
			continue
		}
		if !c.ix.opts.Indirect {
			c.finishSearch(op, append([]byte(nil), e.val[:lay.valSize]...), nil)
			return
		}
		ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e.val[:8]))
		if ptr.IsNil() {
			c.restartSearch(op)
			return
		}
		op.block = make([]byte, 8+c.ix.opts.ValueSize)
		h, err := c.dc.PostRead(ptr, op.block)
		if err != nil {
			c.finishSearch(op, nil, err)
			return
		}
		op.inflight, op.state = h, opBlockWait
		return
	}
	c.finishSearch(op, nil, ErrNotFound)
}

// restartSearch retraverses one key after an optimistic conflict; other
// keys in flight are untouched.
func (c *Client) restartSearch(op *searchOp) {
	c.obs.Retries.Inc()
	if op.restarts++; op.restarts > maxRetries {
		c.finishSearch(op, nil, fmt.Errorf("sherman: Search(%#x): retries exhausted", op.key))
		return
	}
	c.rootAddr = dmsim.NilGAddr // a split root-leaf invalidates it
	c.ys.yield(c.dc)
	c.startSearch(op)
}

func (c *Client) finishSearch(op *searchOp, val []byte, err error) {
	op.val, op.err = val, err
	op.state = opDone
}
