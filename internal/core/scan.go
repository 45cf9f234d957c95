package core

import (
	"chime/internal/dmsim"

	"encoding/binary"
	"fmt"
	"sort"
)

// KV is one result of a range scan.
type KV struct {
	Key   uint64
	Value []byte
}

// scanOneSided returns up to count items with keys >= start, in
// ascending key order (§4.4), using one-sided verbs only; the public
// Scan (offload.go) routes between this and the MN-side offload
// program. Leaves along the range are fetched whole (their entries
// are hash-ordered, not key-ordered) and the sibling chain is followed;
// each leaf costs one round trip, as in Table 1. The chain is pipelined
// with posted verbs: the next sibling's read is posted as soon as the
// current leaf's metadata is decoded, overlapping it with the current
// leaf's indirect-value reads (which are themselves posted as a group).
func (c *Client) scanOneSided(start uint64, count int) ([]KV, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		out, err := c.scanOnce(start, count)
		if err == errRestart {
			c.obs.Retries.Inc()
			c.rootAddr = dmsim.NilGAddr
			c.yield()
			continue
		}
		return out, err
	}
	return nil, fmt.Errorf("core: Scan(%#x): retries exhausted", start)
}

func (c *Client) scanOnce(start uint64, count int) ([]KV, error) {
	ref, err := c.traverse(start)
	if err != nil {
		return nil, err
	}
	lay := c.ix.leaf
	var out []KV
	addr := ref.addr
	var pre *leafPrefetch
	defer func() {
		// A prefetch can be outstanding on every exit path (errors,
		// early count satisfaction); drain it so in-flight accounting
		// stays balanced and its image returns to the pool.
		if pre != nil {
			pre.abandon(c)
		}
	}()
	for leaves := 0; leaves <= maxRetries; leaves++ {
		var im *leafImage
		var meta leafMeta
		if pre != nil {
			im, meta, err = c.finishLeafPrefetch(pre)
			pre = nil
		} else {
			im, meta, err = c.readLeafForScan(addr)
		}
		if err != nil {
			return nil, err
		}
		if !meta.valid {
			lay.putImage(im)
			return nil, errRestart
		}

		// Post the sibling's whole-node read before resolving this
		// leaf's values: its round trip proceeds while the indirect
		// block reads below are in flight.
		if !meta.sibling.IsNil() && len(out) < count {
			pre = c.postLeafRead(meta.sibling)
		}
		addr = meta.sibling

		batch, err := c.collectLeafBatch(im, start)
		lay.putImage(im)
		if err != nil {
			return nil, err
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i].Key < batch[j].Key })
		out = append(out, batch...)
		if len(out) >= count {
			return out[:count], nil
		}
		if addr.IsNil() {
			return out, nil
		}
	}
	return nil, fmt.Errorf("core: Scan(%#x): sibling chain too long", start)
}

// collectLeafBatch extracts the in-range entries of a validated leaf
// image. Values are copied out (or fetched from their blocks), so the
// image can be recycled as soon as this returns. Indirect block reads
// are posted as a group so their round trips overlap each other and any
// sibling prefetch already in flight.
func (c *Client) collectLeafBatch(im *leafImage, start uint64) ([]KV, error) {
	lay := c.ix.leaf
	var batch []KV
	if !c.ix.opts.Indirect {
		for i := 0; i < lay.span; i++ {
			e := im.entry(i)
			if !e.occupied || e.key < start {
				continue
			}
			batch = append(batch, KV{Key: e.key, Value: append([]byte(nil), e.value...)})
		}
		return batch, nil
	}
	type pending struct {
		key uint64
		buf []byte
		h   *dmsim.Completion
	}
	var pends []pending
	var firstErr error
	for i := 0; i < lay.span && firstErr == nil; i++ {
		e := im.entry(i)
		if !e.occupied || e.key < start {
			continue
		}
		ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(e.value[:8]))
		if ptr.IsNil() {
			firstErr = errRestart
			break
		}
		buf := make([]byte, 8+c.ix.opts.ValueSize)
		h, err := c.dc.PostRead(ptr, buf)
		if err != nil {
			firstErr = err
			break
		}
		pends = append(pends, pending{key: e.key, buf: buf, h: h})
	}
	for _, p := range pends {
		c.reap(&p.h)
		if firstErr != nil {
			continue // drain only
		}
		if binary.LittleEndian.Uint64(p.buf[:8]) != p.key {
			firstErr = errRestart
			continue
		}
		batch = append(batch, KV{Key: p.key, Value: p.buf[8:]})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return batch, nil
}

// leafPrefetch is a posted whole-leaf read in flight.
type leafPrefetch struct {
	addr dmsim.GAddr
	im   *leafImage
	h    *dmsim.Completion
}

// postLeafRead posts the whole-node read of a sibling leaf. Post errors
// (range violations) are deferred: finishLeafPrefetch falls back to the
// synchronous path, which re-reports them.
func (c *Client) postLeafRead(addr dmsim.GAddr) *leafPrefetch {
	lay := c.ix.leaf
	im := lay.getImage()
	for i := range im.buf[:lineSize] {
		im.buf[i] = 0
	}
	h, err := c.dc.PostRead(addr.Add(lineSize), im.buf[lineSize:])
	if err != nil {
		lay.putImage(im)
		return &leafPrefetch{addr: addr}
	}
	return &leafPrefetch{addr: addr, im: im, h: h}
}

// finishLeafPrefetch polls a posted leaf read and validates it exactly
// as readLeafForScan does (version bytes plus hopscotch-bitmap
// reconstruction); any validation failure falls back to the synchronous
// retry loop.
func (c *Client) finishLeafPrefetch(p *leafPrefetch) (*leafImage, leafMeta, error) {
	lay := c.ix.leaf
	if p.im == nil {
		return c.readLeafForScan(p.addr)
	}
	c.reap(&p.h)
	ok := checkVersions(p.im.buf, 0, lay.allCells) == nil
	if ok {
		for home := 0; home < lay.span; home++ {
			if p.im.entry(home).hopBM != p.im.reconstructHopBitmap(home) {
				ok = false
				break
			}
		}
	}
	if ok {
		return p.im, p.im.meta(0), nil
	}
	lay.putImage(p.im)
	c.yield()
	return c.readLeafForScan(p.addr)
}

// abandon drains a prefetch that will not be consumed. The poll charges
// the client the verb's completion time — strictly conservative (a
// wasted prefetch can only slow the scan down, never speed it up).
func (p *leafPrefetch) abandon(c *Client) {
	if p.im != nil {
		c.reap(&p.h)
		c.ix.leaf.putImage(p.im)
	}
}

// readLeafForScan fetches a whole leaf with full three-level
// validation: version bytes, plus hopscotch-bitmap reconstruction for
// every home entry so a mid-flight hop-range write cannot hide a key.
func (c *Client) readLeafForScan(addr dmsim.GAddr) (*leafImage, leafMeta, error) {
	lay := c.ix.leaf
	for try := 0; try < maxRetries; try++ {
		im, _, metaG, err := c.fetchWholeLeaf(addr)
		if err != nil {
			return nil, leafMeta{}, err
		}
		consistent := true
		for home := 0; home < lay.span; home++ {
			if im.entry(home).hopBM != im.reconstructHopBitmap(home) {
				consistent = false
				break
			}
		}
		if !consistent {
			lay.putImage(im)
			c.yield()
			continue
		}
		return im, im.meta(metaG), nil
	}
	return nil, leafMeta{}, fmt.Errorf("core: scan leaf %v: retries exhausted", addr)
}
