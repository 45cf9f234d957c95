package core

import (
	"encoding/binary"
	"runtime"
	"sort"

	"chime/internal/dmsim"
)

// MN-side offload program (dmsim offload verbs). The program is
// co-designed with the remote layout in this package: it reuses the same
// image codecs and validation machinery the one-sided client paths use,
// but runs them against the MN's local memory through a metered MNCtx —
// every byte it touches feeds the bounded MN CPU's service time
// (dmsim/mncpu.go), so offload is never free.
//
// MN cores only reach their own memory, so the program handles exactly
// the ops that stay on one MN and returns a fallback verdict for
// everything else (cross-MN children, indirect blocks placed on other
// MNs, contended locks, torn reads past a small local budget); the
// client then redoes the op with one-sided verbs, which reach
// everything. The retry budgets are deliberately tiny compared to the
// client's maxRetries: an MN-local retry costs no round trip, but under
// the event-loop scheduler the program executes inside the issuing
// client's lane slot, so spinning on a lock held by a same-lane peer
// cannot make progress — give up early and let the one-sided fallback
// path (which parks at the sync gate) absorb the contention.
const (
	// mnTornRetries bounds MN-local optimistic re-reads of a torn node.
	mnTornRetries = 64

	// mnLockRetries bounds MN-side leaf lock acquisition attempts.
	mnLockRetries = 64

	// mnChainHops bounds sibling chases and descent hops.
	mnChainHops = 128
)

// mnProgram implements dmsim.MNProgram for one CHIME tree. Stateless
// beyond the shared Index, so one value serves every MN and client.
type mnProgram struct {
	ix *Index
}

// mnStep is the internal control-flow verdict of the program's helpers:
// either a definitive/fallback dmsim status (done=true), or a request to
// restart from the root (done=false), mirroring errRestart.
type mnStep struct {
	st   dmsim.OffloadStatus
	done bool
}

var mnRestart = mnStep{}

func mnDone(st dmsim.OffloadStatus) mnStep { return mnStep{st: st, done: true} }

// readInternal fetches and validates an internal node through the
// metered view. The returned image must be recycled by the caller after
// the decoded node's last use (decode copies everything it keeps).
func (p *mnProgram) readInternal(ctx *dmsim.MNCtx, addr dmsim.GAddr) (*internalNode, mnStep) {
	lay := p.ix.inner
	img := lay.getImage()
	defer lay.putImage(img)
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(addr, img) {
			return nil, mnDone(dmsim.OffloadCrossMN)
		}
		if lay.checkInternalImage(img) != nil {
			runtime.Gosched()
			continue
		}
		return lay.decodeInternal(addr, img), mnStep{done: true, st: dmsim.OffloadOK}
	}
	return nil, mnDone(dmsim.OffloadRetry)
}

// descend walks from the super block to the leaf covering key, chasing
// B-link siblings across half-splits. It returns the leaf address, or a
// non-OK step (fallback or restart request).
func (p *mnProgram) descend(ctx *dmsim.MNCtx, key uint64) (dmsim.GAddr, mnStep) {
	var b [8]byte
	if !ctx.Read(p.ix.super, b[:]) {
		return dmsim.NilGAddr, mnDone(dmsim.OffloadCrossMN)
	}
	cur, level := unpackSuper(binary.LittleEndian.Uint64(b[:]))
	if level == 0 {
		return cur, mnDone(dmsim.OffloadOK)
	}
	for hop := 0; hop < mnChainHops; hop++ {
		n, step := p.readInternal(ctx, cur)
		if n == nil {
			return dmsim.NilGAddr, step
		}
		if !n.valid {
			return dmsim.NilGAddr, mnRestart
		}
		if !n.covers(key) {
			if !n.fenceInf && key >= n.fenceHi && !n.sibling.IsNil() {
				cur = n.sibling
				continue
			}
			return dmsim.NilGAddr, mnRestart
		}
		child, _, _ := n.childFor(key)
		if child.IsNil() {
			return dmsim.NilGAddr, mnRestart
		}
		if n.level == 1 {
			return child, mnDone(dmsim.OffloadOK)
		}
		cur = child
	}
	return dmsim.NilGAddr, mnDone(dmsim.OffloadRetry)
}

// readLeafWindow reads the clients' neighbourhood plan (planWindow)
// against local memory: entries [home, home+count) plus a metadata
// replica, version-validated. The caller owns the returned image.
func (p *mnProgram) readLeafWindow(ctx *dmsim.MNCtx, leaf dmsim.GAddr, home, count int) (*leafImage, []int, int, mnStep) {
	lay := p.ix.leaf
	im := lay.getImage()
	w := lay.planWindow(home, count, p.ix.opts.ReplicateMeta, -1)
	ranges := w.segs
	if w.meta.size() > 0 {
		ranges = append(ranges[:len(ranges):len(ranges)], w.meta)
	}
	for try := 0; try < mnTornRetries; try++ {
		for _, s := range ranges {
			if !ctx.Read(leaf.Add(uint64(s.Off)), im.buf[s.Off:s.End]) {
				lay.putImage(im)
				return nil, nil, 0, mnDone(dmsim.OffloadCrossMN)
			}
		}
		if checkVersions(im.buf, 0, w.covered) != nil {
			runtime.Gosched()
			continue
		}
		return im, w.idxs, w.metaG, mnDone(dmsim.OffloadOK)
	}
	lay.putImage(im)
	return nil, nil, 0, mnDone(dmsim.OffloadRetry)
}

// emitValue resolves a found entry's stored bytes into the response:
// the inline value, or the value read out of the indirect KV block.
func (p *mnProgram) emitValue(ctx *dmsim.MNCtx, key uint64, stored []byte) mnStep {
	if !p.ix.opts.Indirect {
		if !ctx.Emit(stored) {
			return mnDone(dmsim.OffloadRetry)
		}
		return mnDone(dmsim.OffloadOK)
	}
	ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(stored[:8]))
	if ptr.IsNil() {
		return mnRestart
	}
	block := make([]byte, 8+p.ix.opts.ValueSize)
	if !ctx.Read(ptr, block) {
		// The KV block lives on another MN (client allocators spread
		// chunks round-robin): one-sided verbs must finish the job.
		return mnDone(dmsim.OffloadCrossMN)
	}
	if binary.LittleEndian.Uint64(block[:8]) != key {
		return mnRestart
	}
	if !ctx.Emit(block[8:]) {
		return mnDone(dmsim.OffloadRetry)
	}
	return mnDone(dmsim.OffloadOK)
}

// Search implements the offloaded point lookup: descend + neighborhood
// probe + hop-bitmap validation, all MN-local, emitting the value.
func (p *mnProgram) Search(ctx *dmsim.MNCtx, key, arg uint64) dmsim.OffloadStatus {
	if p.ix.opts.VarKeys {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.leaf
	home := lay.homeOf(key)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, key)
		if !step.done {
			runtime.Gosched()
			continue
		}
		if step.st != dmsim.OffloadOK {
			return step.st
		}
		st, restart := p.searchLeafChain(ctx, leaf, key, home)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

// searchLeafChain probes one leaf (and its right siblings across
// half-splits) for key. restart=true requests a fresh descent.
func (p *mnProgram) searchLeafChain(ctx *dmsim.MNCtx, leaf dmsim.GAddr, key uint64, home int) (dmsim.OffloadStatus, bool) {
	lay := p.ix.leaf
	for hops := 0; hops < mnChainHops; hops++ {
		im, idxs, metaG, step := p.readLeafWindow(ctx, leaf, home, lay.h)
		if im == nil {
			return step.st, false
		}

		homeEntry := im.entry(home)
		if homeEntry.hopBM != im.reconstructHopBitmap(home) {
			lay.putImage(im)
			return 0, true // concurrent hop-range write: restart
		}

		foundIdx := -1
		var foundVal []byte
		for d := 0; d < lay.h; d++ {
			if homeEntry.hopBM&(1<<uint(d)) == 0 {
				continue
			}
			e := im.entry(idxs[d])
			if e.occupied && e.key == key {
				foundIdx = idxs[d]
				foundVal = e.value
				break
			}
		}
		meta := im.meta(metaG)
		lay.putImage(im)

		if !meta.valid {
			return 0, true
		}
		if foundIdx >= 0 {
			step := p.emitValue(ctx, key, foundVal)
			if !step.done {
				return 0, true
			}
			return step.st, false
		}
		// Half-split: the key may have moved right. The program has no
		// parent "next child pointer", so it uses the fenceHigh replica
		// directly (the same safety net the last-child reader uses).
		if !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
			leaf = meta.sibling
			continue
		}
		return dmsim.OffloadNotFound, false
	}
	return dmsim.OffloadRetry, false
}

// lockLeaf takes the leaf's remote lock word by MN-local CAS. Unlike the
// client's piggyback protocol (which swaps the whole word and carries
// the payload away), the program compares and swaps only the lock bit,
// leaving the vacancy/argmax payload in place — an in-place value update
// changes neither. The two protocols interoperate: both compare only the
// lock bit.
func (p *mnProgram) lockLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr) mnStep {
	addr := leafLockAddr(leaf)
	for try := 0; try < mnLockRetries; try++ {
		_, swapped, ok := ctx.MaskedCAS(addr, 0, lockBit, lockBit, lockBit)
		if !ok {
			return mnDone(dmsim.OffloadCrossMN)
		}
		if swapped {
			return mnDone(dmsim.OffloadOK)
		}
		runtime.Gosched()
	}
	return mnDone(dmsim.OffloadRetry)
}

// unlockLeaf clears only the lock bit, preserving the payload.
func (p *mnProgram) unlockLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr) {
	ctx.MaskedCAS(leafLockAddr(leaf), lockBit, 0, lockBit, lockBit)
}

// Update implements the offloaded read-compare-update: locate key in its
// neighborhood under the leaf lock and swap the entry's value in place.
// Inserts, indirect values (client-side allocation) and lease locks
// (client identity lives in the lease word) stay one-sided.
func (p *mnProgram) Update(ctx *dmsim.MNCtx, key, arg uint64, val []byte) dmsim.OffloadStatus {
	o := p.ix.opts
	if o.VarKeys || o.Indirect || o.LeaseLocks {
		return dmsim.OffloadUnsupported
	}
	lay := p.ix.leaf
	if len(val) != lay.valSize {
		return dmsim.OffloadUnsupported
	}
	home := lay.homeOf(key)
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, key)
		if !step.done {
			runtime.Gosched()
			continue
		}
		if step.st != dmsim.OffloadOK {
			return step.st
		}
		st, restart := p.updateInChain(ctx, leaf, key, val, home)
		if restart {
			runtime.Gosched()
			continue
		}
		return st
	}
	return dmsim.OffloadRetry
}

func (p *mnProgram) updateInChain(ctx *dmsim.MNCtx, leaf dmsim.GAddr, key uint64, val []byte, home int) (dmsim.OffloadStatus, bool) {
	lay := p.ix.leaf
	for hops := 0; hops < mnChainHops; hops++ {
		if step := p.lockLeaf(ctx, leaf); step.st != dmsim.OffloadOK {
			return step.st, false
		}
		im, idxs, metaG, step := p.readLeafWindow(ctx, leaf, home, lay.h)
		if im == nil {
			p.unlockLeaf(ctx, leaf)
			return step.st, false
		}
		meta := im.meta(metaG)
		if !meta.valid {
			p.unlockLeaf(ctx, leaf)
			lay.putImage(im)
			return 0, true
		}

		foundIdx := -1
		for _, i := range idxs {
			if e := im.entry(i); e.occupied && e.key == key {
				foundIdx = i
				break
			}
		}
		if foundIdx < 0 {
			if !meta.fenceInf && key >= meta.fenceHi && !meta.sibling.IsNil() {
				next := meta.sibling
				p.unlockLeaf(ctx, leaf)
				lay.putImage(im)
				leaf = next
				continue
			}
			p.unlockLeaf(ctx, leaf)
			lay.putImage(im)
			return dmsim.OffloadNotFound, false
		}

		e := im.entry(foundIdx)
		e.value = val
		im.setEntry(foundIdx, e) // bumps the entry-level version
		cellC := lay.entryCells[foundIdx]
		ok := ctx.Write(leaf.Add(uint64(cellC.Off)), im.buf[cellC.Off:cellC.End()])
		p.unlockLeaf(ctx, leaf)
		lay.putImage(im)
		if !ok {
			return dmsim.OffloadCrossMN, false
		}
		return dmsim.OffloadOK, false
	}
	return dmsim.OffloadRetry, false
}

// mnKV is one collected scan record.
type mnKV struct {
	key uint64
	val []byte
}

// readWholeLeaf mirrors readLeafForScan: a full node image with version
// validation plus hop-bitmap reconstruction for every home entry.
func (p *mnProgram) readWholeLeaf(ctx *dmsim.MNCtx, leaf dmsim.GAddr) (*leafImage, mnStep) {
	lay := p.ix.leaf
	im := lay.getImage()
	for i := range im.buf[:lineSize] {
		im.buf[i] = 0
	}
	for try := 0; try < mnTornRetries; try++ {
		if !ctx.Read(leaf.Add(lineSize), im.buf[lineSize:]) {
			lay.putImage(im)
			return nil, mnDone(dmsim.OffloadCrossMN)
		}
		if checkVersions(im.buf, 0, lay.allCells) != nil {
			runtime.Gosched()
			continue
		}
		consistent := true
		for home := 0; home < lay.span; home++ {
			if im.entry(home).hopBM != im.reconstructHopBitmap(home) {
				consistent = false
				break
			}
		}
		if !consistent {
			runtime.Gosched()
			continue
		}
		return im, mnDone(dmsim.OffloadOK)
	}
	lay.putImage(im)
	return nil, mnDone(dmsim.OffloadRetry)
}

// Scan implements the offloaded range collection: walk the leaf chain
// MN-side, sort each leaf's in-range entries, and emit [8B key][value]
// records until limit records are out or the chain ends. Any failure
// after the first emitted record is a fallback (emitted bytes cannot be
// retracted), so restarts are only honored on the first leaf.
func (p *mnProgram) Scan(ctx *dmsim.MNCtx, start, arg uint64, limit int) dmsim.OffloadStatus {
	if p.ix.opts.VarKeys {
		return dmsim.OffloadUnsupported
	}
	if limit <= 0 {
		return dmsim.OffloadOK
	}
	lay := p.ix.leaf
	for attempt := 0; attempt < mnTornRetries; attempt++ {
		leaf, step := p.descend(ctx, start)
		if !step.done {
			runtime.Gosched()
			continue
		}
		if step.st != dmsim.OffloadOK {
			return step.st
		}
		emitted := 0
		var rec []byte
		restart := false
		for hops := 0; hops < mnChainHops; hops++ {
			im, step := p.readWholeLeaf(ctx, leaf)
			if im == nil {
				if emitted == 0 && step.st == dmsim.OffloadRetry {
					restart = true
					break
				}
				return step.st
			}
			meta := im.meta(0)
			if !meta.valid {
				lay.putImage(im)
				if emitted == 0 {
					restart = true
					break
				}
				return dmsim.OffloadRetry
			}
			var batch []mnKV
			for i := 0; i < lay.span; i++ {
				e := im.entry(i)
				if e.occupied && e.key >= start {
					batch = append(batch, mnKV{key: e.key, val: append([]byte(nil), e.value...)})
				}
			}
			lay.putImage(im)
			sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
			for _, kv := range batch {
				val := kv.val
				if p.ix.opts.Indirect {
					ptr := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(val[:8]))
					if ptr.IsNil() {
						if emitted == 0 {
							restart = true
							break
						}
						return dmsim.OffloadRetry
					}
					block := make([]byte, 8+p.ix.opts.ValueSize)
					if !ctx.Read(ptr, block) {
						return dmsim.OffloadCrossMN
					}
					if binary.LittleEndian.Uint64(block[:8]) != kv.key {
						if emitted == 0 {
							restart = true
							break
						}
						return dmsim.OffloadRetry
					}
					val = block[8:]
				}
				if cap(rec) < 8+len(val) {
					rec = make([]byte, 8+len(val))
				}
				rec = rec[:8+len(val)]
				binary.LittleEndian.PutUint64(rec[:8], kv.key)
				copy(rec[8:], val)
				if !ctx.Emit(rec) {
					return dmsim.OffloadOK // response buffer full: done
				}
				emitted++
				if emitted >= limit {
					return dmsim.OffloadOK
				}
			}
			if restart {
				break
			}
			if meta.sibling.IsNil() {
				return dmsim.OffloadOK
			}
			leaf = meta.sibling
		}
		if restart {
			runtime.Gosched()
			continue
		}
		if emitted > 0 {
			return dmsim.OffloadRetry // chain budget exhausted mid-scan
		}
	}
	return dmsim.OffloadRetry
}
