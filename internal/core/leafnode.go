package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"chime/internal/dmsim"
	"chime/internal/hopscotch"
)

// Leaf node remote layout (paper Figure 10, optimized):
//
//	off 0:   8-byte lock word (lock bit | vacancy bitmap | argmax)
//	off 64:  groups, each = [metadata replica][H entries]
//
// A metadata replica precedes every H entries, so any H-entry
// neighborhood read either contains a replica or starts right after one
// and can include it by extending the window one cell to the left
// (§4.2.2). Entry cells and replica cells carry the two-level version
// bytes described in layout.go.
//
// Entry content:   [1B flags][2B hopscotch bitmap][keySize key][val]
// Replica content: [1B flags][8B sibling][8B fenceHigh]
//
// The replica's fenceHigh is this implementation's safety net for the
// one case sibling-based validation cannot decide: a reader that reaches
// the *last* child of its parent has no "next child pointer" to compare
// the leaf's sibling against, so it falls back to comparing the target
// key with fenceHigh. See the DESIGN.md substitution notes.

const (
	entryFlagOccupied = 1 << 0

	replicaFlagValid    = 1 << 0
	replicaFlagFenceInf = 1 << 1
)

// leafLayout is the derived byte geometry of a leaf node for a given
// Options. It is immutable and shared by all clients (the image pool is
// internally synchronized).
type leafLayout struct {
	span, h  int
	keySize  int
	valSize  int // stored bytes per value field (8 when indirect)
	indirect bool

	entryCells   []cell // indexed by entry index
	replicaCells []cell // indexed by group (span/h groups)
	allCells     []cell // every cell, for node-level version bumps
	size         int    // total node footprint including lock word

	vacGroups, vacPerBit int

	// whole is the read plan of an entire node (everything past the
	// lock word): splits, merges, scans and full-node write fallbacks.
	whole leafWindow

	imgPool sync.Pool // of *leafImage; hot read paths recycle images
}

func newLeafLayout(o Options) *leafLayout {
	l := &leafLayout{
		span:     o.SpanSize,
		h:        o.Neighborhood,
		keySize:  o.KeySize,
		valSize:  o.ValueSize,
		indirect: o.Indirect,
	}
	if o.Indirect || o.VarKeys {
		l.valSize = 8 // pointer to the KV block / fingerprint chain
	}
	l.vacGroups, l.vacPerBit = vacancyGroups(o.SpanSize)

	entryContent := 1 + 2 + l.keySize + l.valSize
	replicaContent := 1 + 8 + 8
	groups := o.SpanSize / o.Neighborhood

	var contents []int
	for g := 0; g < groups; g++ {
		contents = append(contents, replicaContent)
		for e := 0; e < o.Neighborhood; e++ {
			contents = append(contents, entryContent)
		}
	}
	cells, regionSize := layoutCells(lineSize, contents)
	l.allCells = cells
	l.size = lineSize + regionSize

	for g := 0; g < groups; g++ {
		base := g * (o.Neighborhood + 1)
		l.replicaCells = append(l.replicaCells, cells[base])
		l.entryCells = append(l.entryCells, cells[base+1:base+1+o.Neighborhood]...)
	}
	l.whole = leafWindow{
		segs:    []byteRange{{Off: lineSize, End: l.size}},
		idxs:    make([]int, l.span),
		rider:   -1,
		covered: l.allCells,
	}
	for i := range l.whole.idxs {
		l.whole.idxs[i] = i
	}
	return l
}

// homeOf returns the home entry index of a key.
func (l *leafLayout) homeOf(key uint64) int {
	return int(hopscotch.Hash(key) % uint64(l.span))
}

// groupOfEntry returns the metadata-replica group of an entry index.
func (l *leafLayout) groupOfEntry(idx int) int { return idx / l.h }

// leafEntry is the decoded form of one leaf slot.
type leafEntry struct {
	occupied bool
	hopBM    uint16
	key      uint64
	value    []byte // valSize bytes; the block pointer when indirect
}

// leafMeta is the decoded form of a metadata replica.
type leafMeta struct {
	valid    bool
	sibling  dmsim.GAddr
	fenceInf bool
	fenceHi  uint64
}

// leafImage wraps a full-size leaf byte buffer. Depending on context the
// buffer holds a complete node (splits, bootstrap) or a partial window
// fetched into the right offsets (searches, inserts); callers track
// which cells are populated.
type leafImage struct {
	lay *leafLayout
	buf []byte
}

func newLeafImage(lay *leafLayout) *leafImage {
	return &leafImage{lay: lay, buf: make([]byte, lay.size)}
}

// getImage returns a (possibly recycled) full-size leaf image. Recycled
// buffers hold stale bytes from a previous node; that is safe for every
// read path because consumers only decode cells whose version bytes were
// validated over the ranges actually fetched.
func (l *leafLayout) getImage() *leafImage {
	if im, ok := l.imgPool.Get().(*leafImage); ok && im != nil {
		return im
	}
	return newLeafImage(l)
}

// getImageZeroed returns a pooled image with every byte cleared, for
// building fresh node contents that are written out whole (splits): a
// recycled buffer's stale cells would otherwise reach the wire.
func (l *leafLayout) getImageZeroed() *leafImage {
	im := l.getImage()
	for i := range im.buf {
		im.buf[i] = 0
	}
	return im
}

// putImage recycles an image once no decoded state references it.
// Decoded entries and metadata copy their bytes out (readCellContent),
// so releasing after the last entry()/meta() call is safe.
func (l *leafLayout) putImage(im *leafImage) {
	if im == nil || len(im.buf) != l.size {
		return
	}
	l.imgPool.Put(im)
}

// entry decodes slot i.
func (im *leafImage) entry(i int) leafEntry {
	c := im.lay.entryCells[i]
	content := readCellContent(im.buf, c, make([]byte, 0, c.Content))
	e := leafEntry{
		occupied: content[0]&entryFlagOccupied != 0,
		hopBM:    binary.LittleEndian.Uint16(content[1:3]),
		key:      binary.LittleEndian.Uint64(content[3:11]),
	}
	e.value = content[3+im.lay.keySize : 3+im.lay.keySize+im.lay.valSize]
	return e
}

// setEntry encodes slot i and bumps its entry-level version.
func (im *leafImage) setEntry(i int, e leafEntry) {
	c := im.lay.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= entryFlagOccupied
	}
	binary.LittleEndian.PutUint16(content[1:3], e.hopBM)
	binary.LittleEndian.PutUint64(content[3:11], e.key)
	copy(content[3+im.lay.keySize:], e.value)
	writeCellContent(im.buf, c, content)
	bumpEV(im.buf, c)
}

// setEntryNoBump encodes slot i without touching versions (bulk builds
// followed by a whole-node write, which bumps NV instead).
func (im *leafImage) setEntryNoBump(i int, e leafEntry) {
	c := im.lay.entryCells[i]
	content := make([]byte, c.Content)
	if e.occupied {
		content[0] |= entryFlagOccupied
	}
	binary.LittleEndian.PutUint16(content[1:3], e.hopBM)
	binary.LittleEndian.PutUint64(content[3:11], e.key)
	copy(content[3+im.lay.keySize:], e.value)
	writeCellContent(im.buf, c, content)
}

// meta decodes the metadata replica of group g.
func (im *leafImage) meta(g int) leafMeta {
	c := im.lay.replicaCells[g]
	content := readCellContent(im.buf, c, make([]byte, 0, c.Content))
	return leafMeta{
		valid:    content[0]&replicaFlagValid != 0,
		fenceInf: content[0]&replicaFlagFenceInf != 0,
		sibling:  dmsim.UnpackGAddr(binary.LittleEndian.Uint64(content[1:9])),
		fenceHi:  binary.LittleEndian.Uint64(content[9:17]),
	}
}

// setAllMeta writes the same metadata into every replica. Metadata only
// changes under node writes (splits), which bump NV for the whole node,
// so no EV bump here.
func (im *leafImage) setAllMeta(m leafMeta) {
	for g := range im.lay.replicaCells {
		c := im.lay.replicaCells[g]
		content := make([]byte, c.Content)
		if m.valid {
			content[0] |= replicaFlagValid
		}
		if m.fenceInf {
			content[0] |= replicaFlagFenceInf
		}
		binary.LittleEndian.PutUint64(content[1:9], m.sibling.Pack())
		binary.LittleEndian.PutUint64(content[9:17], m.fenceHi)
		writeCellContent(im.buf, c, content)
	}
}

// bumpAllNV increments the node-level version across the whole image.
func (im *leafImage) bumpAllNV() { bumpNV(im.buf, im.lay.allCells) }

// reconstructHopBitmap recomputes, from the actual keys stored in the
// image, the hopscotch bitmap that the home entry `home` should carry:
// bit d is set when slot (home+d)%span holds a key whose home is `home`.
// Only the slots in [home, home+h) are examined, all of which a
// neighborhood read fetches.
func (im *leafImage) reconstructHopBitmap(home int) uint16 {
	var bm uint16
	for d := 0; d < im.lay.h; d++ {
		i := (home + d) % im.lay.span
		e := im.entry(i)
		if e.occupied && im.lay.homeOf(e.key) == home {
			bm |= 1 << uint(d)
		}
	}
	return bm
}

// byteRange is a contiguous region of the node image.
type byteRange struct{ Off, End int }

func (r byteRange) size() int { return r.End - r.Off }

// cellSpanRange returns the byte range covering entry indexes
// [first, first+count) of a non-wrapping run, extended left to include
// the metadata replica adjacent to or inside the run.
func (l *leafLayout) cellSpanRange(first, count int, includeMeta bool) byteRange {
	lo := l.entryCells[first].Off
	hi := l.entryCells[first+count-1].End()
	if includeMeta {
		g := l.groupOfEntry(first)
		if rc := l.replicaCells[g]; rc.Off < lo {
			// The run starts mid-group; its own group's replica sits
			// before it. If the run crosses into the next group it
			// already contains that group's replica; otherwise extend
			// left to the replica of the starting group.
			if l.groupOfEntry(first+count-1) == g {
				lo = rc.Off
			}
		}
	}
	return byteRange{Off: lo, End: hi}
}

// neighborhoodSegments returns the 1 or 2 byte ranges (2 on wrap-around)
// covering entries [home, home+count) circularly, each extended to
// include a metadata replica when includeMeta is set, plus the list of
// covered entry indexes in fetch order.
func (l *leafLayout) neighborhoodSegments(home, count int, includeMeta bool) ([]byteRange, []int) {
	if count > l.span {
		count = l.span
	}
	idxs := make([]int, count)
	for i := range idxs {
		idxs[i] = (home + i) % l.span
	}
	if home+count <= l.span {
		return []byteRange{l.cellSpanRange(home, count, includeMeta)}, idxs
	}
	first := l.span - home
	segs := []byteRange{
		l.cellSpanRange(home, first, includeMeta),
		// The second segment starts at entry 0, whose group replica is
		// replica 0, located just before it.
		l.cellSpanRange(0, count-first, false),
	}
	if includeMeta {
		segs[1].Off = l.replicaCells[0].Off
	}
	return segs, idxs
}

// leafWindow is the read plan of one leaf fetch, shared by every path
// that reads a leaf — Search, SearchBatch, both write protocols and the
// MN-side program: the window segments, posted as one READ (a doorbell
// batch when the window wraps or carries a rider cell); the entry
// indexes the neighbourhood covers, in fetch order; and the metadata
// replica the fetch validates against. When no replica lies inside the
// window — always under the ReplicateMeta ablation — meta names the
// dedicated replica cell, READ only after the window completes: the
// extra round trip §3.2.2 and Fig 15 charge. covered lists every cell
// the fetch fills, for version validation.
type leafWindow struct {
	segs    []byteRange
	idxs    []int
	rider   int // extra entry read with the window (insert argmax), or -1
	meta    byteRange
	metaG   int
	covered []cell
}

// planWindow plans a fetch of entries [home, home+count) circularly.
// rider >= 0 names one more entry whose cell joins the window's READ
// when the neighbourhood does not already cover it (the insert window's
// argmax, §4.2.3).
func (l *leafLayout) planWindow(home, count int, replicate bool, rider int) leafWindow {
	segs, idxs := l.neighborhoodSegments(home, count, replicate)
	w := leafWindow{segs: segs, idxs: idxs, rider: -1}
	if rider >= 0 && !slices.Contains(idxs, rider) {
		rc := l.entryCells[rider]
		w.segs = append(w.segs, byteRange{Off: rc.Off, End: rc.End()})
		w.rider = rider
	}
	w.metaG = l.metaInRanges(w.segs)
	ranges := w.segs
	if !replicate || w.metaG < 0 {
		rc := l.replicaCells[0]
		w.meta = byteRange{Off: rc.Off, End: rc.End()}
		w.metaG = 0
		ranges = append(ranges[:len(ranges):len(ranges)], w.meta)
	}
	w.covered = l.coveredCells(ranges)
	return w
}

// fetched returns the per-entry mask of what the window reads, which
// the write paths consult before trusting any slot.
func (w *leafWindow) fetched(span int) []bool {
	m := make([]bool, span)
	for _, i := range w.idxs {
		m[i] = true
	}
	if w.rider >= 0 {
		m[w.rider] = true
	}
	return m
}

// coveredCells lists the cells fully contained in the given ranges; used
// to validate versions over exactly what was fetched.
func (l *leafLayout) coveredCells(ranges []byteRange) []cell {
	var out []cell
	for _, c := range l.allCells {
		for _, r := range ranges {
			if c.Off >= r.Off && c.End() <= r.End {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// metaInRanges returns the group index of a metadata replica fully
// contained in the ranges, or -1.
func (l *leafLayout) metaInRanges(ranges []byteRange) int {
	for g, c := range l.replicaCells {
		for _, r := range ranges {
			if c.Off >= r.Off && c.End() <= r.End {
				return g
			}
		}
	}
	return -1
}

// lockAddr returns the remote address of the node's lock word.
func leafLockAddr(node dmsim.GAddr) dmsim.GAddr { return node }

// String renders layout geometry for diagnostics.
func (l *leafLayout) String() string {
	return fmt.Sprintf("leaf{span=%d h=%d key=%d val=%d size=%dB}",
		l.span, l.h, l.keySize, l.valSize, l.size)
}
