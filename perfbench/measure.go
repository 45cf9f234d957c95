package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"syscall"
	"time"

	"chime/internal/dmsim"
	"chime/internal/ycsb"
)

// phase is one measured closed-loop run of the workload.
type phase struct {
	ops, failed int64
	kinds       [5]int64          // ops per ycsb.OpKind
	lat         []int64           // virtual ns per op, sorted
	maxSpan     int64             // slowest client's virtual ns from join to leave
	wall, cpu   time.Duration     // host wall and process CPU time
	dm          dmsim.ClientStats // summed over the phase's clients
	nic         dmsim.NICStats    // fabric-wide delta over the phase
	spans       []*spanRec        // per client; nil when untraced
}

// measure runs the closed loop for dur of host time with generators
// seeded from seed. With traced set it records host spans around every
// call the benchmark makes into ycsb, rdwc and core.
func (s *system) measure(seed int64, dur time.Duration, traced bool) (*phase, error) {
	gens, err := s.generators(seed)
	if err != nil {
		return nil, err
	}
	nic0 := s.fab.TotalNICStats()
	base, cpu0 := time.Now(), cpuTime()
	cls, wall := s.runClients(gens, dur, func(c *client, g *ycsb.Generator) bool {
		if traced && c.sp == nil {
			c.sp = newSpanRec(base, maxSpansPerClient)
		}
		sp := c.sp
		sp.beginOp()
		sp.begin(spanYCSBNext)
		op := g.Next()
		sp.end()
		t0 := c.dm.Now()
		s.do(c, op, sp)
		c.lat = append(c.lat, c.dm.Now()-t0)
		c.kinds[op.Kind]++
		sp.end()
		return true
	})
	s.noteInserted(cls)
	p := &phase{wall: wall, cpu: cpuTime() - cpu0}
	for _, c := range cls {
		p.ops += c.ops
		p.failed += c.failed
		for k, n := range c.kinds {
			p.kinds[k] += n
		}
		p.lat = append(p.lat, c.lat...)
		p.maxSpan = max(p.maxSpan, c.endNs-c.startNs)
		st := c.dm.Stats()
		p.dm.Trips += st.Trips
		p.dm.BytesRead += st.BytesRead
		p.dm.BytesWritten += st.BytesWritten
		if c.sp != nil {
			p.spans = append(p.spans, c.sp)
		}
	}
	slices.Sort(p.lat)
	nic1 := s.fab.TotalNICStats()
	p.nic = dmsim.NICStats{
		Verbs:    nic1.Verbs - nic0.Verbs,
		QueuedNs: nic1.QueuedNs - nic0.QueuedNs,
		ServedNs: nic1.ServedNs - nic0.ServedNs,
	}
	return p, nil
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

// hostKops is thousand ops per second of process CPU time; wallKops is
// the same per wall second.
func (p *phase) hostKops() float64 { return float64(p.ops) / p.cpu.Seconds() / 1000 }
func (p *phase) wallKops() float64 { return float64(p.ops) / p.wall.Seconds() / 1000 }

// cpuTime is the process's user plus system CPU time. Host costs are
// taken in CPU time: on a shared virtual machine the wall time of a
// fixed loop varies by more than 2x as the hypervisor runs other
// guests, while its CPU time stays within a few percent.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Spans. Each measured op is one "op" span whose children are the
// benchmark's calls into the layers: ycsb.next, then rdwc.read or
// rdwc.write (each wrapping its core call, absent when the combiner
// served the op from another client's flight), or a direct core.insert
// or core.scan.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanYCSBNext
	spanRDWCRead
	spanRDWCWrite
	spanCoreSearch
	spanCoreUpdate
	spanCoreInsert
	spanCoreScan
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "ycsb.next", "rdwc.read", "rdwc.write", "core.search", "core.update", "core.insert", "core.scan"}

// maxSpansPerClient bounds the spans kept for the span file; the
// per-layer aggregates still cover every call.
const maxSpansPerClient = 1 << 14

type span struct {
	kind       spanKind
	parent     int32 // index of the parent in the client's list; -1 for ops
	op         int64 // the client's op sequence number
	start, end int64 // host ns since the phase began
}

type frame struct {
	kind    spanKind
	idx     int32 // index in spans, or -1 when not kept
	start   int64
	childNs int64
}

// spanRec records one client's spans and per-kind host-time totals. A
// nil *spanRec records nothing.
type spanRec struct {
	base    time.Time
	op      int64
	stack   []frame
	spans   []span
	max     int
	dropped int64

	calls  [numSpanKinds]int64
	sumNs  [numSpanKinds]int64
	selfNs [numSpanKinds]int64
	durNs  [numSpanKinds][]int64
}

func newSpanRec(base time.Time, max int) *spanRec {
	return &spanRec{base: base, max: max}
}

func (r *spanRec) beginOp() {
	if r == nil {
		return
	}
	r.op++
	r.begin(spanOp)
}

func (r *spanRec) begin(k spanKind) {
	if r == nil {
		return
	}
	f := frame{kind: k, idx: -1, start: time.Since(r.base).Nanoseconds()}
	if len(r.spans) < r.max {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].idx
		}
		f.idx = int32(len(r.spans))
		r.spans = append(r.spans, span{kind: k, parent: parent, op: r.op, start: f.start})
	} else {
		r.dropped++
	}
	r.stack = append(r.stack, f)
}

func (r *spanRec) end() {
	if r == nil {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := now - f.start
	if f.idx >= 0 {
		r.spans[f.idx].end = now
	}
	if n := len(r.stack); n > 0 {
		r.stack[n-1].childNs += d
	}
	r.calls[f.kind]++
	r.sumNs[f.kind] += d
	r.selfNs[f.kind] += d - f.childNs
	r.durNs[f.kind] = append(r.durNs[f.kind], d)
}

// spanTotals folds the per-client recorders.
type spanTotals struct {
	calls, sumNs, selfNs [numSpanKinds]int64
	durNs                [numSpanKinds][]int64 // sorted
	kept, dropped        int64
}

func foldSpans(recs []*spanRec) spanTotals {
	var t spanTotals
	for _, r := range recs {
		for k := range r.calls {
			t.calls[k] += r.calls[k]
			t.sumNs[k] += r.sumNs[k]
			t.selfNs[k] += r.selfNs[k]
			t.durNs[k] = append(t.durNs[k], r.durNs[k]...)
		}
		t.kept += int64(len(r.spans))
		t.dropped += r.dropped
	}
	for k := range t.durNs {
		slices.Sort(t.durNs[k])
	}
	return t
}

// writeSpans writes every kept span as one JSON object per line. Span
// and parent ids are client<<32 | index; op ids are client<<32 | seq.
func writeSpans(path string, recs []*spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for ci, r := range recs {
		hi := int64(ci) << 32
		for i, sp := range r.spans {
			parent := int64(-1)
			if sp.parent >= 0 {
				parent = hi | int64(sp.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				hi|int64(i), parent, hi|sp.op, spanNames[sp.kind], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
