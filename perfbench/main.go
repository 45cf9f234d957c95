// Command perfbench is the repository benchmark: CHIME on the default
// simulated fabric, bulk-loaded, warmed to steady state and then driven
// by YCSB workloads from a closed loop of simulated clients in one
// process. It reports two currencies, kept apart: virtual metrics
// (virt_*) are what the simulated disaggregated-memory system achieves,
// as unvalidated model output; host metrics are what the simulator
// costs on the machine running it.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ycsb-c --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and then a traced phase and prints the per-layer metrics, writing the
// spans to <out>/trace/. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"chime/internal/bench"
	"chime/internal/obs"
	"chime/internal/ycsb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ycsb-c, ycsb-a, ycsb-e, or all for each in turn")
	seed := fs.Int64("seed", 1, "workload seed: every op stream derives from it")
	seconds := fs.Float64("seconds", 10, "host seconds of measurement")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		opts := runOpts{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), outDir: *out}
		var res *result
		if *trace == 1 {
			res, err = runTraced(w, defaultConfig, opts)
		} else {
			res, err = runEndToEnd(w, defaultConfig, opts)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if err := res.print(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

type runOpts struct {
	seed    int64
	measure time.Duration
	outDir  string // span files go to outDir/trace; empty writes none
}

// metric is one reported figure. n is its sample count where it is a
// statistic over samples; currency is "virtual", "host" or "" (counts
// and ratios of the model).
type metric struct {
	name, unit string
	value      float64
	n          int64
	currency   string
	reportOnly bool // printed in the report, left out of the JSON line
}

type result struct {
	workload          string
	seed              int64
	notes             []string // human-readable lines printed before the metrics
	metrics           []metric
	correct           bool
	steadyFailed      bool
	attempted, failed int64
}

func (r *result) add(name, unit string, v float64, n int64, currency string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n, currency: currency})
}

// show adds a metric to the readable report only.
func (r *result) show(name, unit string, v float64, n int64, currency string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n, currency: currency, reportOnly: true})
}

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// print writes the human-readable report, then the JSON result line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d\n", r.workload, r.seed, runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		cur := m.currency
		if cur == "" {
			cur = "model"
		}
		if m.reportOnly {
			cur += ", report only"
		} else {
			ms[m.name] = jm{Value: m.value, Unit: m.unit}
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%-9d %s\n", m.name, m.value, m.unit, m.n, cur)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUpTimed collects garbage from earlier systems outside the timer,
// then runs setUp and returns its process CPU and wall seconds.
func setUpTimed(w workload, cfg config, seed int64) (s *system, cpuS, wallS float64, err error) {
	runtime.GC()
	debug.FreeOSMemory()
	t0, c0 := time.Now(), cpuTime()
	s, err = setUp(w, cfg, seed)
	return s, (cpuTime() - c0).Seconds(), time.Since(t0).Seconds(), err
}

// check sweeps s after its measured ops, folds every oracle check into
// the result and applies the steady-state proof.
func (r *result) check(s *system, ops, failed int64) {
	checked, bad := s.sweep(runtime.GOMAXPROCS(0))
	r.attempted += s.warm.ops + ops + checked
	r.failed += s.warm.failed + failed + bad
	r.note("oracle: warm-up %d/%d failed, measured %d/%d failed, sweep %d/%d keys missing or mistagged",
		s.warm.failed, s.warm.ops, failed, ops, bad, checked)
	r.note("steady state at measure start: hotspot_fill %.6f, node cache %.1f KB of %d KB; set-up: load %.3f s, warm-up %.3f s",
		s.warm.hotspotFill, s.warm.cacheUsedKB, s.w.cacheBytes>>10, s.warm.loadS, s.warm.warmS)
	if !s.warm.reachedSteady {
		r.steadyFailed = true
		r.note("FAILED: warm-up ended before steady state (hotspot buffer full and node cache no longer growing)")
	}
	r.correct = r.failed == 0 && !r.steadyFailed
}

// runEndToEnd sets the workload up cfg.setups times. Each system runs
// an untraced measured phase of an equal share of o.measure and is
// swept; setup_s and host_kops are medians over the systems, and the
// virtual metrics pool every measured op.
func runEndToEnd(w workload, cfg config, o runOpts) (*result, error) {
	r := &result{workload: w.name, seed: o.seed}
	var setups, setupWalls, kops, wallKops []float64
	var lat []int64
	var ops, failed, spans int64
	for i := 0; i < cfg.setups; i++ {
		s, cpuS, wallS, err := setUpTimed(w, cfg, o.seed)
		if err != nil {
			return nil, err
		}
		p, err := s.measure(opSeed(o.seed, i+1), o.measure/time.Duration(cfg.setups), false)
		if err != nil {
			return nil, err
		}
		r.check(s, p.ops, p.failed)
		setups = append(setups, cpuS)
		setupWalls = append(setupWalls, wallS)
		kops = append(kops, p.hostKops())
		wallKops = append(wallKops, p.wallKops())
		lat = append(lat, p.lat...)
		ops += p.ops
		failed += p.failed
		spans += p.maxSpan
	}
	r.note("per system: setup_s %.4g, host_kops %.4g", setups, kops)
	for _, v := range [][]float64{setups, setupWalls, kops, wallKops} {
		slices.Sort(v)
	}
	slices.Sort(lat)
	n := int64(len(lat))
	var sum int64
	for _, l := range lat {
		sum += l
	}
	r.add("virt_mops", "Mops", ratio(ops*1000, spans), ops, "virtual")
	r.add("virt_mean_us", "us", ratio(sum, n)/1e3, n, "virtual")
	r.show("virt_p50_us", "us", quantile(lat, 0.50)/1e3, n, "virtual")
	r.add("virt_p99_us", "us", quantile(lat, 0.99)/1e3, n, "virtual")
	r.add("host_kops", "kops/s", kops[len(kops)/2], ops, "host CPU")
	r.show("host_wall_kops", "kops/s", wallKops[len(wallKops)/2], ops, "host wall")
	r.add("setup_s", "s", setups[len(setups)/2], int64(len(setups)), "host CPU")
	r.show("setup_wall_s", "s", setupWalls[len(setupWalls)/2], int64(len(setupWalls)), "host wall")
	r.add("peak_rss_mb", "MB", peakRSSMB(), 1, "host")
	r.show("failed_frac", "ratio", ratio(failed, ops), ops, "")
	return r, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runTraced sets up once and measures three phases of a third of
// o.measure each: untraced, traced, untraced. The traced phase attaches
// the observer registry and flight recorder to the compute node (the
// flight ledger rides on its clients, so the fabric needs no observer)
// and records the benchmark's spans; the per-layer metrics come from
// it. Host cost per op drifts as the hotspot buffer churns, so tracing
// overhead is taken against the mean of the two untraced phases around
// the traced one.
func runTraced(w workload, cfg config, o runOpts) (*result, error) {
	s, _, _, err := setUpTimed(w, cfg, o.seed)
	if err != nil {
		return nil, err
	}
	third := o.measure / 3
	before, err := s.measure(opSeed(o.seed, 1), third, false)
	if err != nil {
		return nil, err
	}

	ob := bench.NewObserver(false)
	ob.EnableFlightRecorder(obs.FlightConfig{})
	s.cn.SetObserver(ob.Sink())
	rec := ob.Sink().FlightRecorder()
	rec.Reset(s.fab.Frontier())
	reg0 := ob.Sink().Registry().Snapshot()
	cache0, hot0 := s.cn.CacheStats(), s.cn.HotspotStats()
	acq0, hand0 := s.cn.LockTableStats()
	dlg0, cmb0 := s.comb.Stats()

	p, err := s.measure(opSeed(o.seed, 2), third, true)
	if err != nil {
		return nil, err
	}
	s.cn.SetObserver(nil)
	after, err := s.measure(opSeed(o.seed, 3), third, false)
	if err != nil {
		return nil, err
	}

	cache1, hot1 := s.cn.CacheStats(), s.cn.HotspotStats()
	acq1, hand1 := s.cn.LockTableStats()
	dlg1, cmb1 := s.comb.Stats()
	reg := ob.Sink().Registry().Snapshot()
	sp := foldSpans(p.spans)
	reads, updates := p.kinds[ycsb.OpRead], p.kinds[ycsb.OpUpdate]

	r := &result{workload: w.name, seed: o.seed}
	r.add("ycsb.next_ns", "ns", ratio(sp.sumNs[spanYCSBNext], sp.calls[spanYCSBNext]), sp.calls[spanYCSBNext], "host")
	rdwcCalls := sp.calls[spanRDWCRead] + sp.calls[spanRDWCWrite]
	r.add("rdwc.self_ns", "ns", ratio(sp.selfNs[spanRDWCRead]+sp.selfNs[spanRDWCWrite], rdwcCalls), rdwcCalls, "host")
	r.add("rdwc.delegated_frac", "ratio", ratio(dlg1-dlg0, reads), reads, "")
	r.add("rdwc.combined_frac", "ratio", ratio(cmb1-cmb0, updates), updates, "")
	for _, k := range []spanKind{spanCoreSearch, spanCoreUpdate, spanCoreInsert, spanCoreScan} {
		d := sp.durNs[k]
		base := spanNames[k] + "_us"
		r.add(base+".p50", "us", quantile(d, 0.50)/1e3, int64(len(d)), "host")
		r.add(base+".p99", "us", quantile(d, 0.99)/1e3, int64(len(d)), "host")
	}
	lookups := cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses
	r.add("core.cache_hit_ratio", "ratio", ratio(cache1.Hits-cache0.Hits, lookups), lookups, "")
	r.add("core.cache_used_kb.start", "KB", s.warm.cacheUsedKB, 1, "")
	r.add("core.cache_used_kb", "KB", float64(cache1.UsedBytes)/1024, 1, "")
	r.add("core.cache_invalidations_per_op", "1/op", ratio(cache1.Invalidations-cache0.Invalidations, p.ops), p.ops, "")
	r.add("core.hotspot_fill.start", "ratio", s.warm.hotspotFill, 1, "")
	r.add("core.hotspot_fill.end", "ratio", ratio(int64(hot1.Entries), int64(hot1.Cap)), 1, "")
	r.add("core.hotspot_hit_ratio", "ratio", ratio(hot1.Hits-hot0.Hits, hot1.Lookups-hot0.Lookups), hot1.Lookups-hot0.Lookups, "")
	r.add("core.spec_correct_ratio", "ratio", ratio(hot1.Correct-hot0.Correct, hot1.Speculations-hot0.Speculations), hot1.Speculations-hot0.Speculations, "")
	r.add("locktable.handover_ratio", "ratio", ratio(hand1-hand0, acq1-acq0), acq1-acq0, "")
	r.add("dmsim.trips_per_op", "1/op", ratio(p.dm.Trips, p.ops), p.ops, "")
	r.add("dmsim.read_bytes_per_op", "B/op", ratio(p.dm.BytesRead, p.ops), p.ops, "")
	r.add("dmsim.write_bytes_per_op", "B/op", ratio(p.dm.BytesWritten, p.ops), p.ops, "")
	r.add("dmsim.nic_util", "ratio", ratio(p.nic.ServedNs, int64(s.fab.MNs())*p.maxSpan), 1, "virtual")
	r.add("dmsim.nic_queue_ns_per_verb", "ns", ratio(p.nic.QueuedNs, p.nic.Verbs), p.nic.Verbs, "virtual")
	perOp := func(n int64) float64 { return ratio(n, p.ops) }
	r.add("core.retry_per_op", "1/op", perOp(reg.CounterDelta(reg0, obs.NameRetry)), p.ops, "")
	r.add("core.torn_read_per_op", "1/op", perOp(reg.CounterDelta(reg0, obs.NameTornRead)), p.ops, "")
	r.add("core.lock_backoff_per_op", "1/op", perOp(reg.CounterDelta(reg0, obs.NameLockBackoff)), p.ops, "")
	r.add("core.sibling_chase_per_op", "1/op", perOp(reg.CounterDelta(reg0, obs.NameSiblingChase)), p.ops, "")
	r.add("core.splits", "count", float64(reg.CounterDelta(reg0, obs.NameSplit)), 1, "")
	cls := tailClass(rec.Attribution())
	for _, ph := range obs.PhaseNames() {
		r.add("flight.p99_share."+ph, "ratio", cls.TailShare[ph], cls.Ops, "virtual")
	}
	r.add("trace.overhead_frac", "ratio", 1-2*p.hostKops()/(before.hostKops()+after.hostKops()), p.ops, "host CPU")
	verbNs, verbs, err := s.verbHostNs()
	if err != nil {
		return nil, err
	}
	r.add("dmsim.verb_host_ns", "ns", verbNs, verbs, "host")

	r.check(s, before.ops+p.ops+after.ops, before.failed+p.failed+after.failed)
	r.note("flight tail attribution from op class %q (p99 %d virtual ns)", cls.Class, cls.P99Ns)
	r.note("spans: %d kept, %d over the per-client cap", sp.kept, sp.dropped)
	if o.outDir != "" {
		dir := filepath.Join(o.outDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, p.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans written to %s", path)
	}
	return r, nil
}

// tailClass picks the op class with the highest p99: the one that sets
// the workload's virtual p99.
func tailClass(rep obs.AttributionReport) obs.ClassAttribution {
	var best obs.ClassAttribution
	for _, c := range rep.Classes {
		if c.P99Ns > best.P99Ns {
			best = c
		}
	}
	return best
}

// verbHostNs times synchronous 8-byte reads of the tree's super block
// from a fresh fabric client outside any cohort, after the measured
// phases, and returns the median of five batches in host ns per verb.
func (s *system) verbHostNs() (float64, int64, error) {
	const batches, perBatch = 5, 4000
	dc := s.fab.NewClient()
	buf := make([]byte, 8)
	addr := s.ix.Super()
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			if err := dc.Read(addr, buf); err != nil {
				return 0, 0, fmt.Errorf("verb calibration: %w", err)
			}
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / perBatch
	}
	slices.Sort(ns)
	return ns[batches/2], batches * perBatch, nil
}
