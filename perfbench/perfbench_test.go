package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"chime/internal/core"
	"chime/internal/rdwc"
	"chime/internal/ycsb"
)

// testConfig is a small benchmark that still fills its hotspot buffer.
var testConfig = config{
	keys:         20_000,
	clients:      4,
	hotspotBytes: 16 << 10,
	setups:       1,
	warmBurst:    4_000,
	settleOps:    1_000,
	maxWarm:      30 * time.Second,
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func metricMap(r *result) map[string]float64 {
	m := make(map[string]float64, len(r.metrics))
	for _, x := range r.metrics {
		if !x.reportOnly {
			m[x.name] = x.value
		}
	}
	return m
}

func sortedKeys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// The same seed twice must give virtual metrics within the bounds
// BENCHMARK.json fixes, and the untraced run must report exactly its
// end-to-end metrics. It runs the benchmark's own configuration, with
// one set-up and a shorter phase: with a handful of clients the
// virtual figures depend far more on how the host interleaves them.
func TestSameSeedVirtualMetricsWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size benchmark")
	}
	cfg := defaultConfig
	cfg.setups = 1
	b := readBenchmarkFile(t)
	var want []string
	for _, m := range b.EndToEnd {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	for _, name := range []string{"ycsb-c", "ycsb-a"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]float64
		for i := range runs {
			r, err := runEndToEnd(w, cfg, runOpts{seed: 7, measure: 3 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct {
				t.Fatalf("%s run %d not correct: %v", name, i, r.notes)
			}
			runs[i] = metricMap(r)
		}
		if got := sortedKeys(runs[0]); !slices.Equal(got, want) {
			t.Fatalf("%s end-to-end metrics %v, BENCHMARK.json lists %v", name, got, want)
		}
		for _, m := range b.EndToEnd {
			if !strings.HasPrefix(m.Name, "virt_") {
				continue
			}
			a, c := runs[0][m.Name], runs[1][m.Name]
			d := math.Abs(a-c) / a
			t.Logf("%s %s: %g then %g, %.2f%% apart", name, m.Name, a, c, 100*d)
			if d > m.Bound {
				t.Errorf("%s %s: %g then %g, %.1f%% apart, bound %.1f%%", name, m.Name, a, c, 100*d, 100*m.Bound)
			}
		}
	}
}

// fakeIndex answers from a map and corrupts the answers its flags name.
type fakeIndex struct {
	vals               map[uint64][]byte
	wrongTag, dropKeys bool
}

func (f *fakeIndex) Search(key uint64) ([]byte, error) {
	v, ok := f.vals[key]
	if !ok || f.dropKeys {
		return nil, core.ErrNotFound
	}
	if f.wrongTag {
		v = append([]byte(nil), f.vals[key^1]...)
	}
	return v, nil
}

func (f *fakeIndex) Update(key uint64, value []byte) error {
	if _, ok := f.vals[key]; !ok || f.dropKeys {
		return core.ErrNotFound
	}
	f.vals[key] = append([]byte(nil), value...)
	return nil
}

func (f *fakeIndex) Insert(key uint64, value []byte) error {
	f.vals[key] = append([]byte(nil), value...)
	return nil
}

func (f *fakeIndex) Scan(start uint64, count int) ([]core.KV, error) {
	var out []core.KV
	for k, v := range f.vals {
		if k >= start {
			out = append(out, core.KV{Key: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if len(out) > count {
		out = out[:count]
	}
	if f.wrongTag && len(out) > 0 {
		out[0].Value = make([]byte, valueSize)
	}
	if f.dropKeys && len(out) > 1 {
		out = append(out[:1], out[2:]...)
	}
	return out, nil
}

// The oracle must count a wrongly tagged value, a missing loaded key,
// and a scan that skips a key or carries a bad tag as failed, and must
// pass the same ops when the index answers correctly.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	fab, err := newFabric()
	if err != nil {
		t.Fatal(err)
	}
	s := &system{loaded: ycsb.LoadKeys(64)}
	sort.Slice(s.loaded, func(i, j int) bool { return s.loaded[i] < s.loaded[j] })
	newFake := func() *fakeIndex {
		f := &fakeIndex{vals: map[uint64][]byte{}}
		for _, k := range s.loaded {
			var v [valueSize]byte
			binary.LittleEndian.PutUint64(v[:], tagOf(k))
			f.vals[k] = v[:]
			f.vals[k^1] = make([]byte, valueSize) // untagged neighbour
		}
		return f
	}
	key := s.loaded[10]
	ops := []ycsb.Op{
		{Kind: ycsb.OpRead, Key: key},
		{Kind: ycsb.OpUpdate, Key: key},
		{Kind: ycsb.OpScan, Key: key, ScanLen: 5},
	}
	for _, tc := range []struct {
		name       string
		corrupt    func(*fakeIndex)
		wantFailed []bool // per op
	}{
		{"correct", func(*fakeIndex) {}, []bool{false, false, false}},
		{"wrong tag", func(f *fakeIndex) { f.wrongTag = true }, []bool{true, false, true}},
		{"missing keys", func(f *fakeIndex) { f.dropKeys = true }, []bool{true, true, true}},
	} {
		for i, op := range ops {
			f := newFake()
			// Scans see the untagged neighbours too; keep only loaded keys.
			for k := range f.vals {
				if !s.isLoaded(k) && op.Kind == ycsb.OpScan {
					delete(f.vals, k)
				}
			}
			tc.corrupt(f)
			c := &client{ix: f, dm: fab.NewClient(), comb: rdwc.NewCombiner()}
			s.do(c, op, nil)
			if got := c.failed == 1; got != tc.wantFailed[i] {
				t.Errorf("%s: %v failed=%v, want %v", tc.name, op.Kind, got, tc.wantFailed[i])
			}
		}
	}
}

// The traced run must report exactly the per-layer metrics
// BENCHMARK.json lists, write its spans and end with a JSON line.
func TestTracedRunWritesEveryPerLayerMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	var want []string
	for _, m := range b.PerLayer {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	dir := t.TempDir()
	for _, name := range []string{"ycsb-a", "ycsb-e"} {
		w, _ := workloadByName(name)
		r, err := runTraced(w, testConfig, runOpts{seed: 3, measure: time.Second, outDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct {
			t.Fatalf("%s traced run not correct: %v", name, r.notes)
		}
		if got := sortedKeys(metricMap(r)); !slices.Equal(got, want) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json lists %v", name, got, want)
		}
		spans, err := os.ReadFile(filepath.Join(dir, "trace", name+"-seed3.jsonl"))
		if err != nil || !bytes.Contains(spans, []byte(`"name":"core.`)) {
			t.Errorf("%s span file missing core spans (err %v)", name, err)
		}
		var out bytes.Buffer
		if err := r.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   *bool                      `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || last.Attempted < 1 || len(last.Metrics) != len(want) {
			t.Errorf("%s last line is not a full result: %q (%v)", name, lines[len(lines)-1], err)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "ycsb-z"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
