package bench

import (
	"fmt"
	"testing"

	"chime/internal/ycsb"
)

// Two single-client runs built from the same scale and workload seed
// must produce bit-identical result rows: every timestamp is virtual,
// every random draw is threaded from the seed (the virtualclock and
// seededrand analyzers enforce both statically), so nothing in a
// deterministic run may vary between executions. This is the
// row-level replay guarantee the committed BENCH_*.json artifacts and
// the fault plane's off-means-off pin build on.
//
// Each row is also pinned to a golden rendering of its Result. The
// goldens freeze single-client virtual behaviour — verb order, clock
// charges, backoff and cache effects — so a refactor of the op engines
// that changes any of them fails here, not in a distant artifact. A
// deliberate behaviour change re-pins the affected rows (the failure
// message prints the new rendering).
func TestSameSeedBitIdenticalRows(t *testing.T) {
	sc := tinyScale
	sc.LoadN = 3000

	type row struct {
		name   string
		system string
		mut    func(*SystemConfig)
		// run measures one point on a freshly built system.
		run func(sys System, cfg SystemConfig) (any, error)
	}
	ycsbRun := func(mix ycsb.Mix) func(System, SystemConfig) (any, error) {
		return func(sys System, cfg SystemConfig) (any, error) {
			return runPoint(sys, cfg, mix, 1, 800, 7)
		}
	}
	cold := func(c *SystemConfig) {
		c.CacheBytes = 0 // every internal hop is remote
		c.DisableRDWC = true
	}
	multiGet := func(mix ycsb.Mix) func(System, SystemConfig) (any, error) {
		return func(sys System, cfg SystemConfig) (any, error) {
			return RunMultiGet(sys, MultiGetConfig{
				Mix: mix, Clients: 1, OpsPerClient: 800, BatchSize: 32, Depth: 8,
				ValueSize: cfg.ValueSize, KeySpace: NewKeySpaceFor(cfg.LoadKeys), Seed: 7,
			})
		}
	}
	multiPut := func(mix ycsb.Mix) func(System, SystemConfig) (any, error) {
		return func(sys System, cfg SystemConfig) (any, error) {
			return RunMultiPut(sys, MultiPutConfig{
				Mix: mix, Clients: 1, OpsPerClient: 800, BatchSize: 32, Depth: 8,
				ValueSize: cfg.ValueSize, KeySpace: NewKeySpaceFor(cfg.LoadKeys), Seed: 7,
			})
		}
	}

	rows := []row{
		{name: "CHIME/C", system: "CHIME", run: ycsbRun(ycsb.WorkloadC)},
		{name: "CHIME/A", system: "CHIME", run: ycsbRun(ycsb.WorkloadA)},
		{name: "CHIME/E", system: "CHIME", run: ycsbRun(ycsb.WorkloadE)},
		{name: "Sherman/C", system: "Sherman", run: ycsbRun(ycsb.WorkloadC)},
		{name: "Sherman/A", system: "Sherman", run: ycsbRun(ycsb.WorkloadA)},
		{name: "Sherman/E", system: "Sherman", run: ycsbRun(ycsb.WorkloadE)},
		{name: "CHIME/C/cold", system: "CHIME", mut: cold, run: ycsbRun(ycsb.WorkloadC)},
		{name: "Sherman/C/cold", system: "Sherman", mut: cold, run: ycsbRun(ycsb.WorkloadC)},
	}
	ablations := []struct {
		name string
		mut  func(*SystemConfig)
	}{
		{"no-replication", func(c *SystemConfig) { c.DisableReplication = true }},
		{"no-speculation", func(c *SystemConfig) { c.DisableSpeculation = true }},
		{"no-piggyback", func(c *SystemConfig) { c.DisablePiggyback = true }},
		{"indirect", func(c *SystemConfig) { c.Indirect = true }},
	}
	for _, ab := range ablations {
		for _, mix := range []ycsb.Mix{ycsb.WorkloadC, ycsb.WorkloadA, ycsb.WorkloadE} {
			name := "CHIME/" + mix.Name + "/" + ab.name
			rows = append(rows, row{name: name, system: "CHIME", mut: ab.mut,
				run: ycsbRun(mix)})
		}
	}
	for _, system := range []string{"CHIME", "Sherman"} {
		for _, mix := range []ycsb.Mix{ycsb.WorkloadC, ycsb.WorkloadB} {
			name := system + "/multiget-" + mix.Name
			rows = append(rows, row{name: name, system: system, mut: cold,
				run: multiGet(mix)})
		}
		for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadLoad} {
			name := system + "/multiput-" + mix.Name
			rows = append(rows, row{name: name, system: system, mut: cold,
				run: multiPut(mix)})
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			measure := func() string {
				t.Helper()
				sys, cfg, err := buildSystem(r.system, sc, 1, func(c *SystemConfig) {
					c.LoadClients = 1 // single-threaded: fully deterministic
					if r.mut != nil {
						r.mut(c)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.run(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%+v", res)
			}
			a, b := measure(), measure()
			if a != b {
				t.Fatalf("same seed produced different rows:\n a: %s\n b: %s", a, b)
			}
			if want := rowGoldens[r.name]; a != want {
				t.Fatalf("row differs from its golden:\n got:  %s\n want: %s", a, want)
			}
		})
	}
}

// rowGoldens holds each row's pinned Result rendering.
var rowGoldens = map[string]string{
	"CHIME/C":                `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.42199612607556264 P50Us:2.368 P99Us:2.368 TripsPerOp:1.00125 ReadBytes:101.915 WriteBytes:0 CacheBytes:11596 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.55 NICUtilization:0.007148614375720031 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/A":                `{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.21351234208093398 P50Us:6.784 P99Us:6.784 TripsPerOp:2.04125 ReadBytes:164.985 WriteBytes:18.72 CacheBytes:9052 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.4765625 NICUtilization:0.009142598487905593 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/E":                `{System:CHIME Mix:E Clients:1 Ops:800 ThroughputMops:0.11963600744734146 P50Us:7.04 P99Us:14.08 TripsPerOp:3.54125 ReadBytes:5210.1475 WriteBytes:2.5275 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.050000373862523276 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"Sherman/C":              `{System:Sherman Mix:C Clients:1 Ops:800 ThroughputMops:0.40588204256079097 P50Us:2.496 P99Us:2.496 TripsPerOp:1.00125 ReadBytes:1398.01 WriteBytes:0 CacheBytes:4386 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.04506102436509901 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"Sherman/A":              `{System:Sherman Mix:A Clients:1 Ops:800 ThroughputMops:0.20934823613643644 P50Us:6.784 P99Us:6.784 TripsPerOp:2.04125 ReadBytes:1402.17 WriteBytes:17.68 CacheBytes:4386 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.028467173149832627 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"Sherman/E":              `{System:Sherman Mix:E Clients:1 Ops:800 ThroughputMops:0.1672363153658817 P50Us:6.784 P99Us:9.472 TripsPerOp:2.52625 ReadBytes:3394.045 WriteBytes:1.6575 CacheBytes:4386 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.04545692097038872 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/C/cold":           `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.1428226613860368 P50Us:7.04 P99Us:7.04 TripsPerOp:3.00125 ReadBytes:3019.915 WriteBytes:0 CacheBytes:5760 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0.55 NICUtilization:0.03555427332544 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"Sherman/C/cold":         `{System:Sherman Mix:C Clients:1 Ops:800 ThroughputMops:0.1411279225828668 P50Us:7.04 P99Us:7.04 TripsPerOp:3.00125 ReadBytes:4194.01 WriteBytes:0 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0.046998420778546296 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/C/no-replication": `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.297010000326711 P50Us:2.368 P99Us:4.48 TripsPerOp:1.45125 ReadBytes:102.515 WriteBytes:0 CacheBytes:11596 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.55 NICUtilization:0.007169821407886803 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/A/no-replication": `{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.15642940497382937 P50Us:8.96 P99Us:8.96 TripsPerOp:2.8125 ReadBytes:164.5775 WriteBytes:18.72 CacheBytes:9052 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.4765625 NICUtilization:0.008628645978356428 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/E/no-replication": `{System:CHIME Mix:E Clients:1 Ops:800 ThroughputMops:0.11810952709831171 P50Us:8.96 P99Us:14.08 TripsPerOp:3.59 ReadBytes:5210.335 WriteBytes:2.5275 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.04945452591278734 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/C/no-speculation": `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.42173984555886856 P50Us:2.368 P99Us:2.368 TripsPerOp:1.00125 ReadBytes:202.4025 WriteBytes:0 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.007751578361372004 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/A/no-speculation": `{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.21348863920206487 P50Us:6.784 P99Us:6.784 TripsPerOp:2.04125 ReadBytes:206.5625 WriteBytes:18.72 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.009252597623017491 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/E/no-speculation": `{System:CHIME Mix:E Clients:1 Ops:800 ThroughputMops:0.11963600744734146 P50Us:7.04 P99Us:14.08 TripsPerOp:3.54125 ReadBytes:5210.1475 WriteBytes:2.5275 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.050000373862523276 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/C/no-piggyback":   `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.42199612607556264 P50Us:2.368 P99Us:2.368 TripsPerOp:1.00125 ReadBytes:101.915 WriteBytes:0 CacheBytes:11596 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.55 NICUtilization:0.007148614375720031 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/A/no-piggyback":   `{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.17135346965073023 P50Us:8.96 P99Us:8.96 TripsPerOp:2.56125 ReadBytes:169.145 WriteBytes:18.72 CacheBytes:9052 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.4765625 NICUtilization:0.008763016437938344 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/E/no-piggyback":   `{System:CHIME Mix:E Clients:1 Ops:800 ThroughputMops:0.11810952709831171 P50Us:8.96 P99Us:14.08 TripsPerOp:3.59 ReadBytes:5210.5375 WriteBytes:2.5275 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.04945452591278734 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/C/indirect":       `{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:0.21806969071175766 P50Us:4.48 P99Us:4.48 TripsPerOp:2.00125 ReadBytes:117.915 WriteBytes:0 CacheBytes:11596 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.55 NICUtilization:0.007183215612045298 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/A/indirect":       `{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.14461650594952305 P50Us:8.96 P99Us:8.96 TripsPerOp:3.0425 ReadBytes:172.665 WriteBytes:27.04 CacheBytes:9052 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0.4765625 NICUtilization:0.008509235210069936 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/E/indirect":       `{System:CHIME Mix:E Clients:1 Ops:800 ThroughputMops:0.048227140184842573 P50Us:18.944 P99Us:37.888 TripsPerOp:65.9125 ReadBytes:6207.2875 WriteBytes:3.3075 CacheBytes:5836 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:1 HotspotHitRatio:0 NICUtilization:0.06828372267706444 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0}`,
	"CHIME/multiget-C":       `{Result:{System:CHIME Mix:C Clients:1 Ops:800 ThroughputMops:1.005237286261422 P50Us:1.008 P99Us:1.056 TripsPerOp:3.01 ReadBytes:3120.4725 WriteBytes:0 CacheBytes:5760 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8}`,
	"CHIME/multiget-B":       `{Result:{System:CHIME Mix:B Clients:1 Ops:800 ThroughputMops:0.6216547205351204 P50Us:1.056 P99Us:11.52 TripsPerOp:3.0975 ReadBytes:3120.8225 WriteBytes:1.575 CacheBytes:5568 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8}`,
	"CHIME/multiput-A":       `{MultiGetResult:{Result:{System:CHIME Mix:A Clients:1 Ops:800 ThroughputMops:0.7790588968526021 P50Us:1.568 P99Us:1.632 TripsPerOp:3.88875 ReadBytes:3180.3775 WriteBytes:17.335 CacheBytes:3216 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8} WriteCycles:373 CombinedKeys:43}`,
	"CHIME/multiput-LOAD":    `{MultiGetResult:{Result:{System:CHIME Mix:LOAD Clients:1 Ops:800 ThroughputMops:0.6099499612300556 P50Us:1.568 P99Us:2.624 TripsPerOp:4.925 ReadBytes:3226.92 WriteBytes:80.08 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8} WriteCycles:766 CombinedKeys:37}`,
	"Sherman/multiget-C":     `{Result:{System:Sherman Mix:C Clients:1 Ops:800 ThroughputMops:1.0034040482336326 P50Us:1.008 P99Us:1.056 TripsPerOp:3.01 ReadBytes:4194.08 WriteBytes:0 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8}`,
	"Sherman/multiget-B":     `{Result:{System:Sherman Mix:B Clients:1 Ops:800 ThroughputMops:0.6186979810338133 P50Us:1.056 P99Us:11.52 TripsPerOp:3.0975 ReadBytes:4194.43 WriteBytes:1.4875 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8}`,
	"Sherman/multiput-A":     `{MultiGetResult:{Result:{System:Sherman Mix:A Clients:1 Ops:800 ThroughputMops:0.7760992475717795 P50Us:1.568 P99Us:1.632 TripsPerOp:3.89625 ReadBytes:4126.1825 WriteBytes:16.3875 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8} WriteCycles:375 CombinedKeys:41}`,
	"Sherman/multiput-LOAD":  `{MultiGetResult:{Result:{System:Sherman Mix:LOAD Clients:1 Ops:800 ThroughputMops:0.6238760483067224 P50Us:1.568 P99Us:2.624 TripsPerOp:4.9075 ReadBytes:4151.1625 WriteBytes:38.68 CacheBytes:0 RetriesPerOp:0 TornReadsPerOp:0 LockBackoffsPerOp:0 SiblingChasesPerOp:0 Splits:0 Merges:0 CacheHitRatio:0 HotspotHitRatio:0 NICUtilization:0 DelegatedReads:0 CombinedWrites:0 WCCycles:0 WCCombinedKeys:0 VerbTimeoutsPerOp:0 VerbRetriesPerOp:0 LeaseExpired:0 Recoveries:0 OffloadsPerOp:0 MNFallbacksPerOp:0 MNUtilization:0} Depth:8 MaxInflight:8} WriteCycles:768 CombinedKeys:33}`,
}
