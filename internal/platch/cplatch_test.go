package platch

import (
	"context"
	"math"
	"reflect"
	"testing"

	"latch/internal/engine"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

// shardSweep is the shard-count axis every concurrent-tier test sweeps.
var shardSweep = []int{1, 2, 4, 8}

func concCfg(shards int) ConcurrentConfig {
	cfg := DefaultConcurrentConfig()
	cfg.Events = 200_000
	cfg.Shards = shards
	cfg.KeepFlagged = true
	return cfg
}

// TestConcurrentMatchesAnalyticModel pins the producer-side contract: the
// concurrent backend and the analytic backend share one filter and one
// window model, so their policy-level numbers are equal exactly — not
// approximately — on the same stream, at every shard count.
func TestConcurrentMatchesAnalyticModel(t *testing.T) {
	p := workload.MustGet("apache")
	acfg := shortCfg()
	acfg.Events = 200_000
	want, err := Run(p, acfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardSweep {
		got, err := RunConcurrent(p, concCfg(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got.Events != want.Events {
			t.Fatalf("shards=%d: events %d != %d", shards, got.Events, want.Events)
		}
		if got.ActiveWindowFraction != want.ActiveWindowFraction ||
			got.OverheadSimple != want.OverheadSimple ||
			got.OverheadOptimized != want.OverheadOptimized ||
			got.EnqueuedFraction != want.EnqueuedFraction ||
			got.PendingExtraPositives != want.PendingExtraPositives {
			t.Fatalf("shards=%d: window model diverged from analytic platch:\n got %+v\nwant %+v",
				shards, got, want)
		}
		if got.FlaggedEvents == 0 {
			t.Fatalf("shards=%d: no flagged events reached the monitor", shards)
		}
		if got.Ring.Pushes != got.FlaggedEvents {
			t.Fatalf("shards=%d: ring pushes %d != flagged %d (lost or duplicated)",
				shards, got.Ring.Pushes, got.FlaggedEvents)
		}
	}
}

// TestConcurrentQueueOracleAgreement is the oracle-agreement satellite: the
// analytic platch queue simulation predicts the concurrent pipeline's
// occupancy/stall behavior. At one shard the virtual-time measurement must
// reproduce queueSim to float tolerance (same arithmetic, incremental
// evaluation); more shards split the arrival stream, so per-shard queue
// pressure — the makespan overhead — must never exceed the serial
// prediction.
func TestConcurrentQueueOracleAgreement(t *testing.T) {
	p := workload.MustGet("apache")
	acfg := shortCfg()
	acfg.Events = 200_000
	oracle, err := Run(p, acfg)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	serial, err := RunConcurrent(p, concCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(serial.QueueOverheadSimple - oracle.QueueOverheadSimple); d > tol {
		t.Fatalf("serial simple queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
			serial.QueueOverheadSimple, oracle.QueueOverheadSimple, d)
	}
	if d := math.Abs(serial.QueueOverheadOptimized - oracle.QueueOverheadOptimized); d > tol {
		t.Fatalf("serial optimized queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
			serial.QueueOverheadOptimized, oracle.QueueOverheadOptimized, d)
	}
	for _, shards := range shardSweep[1:] {
		got, err := RunConcurrent(p, concCfg(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got.QueueOverheadSimple > oracle.QueueOverheadSimple+tol {
			t.Fatalf("shards=%d: queue overhead %.12f exceeds serial oracle %.12f",
				shards, got.QueueOverheadSimple, oracle.QueueOverheadSimple)
		}
		if got.StallsSimple > serial.StallsSimple {
			t.Fatalf("shards=%d: %d stalls exceed serial %d — sharding made pressure worse",
				shards, got.StallsSimple, serial.StallsSimple)
		}
	}
}

// TestConcurrentDeterminismPin is the determinism satellite: repeated runs
// at shard counts {1,2,4,8} must produce byte-identical flagged logs,
// cycle tables, monitor taint hashes, and session snapshots — and the
// deterministic core must additionally be identical ACROSS shard counts.
// Real ring statistics are scheduling-dependent and deliberately absent
// from every assertion here.
func TestConcurrentDeterminismPin(t *testing.T) {
	runs := 50
	if testing.Short() {
		runs = 8
	}
	p := workload.MustGet("apache")

	type pinned struct {
		res  ConcurrentResult
		snap engine.Snapshot
	}
	one := func(shards int) pinned {
		cfg := concCfg(shards)
		cfg.Events = 60_000
		res, s, err := engine.RunProfileSession(context.Background(), NewConcurrent(cfg), p,
			engine.RunOptions{Events: cfg.Events})
		if err != nil {
			t.Fatal(err)
		}
		return pinned{res: res.(ConcurrentResult), snap: s.Snapshot()}
	}
	var ref pinned // shards=1 reference for the cross-shard-count contract
	for si, shards := range shardSweep {
		first := one(shards)
		if si == 0 {
			ref = first
		}
		for run := 1; run < runs; run++ {
			got := one(shards)
			if got.res.FlagDigest != first.res.FlagDigest ||
				!reflect.DeepEqual(got.res.Flagged, first.res.Flagged) {
				t.Fatalf("shards=%d run %d: flagged log diverged", shards, run)
			}
			if got.res.CycleTable() != first.res.CycleTable() {
				t.Fatalf("shards=%d run %d: cycle table diverged:\n got %+v\nwant %+v",
					shards, run, got.res.CycleTable(), first.res.CycleTable())
			}
			if got.res.MonitorTaintHash != first.res.MonitorTaintHash ||
				got.res.MonitorDomains != first.res.MonitorDomains {
				t.Fatalf("shards=%d run %d: monitor taint state diverged", shards, run)
			}
			if got.snap != first.snap {
				t.Fatalf("shards=%d run %d: session snapshot diverged:\n got %+v\nwant %+v",
					shards, run, got.snap, first.snap)
			}
			// The virtual-time queue measurement is deterministic at a
			// fixed shard count.
			if got.res.QueueOverheadSimple != first.res.QueueOverheadSimple ||
				got.res.QueueOverheadOptimized != first.res.QueueOverheadOptimized ||
				got.res.StallsSimple != first.res.StallsSimple ||
				!reflect.DeepEqual(got.res.ShardStats, first.res.ShardStats) {
				t.Fatalf("shards=%d run %d: queue measurement diverged", shards, run)
			}
		}
		// Shard-count invariance of the deterministic core.
		if first.res.FlagDigest != ref.res.FlagDigest ||
			!reflect.DeepEqual(first.res.Flagged, ref.res.Flagged) {
			t.Fatalf("shards=%d: flagged log differs from serial", shards)
		}
		if first.res.MonitorTaintHash != ref.res.MonitorTaintHash ||
			first.res.MonitorDomains != ref.res.MonitorDomains {
			t.Fatalf("shards=%d: monitor taint state differs from serial", shards)
		}
		if first.res.CycleTable() != ref.res.CycleTable() {
			t.Fatalf("shards=%d: cycle table differs from serial:\n got %+v\nwant %+v",
				shards, first.res.CycleTable(), ref.res.CycleTable())
		}
		if first.snap != ref.snap {
			t.Fatalf("shards=%d: session snapshot differs from serial", shards)
		}
	}
}

// TestConcurrentShardPartition checks the region partition: every shard's
// flagged events carry only domains congruent to its index, and the shard
// tables are disjoint (their domain counts sum to the merged count).
func TestConcurrentShardPartition(t *testing.T) {
	cfg := concCfg(4)
	res, err := RunConcurrent(workload.MustGet("apache"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	domains := 0
	for _, st := range res.ShardStats {
		events += st.Events
		domains += st.Domains
	}
	if events != res.FlaggedEvents {
		t.Fatalf("shard events sum %d != merged %d", events, res.FlaggedEvents)
	}
	if domains != res.MonitorDomains {
		t.Fatalf("shard domain counts sum %d != merged %d (tables overlap)", domains, res.MonitorDomains)
	}
	seen := make(map[uint64]bool, len(res.Flagged))
	var prev uint64
	for i, f := range res.Flagged {
		if i > 0 && f.Seq <= prev {
			t.Fatalf("merged log not strictly Seq-ordered at %d", i)
		}
		prev = f.Seq
		if seen[f.Seq] {
			t.Fatalf("duplicate seq %d in merged log", f.Seq)
		}
		seen[f.Seq] = true
	}
}

// TestConcurrentRegistryAndSharding covers the registry path the CLIs use:
// look up "cplatch", configure the shard count through engine.Sharded, run.
func TestConcurrentRegistryAndSharding(t *testing.T) {
	sch, err := engine.Lookup("cplatch")
	if err != nil {
		t.Fatal(err)
	}
	b := sch.New()
	sharded, ok := b.(engine.Sharded)
	if !ok {
		t.Fatal("registered cplatch backend does not implement engine.Sharded")
	}
	if err := sharded.SetShards(0); err == nil {
		t.Fatal("SetShards(0) accepted")
	}
	if err := sharded.SetShards(2); err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunProfile(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	cres := res.(ConcurrentResult)
	if cres.Shards != 2 {
		t.Fatalf("shards = %d, want 2", cres.Shards)
	}
	if err := sharded.SetShards(4); err == nil {
		t.Fatal("SetShards after Init accepted")
	}
	if _, _, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 1000}); err == nil {
		t.Fatal("backend reuse accepted")
	}
}

// TestConcurrentFinishIdempotent pins the defensive-finalization contract
// the differential checker relies on: a second Finish returns the memoized
// result instead of re-closing rings or re-joining shards.
func TestConcurrentFinishIdempotent(t *testing.T) {
	cfg := concCfg(2)
	cfg.Events = 20_000
	b := NewConcurrent(cfg)
	res, s, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("apache"),
		engine.RunOptions{Events: cfg.Events})
	if err != nil {
		t.Fatal(err)
	}
	again := b.Finish(s).(ConcurrentResult)
	if !reflect.DeepEqual(res.(ConcurrentResult), again) {
		t.Fatal("second Finish returned a different result")
	}
}

// TestConcurrentZeroEvents: an empty stream yields a clean zero result, no
// NaNs, and joined shards.
func TestConcurrentZeroEvents(t *testing.T) {
	cfg := concCfg(4)
	cfg.Events = 0
	res, err := RunConcurrent(workload.MustGet("gcc"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlaggedEvents != 0 || len(res.Flagged) != 0 {
		t.Fatalf("flagged %d on an empty stream", res.FlaggedEvents)
	}
	for _, c := range res.Columns() {
		if f, ok := c.Value.(float64); ok && math.IsNaN(f) {
			t.Fatalf("column %s is NaN", c.Label)
		}
	}
}

func TestConcurrentConfigValidation(t *testing.T) {
	cfg := DefaultConcurrentConfig()
	cfg.Shards = 0
	if _, err := RunConcurrent(workload.MustGet("gcc"), cfg); err == nil {
		t.Fatal("zero shards accepted")
	}
	cfg = DefaultConcurrentConfig()
	cfg.RingCapacity = 3
	if _, err := RunConcurrent(workload.MustGet("gcc"), cfg); err == nil {
		t.Fatal("non-power-of-two ring accepted")
	}
}

// TestRunConcurrentObserver: RunConcurrent reports to the observer set on
// its config, and observing the run leaves every deterministic result field
// unchanged (the ring statistics depend on scheduling and are excluded).
func TestRunConcurrentObserver(t *testing.T) {
	p := workload.MustGet("apache")
	plain, err := RunConcurrent(p, concCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	mx := telemetry.NewMetrics()
	cfg := concCfg(2)
	cfg.Observer = mx
	observed, err := RunConcurrent(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := mx.Snapshot(); s.CoarseChecks == 0 {
		t.Fatalf("observer on cfg.Observer got no telemetry: %+v", s)
	}
	plain.Ring, observed.Ring = RingStats{}, RingStats{}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("observer changed results")
	}
}
