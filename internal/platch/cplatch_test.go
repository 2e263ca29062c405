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

func concCfg() Config {
	cfg := DefaultConfig()
	cfg.Events = 200_000
	return cfg
}

// TestConcurrentMatchesAnalyticModel pins the producer-side contract: the
// concurrent backend and the analytic backend share one filter and one
// window model, so their policy-level numbers are equal exactly — not
// approximately — on the same stream.
func TestConcurrentMatchesAnalyticModel(t *testing.T) {
	p := workload.MustGet("apache")
	want, err := Run(p, concCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunConcurrent(p, concCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events {
		t.Fatalf("events %d != %d", got.Events, want.Events)
	}
	if got.ActiveWindowFraction != want.ActiveWindowFraction ||
		got.OverheadSimple != want.OverheadSimple ||
		got.OverheadOptimized != want.OverheadOptimized ||
		got.EnqueuedFraction != want.EnqueuedFraction ||
		got.PendingExtraPositives != want.PendingExtraPositives {
		t.Fatalf("window model diverged from analytic platch:\n got %+v\nwant %+v", got, want)
	}
	if got.FlaggedEvents == 0 {
		t.Fatal("no flagged events reached the monitor")
	}
	if got.Ring.Pushes != got.FlaggedEvents {
		t.Fatalf("ring pushes %d != flagged %d (lost or duplicated)", got.Ring.Pushes, got.FlaggedEvents)
	}
}

// TestConcurrentQueueOracleAgreement is the oracle-agreement check: the
// analytic platch queue simulation predicts the concurrent pipeline's
// occupancy/stall behavior, and the monitor's virtual-time measurement
// must reproduce queueSim to float tolerance (same arithmetic, incremental
// evaluation). It holds at the registry default geometry — the one every
// CLI, the service and latchbench run — on a low-flag (apache) and a
// high-flag (astar) stream, and the monitor sees exactly the analytic
// filter's positives.
func TestConcurrentQueueOracleAgreement(t *testing.T) {
	const tol = 1e-9
	opts := engine.RunOptions{Events: 200_000}
	for _, name := range []string{"apache", "astar"} {
		p := workload.MustGet(name)
		ab, err := engine.New("platch")
		if err != nil {
			t.Fatal(err)
		}
		ares, err := engine.RunProfile(context.Background(), ab, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ares.(Result)
		cb, err := engine.New("cplatch")
		if err != nil {
			t.Fatal(err)
		}
		cres, err := engine.RunProfile(context.Background(), cb, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := cres.(ConcurrentResult)
		if d := math.Abs(got.QueueOverheadSimple - oracle.QueueOverheadSimple); d > tol {
			t.Errorf("%s: simple queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
				name, got.QueueOverheadSimple, oracle.QueueOverheadSimple, d)
		}
		if d := math.Abs(got.QueueOverheadOptimized - oracle.QueueOverheadOptimized); d > tol {
			t.Errorf("%s: optimized queue overhead %.12f vs oracle %.12f (|Δ|=%g)",
				name, got.QueueOverheadOptimized, oracle.QueueOverheadOptimized, d)
		}
		if positives := ab.(*backend).filt.positives; got.FlaggedEvents != positives {
			t.Errorf("%s: monitor saw %d flagged events, analytic filter %d positives",
				name, got.FlaggedEvents, positives)
		}
	}
}

// TestConcurrentDigestPin pins the monitor's digests on a low-flag and a
// high-flag stream. The constants are the digests of the Seq-ordered
// flagged log and domain set; folding each record into FlagDigest as it
// arrives must reproduce them.
func TestConcurrentDigestPin(t *testing.T) {
	for _, c := range []struct {
		name      string
		events    uint64
		flag      uint64
		taintHash uint64
		domains   int
	}{
		{"apache", 200_000, 0x28bd8372cfe8ad50, 0x2a41d83d689f8150, 11},
		{"astar", 60_000, 0x0c4258b7934a12d9, 0x6f6e645ee7302e95, 168},
	} {
		cfg := DefaultConfig()
		cfg.Events = c.events
		res, err := RunConcurrent(workload.MustGet(c.name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlagDigest != c.flag || res.MonitorTaintHash != c.taintHash || res.MonitorDomains != c.domains {
			t.Errorf("%s/%d: digest %#x taint hash %#x domains %d, want %#x %#x %d", c.name, c.events,
				res.FlagDigest, res.MonitorTaintHash, res.MonitorDomains, c.flag, c.taintHash, c.domains)
		}
	}
}

// TestConcurrentDeterminismPin is the determinism check: repeated runs
// must produce identical flag digests, cycle tables, monitor taint hashes,
// queue measurements and session snapshots. Real ring statistics are
// scheduling-dependent and deliberately absent from every assertion here.
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
	one := func() pinned {
		res, s, err := engine.RunProfileSession(context.Background(), NewConcurrent(DefaultConfig()), p,
			engine.RunOptions{Events: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		return pinned{res: res.(ConcurrentResult), snap: s.Snapshot()}
	}
	first := one()
	for run := 1; run < runs; run++ {
		got := one()
		if got.res.FlagDigest != first.res.FlagDigest || got.res.FlaggedEvents != first.res.FlaggedEvents {
			t.Fatalf("run %d: flagged log diverged", run)
		}
		if got.res.CycleTable() != first.res.CycleTable() {
			t.Fatalf("run %d: cycle table diverged:\n got %+v\nwant %+v",
				run, got.res.CycleTable(), first.res.CycleTable())
		}
		if got.res.MonitorTaintHash != first.res.MonitorTaintHash ||
			got.res.MonitorDomains != first.res.MonitorDomains {
			t.Fatalf("run %d: monitor taint state diverged", run)
		}
		if got.snap != first.snap {
			t.Fatalf("run %d: session snapshot diverged:\n got %+v\nwant %+v", run, got.snap, first.snap)
		}
		if got.res.QueueOverheadSimple != first.res.QueueOverheadSimple ||
			got.res.QueueOverheadOptimized != first.res.QueueOverheadOptimized ||
			got.res.StallsSimple != first.res.StallsSimple ||
			!reflect.DeepEqual(got.res.ShardStats, first.res.ShardStats) {
			t.Fatalf("run %d: queue measurement diverged", run)
		}
	}
}

// TestConcurrentRegistryAndSharding covers the registry path the CLIs use
// and the engine.Sharded surface latchbench still calls: one monitor core
// accepts a shard count of 1 only, and reports one shard.
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
	for _, n := range []int{0, 2, 4} {
		if err := sharded.SetShards(n); err == nil {
			t.Fatalf("SetShards(%d) accepted", n)
		}
	}
	if err := sharded.SetShards(1); err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunProfile(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	cres := res.(ConcurrentResult)
	if cres.Shards != 1 || len(cres.ShardStats) != 1 || cres.Flagged != nil {
		t.Fatalf("shards %d, %d shard stats, flagged log %v; want 1, 1, nil",
			cres.Shards, len(cres.ShardStats), cres.Flagged)
	}
	if _, _, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("gcc"),
		engine.RunOptions{Events: 1000}); err == nil {
		t.Fatal("backend reuse accepted")
	}
}

// TestConcurrentFinishIdempotent pins the defensive-finalization contract
// the differential checker relies on: a second Finish returns the memoized
// result instead of re-closing the ring or re-joining the monitor.
func TestConcurrentFinishIdempotent(t *testing.T) {
	b := NewConcurrent(DefaultConfig())
	res, s, err := engine.RunProfileSession(context.Background(), b, workload.MustGet("apache"),
		engine.RunOptions{Events: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	again := b.Finish(s).(ConcurrentResult)
	if !reflect.DeepEqual(res.(ConcurrentResult), again) {
		t.Fatal("second Finish returned a different result")
	}
}

// TestConcurrentZeroEvents: an empty stream yields a clean zero result, no
// NaNs, and a joined monitor.
func TestConcurrentZeroEvents(t *testing.T) {
	cfg := concCfg()
	cfg.Events = 0
	res, err := RunConcurrent(workload.MustGet("gcc"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlaggedEvents != 0 {
		t.Fatalf("flagged %d on an empty stream", res.FlaggedEvents)
	}
	for _, c := range res.Columns() {
		if f, ok := c.Value.(float64); ok && math.IsNaN(f) {
			t.Fatalf("column %s is NaN", c.Label)
		}
	}
}

// TestConcurrentConfigValidation: a queue with no slots is rejected at
// Init, before the monitor starts, instead of faulting in the monitor.
func TestConcurrentConfigValidation(t *testing.T) {
	cfg := concCfg()
	cfg.QueueDepth = 0
	if _, err := RunConcurrent(workload.MustGet("gcc"), cfg); err == nil {
		t.Fatal("zero queue depth accepted")
	}
}

// TestRunConcurrentObserver: RunConcurrent reports to the observer set on
// its config, and observing the run leaves every deterministic result field
// unchanged (the ring statistics depend on scheduling and are excluded).
func TestRunConcurrentObserver(t *testing.T) {
	p := workload.MustGet("apache")
	plain, err := RunConcurrent(p, concCfg())
	if err != nil {
		t.Fatal(err)
	}
	mx := telemetry.NewMetrics()
	cfg := concCfg()
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
