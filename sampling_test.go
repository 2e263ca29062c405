package latch_test

import (
	"context"
	"testing"

	"latch"
	"latch/internal/platch"
)

// sampledMonitorView is the deterministic monitor-side slice of a
// concurrent P-LATCH result: what the monitor saw, without ring statistics.
type sampledMonitorView struct {
	Events           uint64
	FlaggedEvents    uint64
	FlagDigest       uint64
	MonitorDomains   int
	MonitorTaintHash uint64
}

func runSampledCplatch(t *testing.T, pol latch.Policy, shards int) sampledMonitorView {
	t.Helper()
	res, err := latch.Run(context.Background(), latch.RunRequest{
		Backend:  "cplatch",
		Workload: "gcc",
		Events:   200_000,
		Shards:   shards,
		Policy:   &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := res.(platch.ConcurrentResult)
	if !ok {
		t.Fatalf("cplatch returned %T", res)
	}
	return sampledMonitorView{
		Events:           cr.Events,
		FlaggedEvents:    cr.FlaggedEvents,
		FlagDigest:       cr.FlagDigest,
		MonitorDomains:   cr.MonitorDomains,
		MonitorTaintHash: cr.MonitorTaintHash,
	}
}

// TestSampledTaintSetShardInvariant is the determinism property of the
// seeded sampler under the concurrent P-LATCH backend: the same SampleSeed
// selects the same tainted subset, so the monitor taint state and flagged
// log are identical across repeated runs and whether the request leaves
// Shards at 0 or names the one monitor explicitly.
func TestSampledTaintSetShardInvariant(t *testing.T) {
	pol := latch.DefaultPolicy()
	pol.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	want := runSampledCplatch(t, pol, 1)
	if want.MonitorDomains == 0 {
		t.Fatal("sampled run tainted no domains; the property would be vacuous")
	}
	for _, shards := range []int{0, 1} {
		if got := runSampledCplatch(t, pol, shards); got != want {
			t.Errorf("shards=%d monitor view %+v, want %+v", shards, got, want)
		}
	}
}

// TestSampledTaintSetSeedSensitivity pins the other direction: a different
// SampleSeed picks a different subset (for a fraction strictly inside
// (0,1) on a workload with enough taint runs to tell them apart).
func TestSampledTaintSetSeedSensitivity(t *testing.T) {
	pol := latch.DefaultPolicy()
	pol.Sampling = latch.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	a := runSampledCplatch(t, pol, 0)
	pol.Sampling.SampleSeed = 8
	b := runSampledCplatch(t, pol, 0)
	// The short stream stays inside one taint domain, so the discriminating
	// signal is the flagged log, not the merged domain set.
	if a == b {
		t.Errorf("seeds 7 and 8 produced identical monitor views %+v", a)
	}
}
