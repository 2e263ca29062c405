package enginetest

import (
	"context"
	"reflect"
	"testing"

	"latch/internal/engine"
	"latch/internal/platch"
	"latch/internal/policy"
	"latch/internal/workload"
)

// TestRecycledSessionProfileSequence carries one recycled session per
// backend through a sequence of different profiles — astar (churning
// taint), lbm (two whole tainted pages), sphinx3 sampled at fraction 0.5,
// then gcc — the way the experiment Runner's free list hands a session
// from job to job. Each run's result and session Snapshot must equal a run
// of the same profile on a fresh session: recycling leaks no state from
// one profile into the next.
func TestRecycledSessionProfileSequence(t *testing.T) {
	const events = 60_000
	sampled := policy.Default()
	sampled.Sampling = policy.Sampling{SampleFraction: 0.5, SampleSeed: 7}
	steps := []struct {
		profile string
		pol     policy.Policy
	}{
		{"astar", policy.Policy{}},
		{"lbm", policy.Policy{}},
		{"sphinx3", sampled},
		{"gcc", policy.Policy{}},
	}
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			sch, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var carried *engine.Session
			for _, st := range steps {
				p := workload.MustGet(st.profile)
				fresh, fs, err := engine.RunProfileSession(context.Background(), sch.New(), p,
					engine.RunOptions{Events: events, Policy: st.pol})
				if err != nil {
					t.Fatalf("%s fresh: %v", st.profile, err)
				}
				recycled, rs, err := engine.RunProfileSession(context.Background(), sch.New(), p,
					engine.RunOptions{Events: events, Policy: st.pol, Session: carried})
				if err != nil {
					t.Fatalf("%s recycled: %v", st.profile, err)
				}
				if carried != nil && rs != carried {
					t.Fatalf("%s: the run did not use the recycled session", st.profile)
				}
				carried = rs
				if got, want := withoutRing(recycled), withoutRing(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: recycled result diverged\nfresh    %+v\nrecycled %+v", st.profile, want, got)
				}
				if got, want := rs.Snapshot(), fs.Snapshot(); got != want {
					t.Fatalf("%s: recycled snapshot diverged\nfresh    %+v\nrecycled %+v", st.profile, want, got)
				}
			}
		})
	}
}

// withoutRing zeroes the concurrent P-LATCH result's ring statistics, which
// report real, scheduling-dependent pipeline occupancy; every other result
// field is deterministic.
func withoutRing(r engine.Result) engine.Result {
	if cr, ok := r.(platch.ConcurrentResult); ok {
		cr.Ring = platch.RingStats{}
		return cr
	}
	return r
}
