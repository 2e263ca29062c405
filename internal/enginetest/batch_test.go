package enginetest

import (
	"context"
	"reflect"
	"testing"

	"latch/internal/engine"
	"latch/internal/platch"
	"latch/internal/trace"
	"latch/internal/workload"

	_ "latch/internal/hlatch"
	_ "latch/internal/slatch"
)

// runOneByOne drives b by hand over the same stream RunProfile would build,
// delivering every event the moment the generator emits it as a one-event
// slice — the reference semantics batched delivery must reproduce. The sink
// is not a trace.Flusher and advances nothing itself: the backend owns the
// cursor, exactly as under the profile driver.
func runOneByOne(t *testing.T, b engine.Backend, p workload.Profile, events uint64) engine.Result {
	t.Helper()
	s, err := engine.NewSession(b.Config())
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGeneratorOn(p, s.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	s.Module.ResetStats()
	s.Profile = p
	s.Target = events
	if err := b.Init(s); err != nil {
		t.Fatal(err)
	}
	var one [1]trace.Event
	g.Run(events, trace.SinkFunc(func(ev trace.Event) {
		one[0] = ev
		b.StepBatch(s, one[:])
	}))
	return b.Finish(s)
}

// TestBatchBackendEquivalence: for every registered backend, RunProfile's
// barrier-flushed batches of up to EventBatchSize events must produce a
// result identical to one-event delivery over the same workload — batching
// is a delivery optimization, never a semantic change. gcc never churns its
// taint, so its batches break only when full; astar churns, so its stream
// also exercises the flush barriers before every shadow mutation (without
// them, all four backends diverge on it).
func TestBatchBackendEquivalence(t *testing.T) {
	const events = 200_000
	for _, pair := range []struct{ prof, name string }{
		{"gcc", "slatch"}, {"gcc", "hlatch"}, {"gcc", "platch"}, {"gcc", "cplatch"},
		{"astar", "slatch"}, {"astar", "hlatch"}, {"astar", "platch"}, {"astar", "cplatch"},
	} {
		prof, name := pair.prof, pair.name
		p := workload.MustGet(prof)
		sch, err := engine.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rb, err := engine.RunProfile(context.Background(), sch.New(), p, engine.RunOptions{Events: events})
		if err != nil {
			t.Fatalf("%s/%s batched: %v", prof, name, err)
		}
		rs := runOneByOne(t, sch.New(), p, events)
		if rs.EventCount() != events {
			t.Fatalf("%s/%s: one-by-one run consumed %d events, want %d", prof, name, rs.EventCount(), events)
		}
		// P-LATCH's Ring stats report real, scheduling-dependent pipeline
		// occupancy; everything else (flag digest, monitor taint hash,
		// monitor queues) must match exactly.
		if cr, ok := rb.(platch.ConcurrentResult); ok {
			cr.Ring = platch.RingStats{}
			rb = cr
		}
		if cr, ok := rs.(platch.ConcurrentResult); ok {
			cr.Ring = platch.RingStats{}
			rs = cr
		}
		if !reflect.DeepEqual(rb, rs) {
			t.Errorf("%s/%s: batched and one-event results diverge\n batched: %+v\n one-by-one: %+v", prof, name, rb, rs)
		}
	}
}
