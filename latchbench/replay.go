package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"latch"
	"latch/internal/engine"
	"latch/internal/platch"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

const (
	// replayEvents is one replay op's stream length: the facade default.
	replayEvents = latch.DefaultRunEvents
	// replayWarmEvents is the stream length of the set-up warm-up runs.
	replayWarmEvents = 20_000
	// unattributedTolerance bounds the share of traced op wall time the
	// decorator split may leave unexplained.
	unattributedTolerance = 0.01
)

// combo is one (backend, profile) pair.
type combo struct{ backend, profile string }

// shards is the monitor shard count a combo runs at: one for the
// concurrent backend, so producer and monitor fit two CPUs.
func (c combo) shards() int {
	if c.backend == "cplatch" {
		return 1
	}
	return 0
}

// combos lists every backend × profile pair in a seeded order.
func combos(seed int64) []combo {
	var out []combo
	for _, b := range benchBackends {
		for _, p := range benchProfiles {
			out = append(out, combo{b, p})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// replayLong streams long calibrated workloads through every backend.
type replayLong struct {
	env      *env
	runSeed  int64 // RunRequest.Seed: 0 keeps the calibrated profile seeds
	schedule []combo
}

func newReplayLong(e *env) *replayLong {
	r := &replayLong{env: e}
	if e.seed != defaultSeed {
		r.runSeed = e.seed*1_000_003 + 1
	}
	return r
}

func (r *replayLong) key(c combo, events uint64) string {
	return fmt.Sprintf("replay/%s/%s/%d/%d", c.backend, c.profile, events, r.runSeed)
}

func (r *replayLong) request(c combo, events uint64) latch.RunRequest {
	return latch.RunRequest{Backend: c.backend, Workload: c.profile, Events: events, Shards: c.shards(), Seed: r.runSeed}
}

// setUp builds the op schedule and runs every combo once on a short stream.
func (r *replayLong) setUp() error {
	r.schedule = combos(r.env.seed)
	for _, c := range r.schedule {
		if _, err := latch.Run(context.Background(), r.request(c, replayWarmEvents)); err != nil {
			return fmt.Errorf("warm-up %s/%s: %w", c.backend, c.profile, err)
		}
	}
	return nil
}

func (r *replayLong) close() {}

// run replays whole rotations of the schedule until the deadline, at least
// one, so that every phase covers every combo equally often.
func (r *replayLong) run(deadline time.Time, traced bool) phase {
	ph := newPhase()
	events := make(map[string]float64)
	wall := make(map[string]time.Duration)
	st := newSplitTotals()
	start := time.Now()
	for rot := 0; rot == 0 || time.Now().Before(deadline); rot++ {
		for _, c := range r.schedule {
			var res engine.Result
			var err error
			var d time.Duration
			if traced {
				var sp split
				var snap telemetry.Snapshot
				res, sp, snap, err = decoratedRun(c, r.runSeed, replayEvents)
				d = sp.Wall
				if err == nil {
					st.add(c.backend, res, sp, snap)
				}
			} else {
				t0 := time.Now()
				res, err = latch.Run(context.Background(), r.request(c, replayEvents))
				d = time.Since(t0)
			}
			ok := err == nil
			if err != nil {
				r.env.check.fail("replay %s/%s: %v", c.backend, c.profile, err)
			} else {
				key := r.key(c, replayEvents)
				if r.env.seed == defaultSeed && !r.env.check.requireRecorded(key) {
					ok = false
				}
				ok = r.env.check.check(key, resultDigest(res)) && ok
				events[c.backend] += float64(res.EventCount())
			}
			wall[c.backend] += d
			ph.record(d, ok)
		}
	}
	ph.wall = time.Since(start)
	for _, b := range benchBackends {
		ph.details.set("events_per_s."+b, frac(events[b], wall[b].Seconds()), "1/s")
	}
	if traced {
		st.report(ph.layers, r.env.check)
	}
	return ph
}

// backendSplit accumulates one backend's decorated ops.
type backendSplit struct {
	ops, events                                             float64
	setup, stream, step, finish                             time.Duration
	ringStalls, ringWaits, ringOccSum, ringFlushes, flagged float64
}

// splitTotals accumulates decorated ops into the per-backend split.
type splitTotals struct {
	backends           map[string]*backendSplit
	counts             latchCounts
	wall, unattributed time.Duration
}

func newSplitTotals() *splitTotals {
	st := &splitTotals{backends: make(map[string]*backendSplit), counts: newLatchCounts()}
	for _, b := range benchBackends {
		st.backends[b] = &backendSplit{}
	}
	return st
}

func (st *splitTotals) add(backend string, res engine.Result, sp split, snap telemetry.Snapshot) {
	t := st.backends[backend]
	t.ops++
	t.events += float64(res.EventCount())
	t.setup += sp.Setup
	t.stream += sp.Stream
	t.step += sp.Step
	t.finish += sp.Finish
	st.wall += sp.Wall
	u := sp.Unattributed()
	if u < 0 {
		u = -u
	}
	st.unattributed += u
	st.counts.add(backend, res.EventCount(), snap)
	if cr, ok := res.(platch.ConcurrentResult); ok {
		t.ringStalls += float64(cr.Ring.ProducerStalls)
		t.ringWaits += float64(cr.Ring.ConsumerWaits)
		t.ringOccSum += float64(cr.Ring.OccupancySum)
		t.ringFlushes += float64(cr.Ring.Flushes)
		t.flagged += float64(cr.FlaggedEvents)
	}
}

// report writes the split metrics, failing the run when the split leaves
// more than unattributedTolerance of the ops' wall time unexplained.
func (st *splitTotals) report(layers map[string]float64, check *checker) {
	for b, t := range st.backends {
		layers["engine.setup_ms."+b] = frac(ms(t.setup), t.ops)
		layers["workload.stream_ns_per_event."+b] = frac(float64(t.stream.Nanoseconds()), t.events)
		layers[b+".step_ns_per_event"] = frac(float64(t.step.Nanoseconds()), t.events)
		layers[b+".finish_ms"] = frac(ms(t.finish), t.ops)
	}
	c := st.backends["cplatch"]
	layers["ring.producer_stalls_per_mevent"] = frac(c.ringStalls*1e6, c.events)
	layers["ring.consumer_waits_per_mevent"] = frac(c.ringWaits*1e6, c.events)
	layers["ring.occupancy_mean"] = frac(c.ringOccSum, c.ringFlushes)
	layers["cplatch.flagged_frac"] = frac(c.flagged, c.events)
	st.counts.report(layers)
	u := frac(float64(st.unattributed), float64(st.wall))
	layers["trace.unattributed_frac"] = u
	if u > unattributedTolerance {
		check.fail("decorator split leaves %.4f of op wall time unattributed (tolerance %.2f)", u, unattributedTolerance)
	}
}

// decoratedRun runs one combo the way latch.Run does, with the backend
// wrapped in the timing decorator and a passive telemetry observer
// attached. A zero seed keeps the profile's calibrated seed.
func decoratedRun(c combo, seed int64, events uint64) (engine.Result, split, telemetry.Snapshot, error) {
	var sp split
	var snap telemetry.Snapshot
	p, err := workload.Get(c.profile)
	if err != nil {
		return nil, sp, snap, err
	}
	if seed != 0 {
		p.Seed = seed
	}
	sch, err := engine.Lookup(c.backend)
	if err != nil {
		return nil, sp, snap, err
	}
	b, timer, err := decorate(sch.New())
	if err != nil {
		return nil, sp, snap, err
	}
	if n := c.shards(); n > 0 {
		sb, ok := b.(engine.Sharded)
		if !ok {
			return nil, sp, snap, fmt.Errorf("backend %s does not support shards", c.backend)
		}
		if err := sb.SetShards(n); err != nil {
			return nil, sp, snap, err
		}
	}
	obs := telemetry.NewMetrics()
	timer.begin()
	res, err := engine.RunProfile(context.Background(), b, p, engine.RunOptions{Events: events, Observer: obs})
	sp = timer.end()
	return res, sp, obs.Snapshot(), err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
