package main

import (
	"fmt"
	"time"

	"latch/internal/engine"
	"latch/internal/experiments"
	latchcore "latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/trace"
	"latch/internal/workload"
)

const (
	// probeEvents is the stream length of one generator probe.
	probeEvents = 200_000
	// probeReps is how often each probe repeats; the median is reported.
	probeReps = 3
)

// probeProfiles measures the workload layer per profile, outside any
// backend: materializing the profile's taint layout into a fresh session's
// shadow memory, and generating its event stream into a counting sink.
func probeProfiles(layers map[string]float64) error {
	for _, name := range benchProfiles {
		p, err := workload.Get(name)
		if err != nil {
			return err
		}
		var matMS, genNS []float64
		var tainted uint64
		for i := 0; i < probeReps; i++ {
			s, err := engine.NewSession(latchcore.DefaultConfig())
			if err != nil {
				return err
			}
			t0 := time.Now()
			g, err := workload.NewSampledGeneratorOn(p, s.Shadow, policy.Sampling{})
			if err != nil {
				return err
			}
			matMS = append(matMS, ms(time.Since(t0)))
			tainted = s.Shadow.TaintedBytes()
			var n uint64
			t1 := time.Now()
			g.Run(probeEvents, trace.SinkFunc(func(trace.Event) { n++ }))
			genNS = append(genNS, float64(time.Since(t1).Nanoseconds())/float64(probeEvents))
			if n != probeEvents {
				return fmt.Errorf("probe %s: generator emitted %d of %d events", name, n, probeEvents)
			}
		}
		layers["workload.materialize_ms."+name] = median(matMS)
		layers["workload.generate_ns_per_event."+name] = median(genNS)
		layers["shadow.tainted_bytes."+name] = float64(tainted)
	}
	return nil
}

// serveProbeDuration is how long the serve probe sends requests.
const serveProbeDuration = time.Second

// layerProbe measures one group of per-layer metrics outside the workload,
// for the traced runs of workloads that do not drive those layers.
type layerProbe struct {
	metrics func() []metricDef
	run     func(e *env, layers map[string]float64) error
}

var layerProbes = []layerProbe{
	{splitMetrics, probeBackends},
	{catalogMetrics, probeCatalog},
	{serveMetrics, probeServe},
}

// probeBackends runs every backend over every profile for a /v1/run-sized
// stream through the timing decorator, checking each result against its
// recorded digest.
func probeBackends(e *env, layers map[string]float64) error {
	st := newSplitTotals()
	for _, c := range combos(defaultSeed) {
		res, sp, snap, err := decoratedRun(c, 0, serveRunEvents)
		if err != nil {
			return fmt.Errorf("backend probe %s/%s: %w", c.backend, c.profile, err)
		}
		key := serveRunKey(c)
		if !e.check.requireRecorded(key) || !e.check.check(key, resultDigest(res)) {
			return fmt.Errorf("backend probe %s/%s does not match its recorded digest", c.backend, c.profile)
		}
		st.add(c.backend, res, sp, snap)
	}
	st.report(layers, e.check)
	return nil
}

// probeCatalog regenerates the catalog once at the set-up's shortened run
// lengths and reports its job accounting.
func probeCatalog(e *env, layers map[string]float64) error {
	r := experiments.NewRunner(newPaperCatalog(e).options(catalogWarmDivisor))
	t0 := time.Now()
	for _, ex := range experiments.Catalog {
		if _, err := ex.Run(r); err != nil {
			return fmt.Errorf("catalog probe %s: %w", ex.ID, err)
		}
	}
	jt := newJobTotals()
	jt.add(r, time.Since(t0), e.check)
	jt.report(layers)
	return nil
}

// probeServe starts a server and drives it for serveProbeDuration, with
// every request checked against the library path.
func probeServe(e *env, layers map[string]float64) error {
	s := newServeMixed(e)
	defer s.close()
	if err := s.setUp(); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	ph := s.run(time.Now().Add(serveProbeDuration), true)
	if ph.failed > 0 {
		return fmt.Errorf("serve probe: %d of %d pairs failed", ph.failed, ph.ops)
	}
	for k, v := range ph.layers {
		layers[k] = v
	}
	return nil
}
