package main

import (
	"time"

	"latch/internal/telemetry"
)

// phase is what one measured stretch of a workload produced.
type phase struct {
	ops, failed int
	wall        time.Duration
	latMS       []float64          // per-op latency
	layers      map[string]float64 // per-layer metrics (traced phases)
	details     details            // extra figures printed above the result
	gd          goDelta
}

func newPhase() phase {
	return phase{layers: make(map[string]float64), details: make(details)}
}

// record counts one completed op.
func (p *phase) record(lat time.Duration, ok bool) {
	p.ops++
	if !ok {
		p.failed++
	}
	p.latMS = append(p.latMS, float64(lat.Nanoseconds())/1e6)
}

// opsPerSec is the phase's completed ops per wall second.
func (p *phase) opsPerSec() float64 { return frac(float64(p.ops), p.wall.Seconds()) }

// cpuMSPerOp is the process CPU time per op.
func (p *phase) cpuMSPerOp() float64 { return frac(ms(p.gd.ProcCPU), float64(p.ops)) }

// coarseCounts is the part of a telemetry snapshot the latch.* metrics use.
type coarseCounts struct {
	events, checks, tlb, precise, ctcMisses, positives, falsePositives float64
}

// latchCounts sums simulated LATCH module counts per backend.
type latchCounts map[string]*coarseCounts

func newLatchCounts() latchCounts { return make(latchCounts) }

func (l latchCounts) add(backend string, events uint64, s telemetry.Snapshot) {
	c := l[backend]
	if c == nil {
		c = &coarseCounts{}
		l[backend] = c
	}
	c.events += float64(events)
	c.checks += float64(s.CoarseChecks)
	c.tlb += float64(s.ResolvedTLB)
	c.precise += float64(s.ResolvedPrecise)
	c.ctcMisses += float64(s.CTCMisses)
	c.positives += float64(s.CoarsePositives)
	c.falsePositives += float64(s.FalsePositives)
}

// report writes the latch.* metrics of every backend seen.
func (l latchCounts) report(layers map[string]float64) {
	for b, c := range l {
		layers["latch.checks_per_event."+b] = frac(c.checks, c.events)
		layers["latch.tlb_resolved_frac."+b] = frac(c.tlb, c.checks)
		layers["latch.ctc_miss_frac."+b] = frac(c.ctcMisses, c.checks)
		layers["latch.precise_frac."+b] = frac(c.precise, c.checks)
		layers["latch.false_positive_frac."+b] = frac(c.falsePositives, c.positives)
	}
}
