package platch

// This file measures the concurrent P-LATCH pipeline and writes the
// committed perf artifact BENCH_cplatch.json: the serial analytic backend
// against the concurrent backend at 1/2/4/8 monitor shards, plus the
// producer-side StepBatch cost. It is a no-op unless -cplatch-bench-out is
// given (`make bench` passes it), so the normal test run stays fast.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"latch/internal/engine"
	"latch/internal/ring"
	"latch/internal/shadow"
	"latch/internal/trace"
	"latch/internal/workload"
)

var cplatchBenchOut = flag.String("cplatch-bench-out", "", "write the concurrent P-LATCH benchmark JSON artifact to this path")

// producerHarness builds the monitored-core half of the concurrent backend
// in isolation: real filter, window model, and ring, but no consumer
// goroutines — the measuring goroutine drains the ring itself, so an
// allocation measurement sees the producer path alone.
type producerHarness struct {
	b     *cbackend
	s     *engine.Session
	evs   []trace.Event
	drain []monEvent
}

func newProducerHarness(tb testing.TB) *producerHarness {
	tb.Helper()
	cfg := DefaultConcurrentConfig()
	s, err := engine.NewSession(cfg.Latch)
	if err != nil {
		tb.Fatal(err)
	}
	// Taint a small region so the coarse check flags its accesses: the
	// flagged path (ring push included) is the expensive one.
	base := uint32(0x10000)
	for a := base; a < base+256; a++ {
		s.Shadow.Set(a, shadow.MustLabel(0))
	}
	b := &cbackend{cfg: cfg}
	b.filt = newFilter(cfg.PendingEntries, cfg.PendingLagInstrs)
	b.win = windows{size: cfg.WindowInstrs}
	b.shards = []*shardState{{ring: ring.MustNew[monEvent](4096, cfg.RingBatch)}}
	evs := make([]trace.Event, 512)
	for i := range evs {
		ev := trace.Event{PC: uint32(0x1000 + 4*i), IsMem: true, Size: 4}
		switch i % 4 {
		case 0: // flagged load
			ev.Addr = base + uint32(i)%256
			ev.Tainted = true
		case 1: // flagged store (exercises the pending-update FIFO)
			ev.Addr = base + uint32(i)%256
			ev.IsWrite = true
			ev.Tainted = true
		default: // clean access: the filter's fast path
			ev.Addr = uint32(0x40000) + uint32(i*64)
		}
		evs[i] = ev
	}
	return &producerHarness{b: b, s: s, evs: evs, drain: make([]monEvent, 4096)}
}

// step streams the prepared events through the producer-side StepBatch
// once and drains the ring in place. Everything it calls is
// allocation-free in steady state.
func (h *producerHarness) step() {
	h.b.StepBatch(h.s, h.evs)
	h.b.shards[0].ring.Flush()
	for h.b.shards[0].ring.Len() > 0 {
		h.b.shards[0].ring.PopBatch(h.drain)
	}
}

// TestProducerStepZeroAllocs pins the monitored-core hot path: once warm,
// the concurrent backend's StepBatch — coarse check, pending FIFO, window
// accounting, ring publish — performs zero heap allocations per event.
// This is the always-on half of the BENCH_cplatch.json acceptance bar.
func TestProducerStepZeroAllocs(t *testing.T) {
	h := newProducerHarness(t)
	h.step() // warm caches, maps, and the window accumulator
	if avg := testing.AllocsPerRun(50, h.step); avg != 0 {
		t.Fatalf("producer-side StepBatch allocates %.2f times per %d events, want 0", avg, len(h.evs))
	}
}

func BenchmarkCPlatchProducerStep(b *testing.B) {
	h := newProducerHarness(b)
	h.step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}

// BenchmarkCPlatchApache sweeps the shard axis over the apache stream; the
// serial analytic backend is the baseline the sweep is read against.
func BenchmarkCPlatchApache(b *testing.B) {
	p := workload.MustGet("apache")
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConcurrentConfig()
			cfg.Events = uint64(b.N)
			cfg.Shards = shards
			if _, err := RunConcurrent(p, cfg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

type cplatchShardEntry struct {
	Shards              int     `json:"shards"`
	NsPerEvent          float64 `json:"ns_per_event"`
	SpeedupVsSerial     float64 `json:"speedup_vs_serial_platch"`
	FlaggedEvents       uint64  `json:"flagged_events"`
	QueueOverheadSimple float64 `json:"queue_overhead_simple"`
	RingProducerStalls  uint64  `json:"ring_producer_stalls"`
	RingOccupancyMax    uint64  `json:"ring_occupancy_max"`
}

// TestWriteCPlatchBench writes BENCH_cplatch.json: producer StepBatch cost and
// allocation count, the serial analytic pass, and the 1/2/4/8-shard
// concurrent sweep over the same stream. The acceptance bars ride along:
// zero steady-state producer-side allocations, and an equal flagged-event
// count at every shard count.
func TestWriteCPlatchBench(t *testing.T) {
	if *cplatchBenchOut == "" {
		t.Skip("no -cplatch-bench-out path")
	}
	const events = 400_000
	p := workload.MustGet("apache")

	h := newProducerHarness(t)
	h.step()
	allocs := testing.AllocsPerRun(50, h.step)
	prodRes := testing.Benchmark(BenchmarkCPlatchProducerStep)
	prodNs := 0.0
	if prodRes.N > 0 {
		prodNs = float64(prodRes.T.Nanoseconds()) / float64(prodRes.N) / float64(len(h.evs))
	}
	if allocs != 0 {
		t.Errorf("producer-side StepBatch allocates %.2f times per %d events, want 0", allocs, len(h.evs))
	}

	acfg := DefaultConfig()
	acfg.Events = events
	serialRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(p, acfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	serialNs := float64(serialRes.T.Nanoseconds()) / float64(serialRes.N) / float64(events)

	var sweep []cplatchShardEntry
	var flagged uint64
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := DefaultConcurrentConfig()
		cfg.Events = events
		cfg.Shards = shards
		var last ConcurrentResult
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunConcurrent(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
		})
		ns := float64(res.T.Nanoseconds()) / float64(res.N) / float64(events)
		if flagged == 0 {
			flagged = last.FlaggedEvents
		} else if last.FlaggedEvents != flagged {
			t.Errorf("shards=%d flagged %d events, want %d", shards, last.FlaggedEvents, flagged)
		}
		sweep = append(sweep, cplatchShardEntry{
			Shards:              shards,
			NsPerEvent:          ns,
			SpeedupVsSerial:     serialNs / ns,
			FlaggedEvents:       last.FlaggedEvents,
			QueueOverheadSimple: last.QueueOverheadSimple,
			RingProducerStalls:  last.Ring.ProducerStalls,
			RingOccupancyMax:    last.Ring.OccupancyMax,
		})
	}

	report := struct {
		Events            uint64              `json:"events"`
		ProducerNsPerStep float64             `json:"producer_ns_per_event"`
		ProducerAllocs    float64             `json:"producer_allocs_per_batch"`
		SerialNsPerEvent  float64             `json:"serial_platch_ns_per_event"`
		Sweep             []cplatchShardEntry `json:"shard_sweep"`
	}{events, prodNs, allocs, serialNs, sweep}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*cplatchBenchOut, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
