package platch

// This file measures the concurrent P-LATCH pipeline and writes the
// committed perf artifact BENCH_cplatch.json: the serial analytic backend
// against the concurrent pipeline on a low-flag and two high-flag streams,
// plus the producer-side StepBatch cost. It is a no-op unless
// -cplatch-bench-out is given (`make bench` passes it), so the normal test
// run stays fast.

import (
	"encoding/json"
	"flag"
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
// in isolation: real filter, window model, and ring, but no monitor
// goroutine — the measuring goroutine drains the ring itself, so an
// allocation measurement sees the producer path alone.
type producerHarness struct {
	b     *cbackend
	s     *engine.Session
	evs   []trace.Event
	drain []monEvent
}

func newProducerHarness(tb testing.TB) *producerHarness {
	tb.Helper()
	cfg := DefaultConfig()
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
	b.mon = &monitor{ring: ring.MustNew[monEvent](4096, ring.DefaultBatch)}
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
	h.b.mon.ring.Flush()
	for h.b.mon.ring.Len() > 0 {
		h.b.mon.ring.PopBatch(h.drain)
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

// benchProfiles are the streams BENCH_cplatch.json reports: apache flags
// ~2% of its events to the monitor, sphinx3 ~14% and astar ~22%, the
// high-flag streams where a monitor bottleneck would show.
var benchProfiles = []string{"apache", "sphinx3", "astar"}

// BenchmarkCPlatch times the whole pipeline — producer, ring and monitor —
// over each benchmark stream.
func BenchmarkCPlatch(b *testing.B) {
	for _, name := range benchProfiles {
		p := workload.MustGet(name)
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Events = uint64(b.N)
			if _, err := RunConcurrent(p, cfg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

type cplatchProfileEntry struct {
	Profile          string  `json:"profile"`
	FlaggedFraction  float64 `json:"flagged_fraction"`
	NsPerEvent       float64 `json:"ns_per_event"`
	SerialNsPerEvent float64 `json:"serial_platch_ns_per_event"`
}

// nsPerEvent times run over a stream of events.
func nsPerEvent(events uint64, run func() error) (float64, error) {
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = run()
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N) / float64(events), err
}

// TestWriteCPlatchBench writes BENCH_cplatch.json: producer StepBatch cost
// and allocation count, then for each benchmark stream the flagged
// fraction, the concurrent pipeline's cost and the serial analytic pass's
// cost over the same stream. The zero steady-state producer-side
// allocation bar rides along.
func TestWriteCPlatchBench(t *testing.T) {
	if *cplatchBenchOut == "" {
		t.Skip("no -cplatch-bench-out path")
	}
	const events = 400_000

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

	cfg := DefaultConfig()
	cfg.Events = events
	var entries []cplatchProfileEntry
	for _, name := range benchProfiles {
		p := workload.MustGet(name)
		var last ConcurrentResult
		ns, err := nsPerEvent(events, func() (err error) {
			last, err = RunConcurrent(p, cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		serialNs, err := nsPerEvent(events, func() error {
			_, err := Run(p, cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, cplatchProfileEntry{
			Profile:          name,
			FlaggedFraction:  float64(last.FlaggedEvents) / float64(last.Events),
			NsPerEvent:       ns,
			SerialNsPerEvent: serialNs,
		})
	}

	report := struct {
		Events            uint64                `json:"events"`
		ProducerNsPerStep float64               `json:"producer_ns_per_event"`
		ProducerAllocs    float64               `json:"producer_allocs_per_batch"`
		Profiles          []cplatchProfileEntry `json:"profiles"`
	}{events, prodNs, allocs, entries}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*cplatchBenchOut, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
