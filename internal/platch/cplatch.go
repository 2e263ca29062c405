// Concurrent P-LATCH ("cplatch"): the §5.2 two-core design made real. The
// analytic backend in this package models the commit-log FIFO and the
// monitor core with a queue simulation evaluated after the fact; this file
// runs them. The monitored core (the engine's driver, calling StepBatch)
// filters the commit stream through the shared LATCH policy and publishes
// every flagged instruction into a lock-free SPSC ring (internal/ring); one
// monitor goroutine — the monitor core — drains the ring and does the DIFT
// monitor's bookkeeping as each record arrives: the coarse taint table, the
// flagged-log digest, and the virtual-time FIFO occupancy/stall measurement
// the analytic model predicts.
//
// Determinism contract: everything in the result except the Ring field is
// a pure function of the event stream. The ring preserves commit order, so
// the monitor folds the flagged records into its digest in sequence order,
// exactly as a serial monitor would. The Ring field alone reports real,
// scheduling-dependent ring behavior and is excluded from result columns
// and from every determinism assertion.
package platch

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/ring"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "cplatch",
		Title: "Concurrent P-LATCH: lock-free two-core DIFT (§5.2 realized)",
		New:   func() engine.Backend { return NewConcurrent(DefaultConfig()) },
	})
}

// monEvent is the commit-log record published through the ring: the
// flagged instruction plus everything the monitor needs, precomputed on
// the producer side so the monitor never touches the shared Session state.
type monEvent struct {
	seq     uint64
	pc      uint32
	addr    uint32
	domain  uint32
	tainted bool
	pending bool // enqueued by the pending-update FIFO, not the coarse state
}

// Flagged is one entry of the monitor's flagged-event log. The log is not
// kept: the monitor folds each entry into ConcurrentResult.FlagDigest as it
// arrives. The type stays because ConcurrentResult.Flagged (always nil)
// keeps the result's JSON encoding stable for latchbench.
type Flagged struct {
	Seq     uint64
	PC      uint32
	Addr    uint32
	Domain  uint32
	Pending bool
}

// vqueue measures the monitor's FIFO in virtual time: arrivals at producer
// commit-sequence timestamps, service at a fixed rate, stalls when the
// bounded queue fills — the same discrete model queueSim evaluates
// analytically, executed incrementally by the monitor. Virtual time makes
// the measurement deterministic: it depends on the arrival sequence, never
// on goroutine scheduling.
type vqueue struct {
	depth   int
	service float64
	obs     telemetry.Observer

	ring        []float64 // completion times of in-flight entries
	head, count int
	push        float64 // accumulated producer stall delay
	srvEnd      float64
	stalls      uint64
	occMax      int
}

func newVQueue(depth int, service float64, obs telemetry.Observer) *vqueue {
	return &vqueue{depth: depth, service: service, obs: obs, ring: make([]float64, depth)}
}

// arrive admits the entry committed at sequence number seq (1-based
// producer clock), stalling the virtual producer if the queue is full.
func (q *vqueue) arrive(seq uint64) {
	now := float64(seq) + q.push
	for q.count > 0 && q.ring[q.head] <= now {
		q.head = (q.head + 1) % q.depth
		q.count--
	}
	if q.count == q.depth {
		if q.obs != nil {
			q.obs.QueueStall(q.count)
		}
		wait := q.ring[q.head] - now
		q.stalls++
		q.push += wait
		now = q.ring[q.head]
		q.head = (q.head + 1) % q.depth
		q.count--
	}
	if q.count+1 > q.occMax {
		q.occMax = q.count + 1
	}
	start := q.srvEnd
	if start < now {
		start = now
	}
	q.srvEnd = start + q.service
	q.ring[(q.head+q.count)%q.depth] = q.srvEnd
	q.count++
}

// overhead returns the fractional slowdown over native execution the
// queue imposed on a totalEvents-instruction run: producer stall time plus
// any monitor lag past the last commit.
func (q *vqueue) overhead(totalEvents uint64) float64 {
	if totalEvents == 0 {
		return 0
	}
	total := float64(totalEvents) + q.push
	if q.srvEnd > total {
		total = q.srvEnd
	}
	return total/float64(totalEvents) - 1
}

// monitor is the monitor core: its ring, its coarse taint table, the
// running flagged-log digest, and its queue measurements. Everything here
// is owned by the monitor goroutine until Finish joins it.
type monitor struct {
	ring    *ring.SPSC[monEvent]
	events  uint64
	digest  hash.Hash64 // FNV-1a over the Seq-ordered flagged records
	rec     [21]byte    // one flagged record's digest encoding
	domains map[uint32]struct{}
	qSimple *vqueue
	qOpt    *vqueue
	done    chan struct{} // closed when consume returns
}

// consume is the monitor loop: drain the ring in batches until the
// producer closes it.
func (m *monitor) consume() {
	defer close(m.done)
	buf := make([]monEvent, ring.DefaultBatch)
	for {
		n := m.ring.PopBatch(buf)
		if n == 0 {
			return
		}
		for _, ev := range buf[:n] {
			m.events++
			if ev.tainted {
				m.domains[ev.domain] = struct{}{}
			}
			putU64(m.rec[0:], ev.seq)
			putU32(m.rec[8:], ev.pc)
			putU32(m.rec[12:], ev.addr)
			putU32(m.rec[16:], ev.domain)
			m.rec[20] = 0
			if ev.pending {
				m.rec[20] = 1
			}
			m.digest.Write(m.rec[:])
			m.qSimple.arrive(ev.seq)
			m.qOpt.arrive(ev.seq)
		}
	}
}

// ShardStat is the monitor's deterministic measurement summary. The name
// and the one-entry ConcurrentResult.ShardStats slice are kept for
// latchbench compatibility (see engine.Sharded).
type ShardStat struct {
	Shard   int
	Events  uint64 // flagged events the monitor processed
	Domains int    // taint domains marked in the monitor's table

	OverheadSimple    float64
	OverheadOptimized float64
	StallsSimple      uint64
	StallsOptimized   uint64
	MaxDepthSimple    int
	MaxDepthOptimized int
}

// RingStats reports the real SPSC ring behavior. These numbers depend on
// goroutine scheduling; they are reported for observability and
// benchmarks and are excluded from result columns and every determinism
// contract.
type RingStats struct {
	Pushes         uint64
	Flushes        uint64
	ProducerStalls uint64
	ConsumerWaits  uint64
	OccupancySum   uint64
	OccupancyMax   uint64
}

// CycleTable is the deterministic cycle accounting of a concurrent run —
// the fields pinned byte-identical across runs.
type CycleTable struct {
	ActiveWindowFraction float64
	OverheadSimple       float64
	OverheadOptimized    float64
	EnqueuedFraction     float64
	Session              engine.Cycles
}

// ConcurrentResult is one benchmark's concurrent P-LATCH outcome. Shards
// is always 1, ShardStats has one entry and Flagged is nil: the fields
// stay so the result's JSON encoding, which latchbench digests, is
// unchanged (see engine.Sharded).
type ConcurrentResult struct {
	Benchmark string
	Events    uint64
	Shards    int

	// Producer-side analytic window model — byte-identical to the
	// analytic platch backend on the same stream.
	ActiveWindowFraction  float64
	OverheadSimple        float64
	OverheadOptimized     float64
	EnqueuedFraction      float64
	PendingExtraPositives uint64

	// Monitor state (deterministic).
	FlaggedEvents    uint64
	FlagDigest       uint64 // FNV-1a over the Seq-ordered flagged log
	MonitorDomains   int    // taint domains marked in the monitor's table
	MonitorTaintHash uint64 // FNV-1a over the sorted domain set
	Flagged          []Flagged

	// Virtual-time queue measurements (deterministic).
	QueueOverheadSimple    float64
	QueueOverheadOptimized float64
	StallsSimple           uint64
	StallsOptimized        uint64
	ShardStats             []ShardStat

	// Session cycle accounting (all zeros for P-LATCH: the cost model is
	// the queue), folded in so CycleTable pins the full table.
	SessionCycles engine.Cycles

	// Ring reports real, scheduling-dependent pipeline behavior.
	Ring RingStats
}

// BenchmarkName implements engine.Result.
func (r ConcurrentResult) BenchmarkName() string { return r.Benchmark }

// EventCount implements engine.Result.
func (r ConcurrentResult) EventCount() uint64 { return r.Events }

// CheckCount implements engine.Result; like the analytic backend, P-LATCH
// reports queue metrics, not check counts.
func (r ConcurrentResult) CheckCount() uint64 { return 0 }

// Columns implements engine.Result. Only deterministic fields appear: the
// registry-driven tables must be byte-identical run to run.
func (r ConcurrentResult) Columns() []engine.Column {
	return []engine.Column{
		{Label: "shards", Value: r.Shards},
		{Label: "active window frac", Value: r.ActiveWindowFraction},
		{Label: "overhead simple", Value: r.OverheadSimple},
		{Label: "overhead optimized", Value: r.OverheadOptimized},
		{Label: "enqueued frac", Value: r.EnqueuedFraction},
		{Label: "queue overhead simple", Value: r.QueueOverheadSimple},
	}
}

// CycleTable returns the deterministic cycle accounting pinned across runs.
func (r ConcurrentResult) CycleTable() CycleTable {
	return CycleTable{
		ActiveWindowFraction: r.ActiveWindowFraction,
		OverheadSimple:       r.OverheadSimple,
		OverheadOptimized:    r.OverheadOptimized,
		EnqueuedFraction:     r.EnqueuedFraction,
		Session:              r.SessionCycles,
	}
}

// cbackend is the concurrent backend: the producer-side policy state plus
// the monitor core.
type cbackend struct {
	cfg Config

	filt *filter
	win  windows
	mon  *monitor

	started  bool
	finished bool
	res      ConcurrentResult
}

// NewConcurrent builds an unstarted concurrent backend. The returned value
// serves exactly one run, like every engine.Backend. cfg.Events and
// cfg.Observer do not reach the backend: the run's RunOptions carry those.
func NewConcurrent(cfg Config) *cbackend {
	return &cbackend{cfg: cfg}
}

var (
	_ engine.Backend = (*cbackend)(nil)
	_ engine.Sharded = (*cbackend)(nil)
)

// Name implements engine.Backend.
func (b *cbackend) Name() string { return "cplatch" }

// Config implements engine.Backend.
func (b *cbackend) Config() latch.Config { return b.cfg.Latch }

// SetShards implements engine.Sharded. There is one monitor core, so 1 is
// the only count it accepts.
func (b *cbackend) SetShards(n int) error {
	if n != 1 {
		return fmt.Errorf("cplatch: one monitor core; shard count %d is not supported", n)
	}
	return nil
}

// Init implements engine.Backend: validate the queue geometry, then start
// the monitor goroutine.
func (b *cbackend) Init(s *engine.Session) error {
	if b.started {
		return fmt.Errorf("cplatch: backend reused; one instance serves one run")
	}
	if b.cfg.QueueDepth < 1 {
		return fmt.Errorf("cplatch: queue depth %d < 1", b.cfg.QueueDepth)
	}
	b.filt = newFilter(b.cfg.PendingEntries, b.cfg.PendingLagInstrs)
	b.win = windows{size: b.cfg.WindowInstrs}
	b.mon = &monitor{
		ring:    ring.MustNew[monEvent](ring.DefaultCapacity, ring.DefaultBatch),
		digest:  fnv.New64a(),
		domains: make(map[uint32]struct{}),
		qSimple: newVQueue(b.cfg.QueueDepth, 1+b.cfg.SimpleLBAOverhead, s.Observer),
		qOpt:    newVQueue(b.cfg.QueueDepth, 1+b.cfg.OptimizedLBAOverhead, s.Observer),
		done:    make(chan struct{}),
	}
	go b.mon.consume()
	b.started = true
	return nil
}

// StepBatch implements engine.Backend: run the shared enqueue policy on the
// monitored core, then publish flagged instructions to the monitor's ring.
// Steady-state cost on the producer side is the coarse check plus one ring
// slot write per flagged event — no allocation, no locks. Sequence numbers
// come from s.Events, so the cursor advances before each event.
func (b *cbackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		ev := &evs[i]
		s.Events++
		enq, viaPending := b.filt.decide(s, *ev)
		b.win.step(ev.Tainted)
		if !enq {
			continue
		}
		b.mon.ring.Push(monEvent{
			seq:     s.Events,
			pc:      ev.PC,
			addr:    ev.Addr,
			domain:  s.Shadow.DomainIndex(ev.Addr),
			tainted: ev.Tainted,
			pending: viaPending,
		})
	}
}

// Finish implements engine.Backend: close the ring, join the monitor, and
// assemble the result. Finish is idempotent — call sites that finalize
// defensively (the differential checker finalizes from a deferred call)
// get the memoized result.
func (b *cbackend) Finish(s *engine.Session) engine.Result {
	if b.finished {
		return b.res
	}
	b.finished = true
	b.mon.ring.Close()
	<-b.mon.done
	b.res = b.result(s)
	return b.res
}

// result reads the quiescent monitor state into the run's result.
func (b *cbackend) result(s *engine.Session) ConcurrentResult {
	m := b.mon
	res := ConcurrentResult{
		Benchmark:             s.Profile.Name,
		Events:                s.Events,
		Shards:                1,
		ActiveWindowFraction:  b.win.fraction(),
		PendingExtraPositives: b.filt.pendingExtra,
		FlaggedEvents:         m.events,
		FlagDigest:            m.digest.Sum64(),
		MonitorDomains:        len(m.domains),
		SessionCycles:         s.CycleReport(),
	}
	res.OverheadSimple = res.ActiveWindowFraction * b.cfg.SimpleLBAOverhead
	res.OverheadOptimized = res.ActiveWindowFraction * b.cfg.OptimizedLBAOverhead
	if s.Events > 0 {
		res.EnqueuedFraction = float64(b.filt.positives) / float64(s.Events)
	}

	domains := make([]uint32, 0, len(m.domains))
	for d := range m.domains {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	dh := fnv.New64a()
	for _, d := range domains {
		putU32(m.rec[0:], d)
		dh.Write(m.rec[:4])
	}
	res.MonitorTaintHash = dh.Sum64()

	st := ShardStat{
		Events:            m.events,
		Domains:           len(m.domains),
		OverheadSimple:    m.qSimple.overhead(s.Events),
		OverheadOptimized: m.qOpt.overhead(s.Events),
		StallsSimple:      m.qSimple.stalls,
		StallsOptimized:   m.qOpt.stalls,
		MaxDepthSimple:    m.qSimple.occMax,
		MaxDepthOptimized: m.qOpt.occMax,
	}
	res.ShardStats = []ShardStat{st}
	res.QueueOverheadSimple, res.QueueOverheadOptimized = st.OverheadSimple, st.OverheadOptimized
	res.StallsSimple, res.StallsOptimized = st.StallsSimple, st.StallsOptimized

	rs := m.ring.Stats()
	res.Ring = RingStats{
		Pushes:         rs.Pushes,
		Flushes:        rs.Flushes,
		ProducerStalls: rs.ProducerStalls,
		ConsumerWaits:  rs.ConsumerWaits,
		OccupancySum:   rs.OccupancySum,
		OccupancyMax:   rs.OccupancyMax,
	}
	return res
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// RunConcurrent evaluates one benchmark under the concurrent backend,
// reporting telemetry to cfg.Observer when set.
func RunConcurrent(p workload.Profile, cfg Config) (ConcurrentResult, error) {
	res, err := engine.RunProfile(context.Background(), NewConcurrent(cfg), p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return ConcurrentResult{}, err
	}
	return res.(ConcurrentResult), nil
}
