// Concurrent P-LATCH ("cplatch"): the §5.2 two-core design made real. The
// analytic backend in this package models the commit-log FIFO and the
// monitor core with a queue simulation evaluated after the fact; this file
// runs them. The monitored core (the engine's driver, calling StepBatch)
// filters the commit stream through the shared LATCH policy and publishes
// every flagged instruction into a lock-free SPSC ring (internal/ring); N
// monitor shards — one consumer goroutine each, partitioned by coarse
// taint domain — drain their rings concurrently and perform the DIFT
// monitor's bookkeeping: the per-shard coarse taint table, the flagged-
// event log, and the virtual-time FIFO occupancy/stall measurement the
// analytic model predicts.
//
// Determinism contract: everything in the result except the Ring field is
// a pure function of the event stream and the shard count, and everything
// in the deterministic core (CycleTable, the merged flagged log, the
// monitor taint hash) is additionally independent of the shard count —
// shard-local state is partitioned by taint domain, and the merge step
// orders cross-shard entries by commit sequence number, reproducing the
// serial order exactly. The Ring field alone reports real, scheduling-
// dependent ring behavior and is excluded from result columns and from
// every determinism assertion.
package platch

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

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
		Title: "Concurrent P-LATCH: sharded lock-free two-core DIFT (§5.2 realized)",
		New:   func() engine.Backend { return NewConcurrent(DefaultConcurrentConfig()) },
	})
}

// ConcurrentConfig parameterizes the concurrent backend. The embedded
// analytic Config supplies the LATCH geometry, the window model, the
// pending-update FIFO, and the queue depth/service rates; the fields here
// size the real pipeline.
type ConcurrentConfig struct {
	Config

	// Shards is the number of monitor shards (consumer goroutines), each
	// owning the taint domains congruent to its index modulo Shards.
	Shards int

	// RingCapacity is the per-shard SPSC ring size in events (a power of
	// two); RingBatch is the producer's publish granularity.
	RingCapacity int
	RingBatch    int

	// KeepFlagged retains the merged flagged-event log in the result.
	// Off by default: results are memoized by the experiment harness and
	// the log grows with the stream; the FlagDigest always summarizes it.
	KeepFlagged bool
}

// DefaultConcurrentConfig returns the registered backend's configuration:
// the paper's P-LATCH parameters over a 4-shard monitor.
func DefaultConcurrentConfig() ConcurrentConfig {
	return ConcurrentConfig{
		Config:       DefaultConfig(),
		Shards:       4,
		RingCapacity: 1024,
		RingBatch:    64,
	}
}

// monEvent is the commit-log record published through a shard's ring: the
// flagged instruction plus everything the monitor needs, precomputed on
// the producer side so shards never touch the shared Session state.
type monEvent struct {
	seq     uint64
	pc      uint32
	addr    uint32
	domain  uint32
	write   bool
	tainted bool
	pending bool // enqueued by the pending-update FIFO, not the coarse state
}

// Flagged is one entry of the monitor's merged flagged-event log, ordered
// by commit sequence number — the concurrent backend's violation-candidate
// log, identical for every shard count.
type Flagged struct {
	Seq     uint64
	PC      uint32
	Addr    uint32
	Domain  uint32
	Pending bool
}

// vqueue measures one shard's FIFO in virtual time: arrivals at producer
// commit-sequence timestamps, service at a fixed rate, stalls when the
// bounded queue fills — the same discrete model queueSim evaluates
// analytically, executed incrementally by the consuming shard. Virtual
// time makes the measurement deterministic: it depends on the arrival
// sequence, never on goroutine scheduling.
type vqueue struct {
	depth   int
	service float64
	obs     telemetry.Observer

	ring        []float64 // completion times of in-flight entries
	head, count int
	push        float64 // accumulated producer stall delay
	srvEnd      float64
	stalls      uint64
	stallCycles float64
	occSum      uint64
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
		q.stallCycles += wait
		q.push += wait
		now = q.ring[q.head]
		q.head = (q.head + 1) % q.depth
		q.count--
	}
	q.occSum += uint64(q.count)
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

// overhead returns the fractional slowdown over native execution this
// shard's queue imposed on a totalEvents-instruction run: producer stall
// time plus any monitor lag past the last commit.
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

// shardState is one monitor shard: its ring, its partition of the coarse
// taint table, its slice of the flagged log, and its queue measurements.
// Everything here is owned by the shard's consumer goroutine until the
// merge step joins it.
type shardState struct {
	ring    *ring.SPSC[monEvent]
	events  uint64
	flagged []Flagged
	domains map[uint32]struct{}
	qSimple *vqueue
	qOpt    *vqueue
}

// consume is the shard's monitor loop: drain the ring in batches until the
// producer closes it.
func (sh *shardState) consume(batchSize int) {
	buf := make([]monEvent, batchSize)
	for {
		n := sh.ring.PopBatch(buf)
		if n == 0 {
			return
		}
		for _, ev := range buf[:n] {
			sh.events++
			if ev.tainted {
				sh.domains[ev.domain] = struct{}{}
			}
			sh.flagged = append(sh.flagged, Flagged{
				Seq: ev.seq, PC: ev.pc, Addr: ev.addr, Domain: ev.domain, Pending: ev.pending,
			})
			sh.qSimple.arrive(ev.seq)
			sh.qOpt.arrive(ev.seq)
		}
	}
}

// ShardStat is one shard's deterministic measurement summary.
type ShardStat struct {
	Shard   int
	Events  uint64 // flagged events routed to this shard
	Domains int    // taint domains marked in this shard's table

	OverheadSimple    float64
	OverheadOptimized float64
	StallsSimple      uint64
	StallsOptimized   uint64
	MaxDepthSimple    int
	MaxDepthOptimized int
}

// RingStats aggregates the real SPSC ring behavior across shards. These
// numbers depend on goroutine scheduling; they are reported for
// observability and benchmarks and are excluded from result columns and
// every determinism contract.
type RingStats struct {
	Pushes         uint64
	Flushes        uint64
	ProducerStalls uint64
	ConsumerWaits  uint64
	OccupancySum   uint64
	OccupancyMax   uint64
}

// CycleTable is the deterministic cycle accounting of a concurrent run —
// the fields pinned byte-identical across runs and shard counts.
type CycleTable struct {
	ActiveWindowFraction float64
	OverheadSimple       float64
	OverheadOptimized    float64
	EnqueuedFraction     float64
	Session              engine.Cycles
}

// ConcurrentResult is one benchmark's concurrent P-LATCH outcome.
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

	// Merged monitor state (deterministic, shard-count-independent).
	FlaggedEvents    uint64
	FlagDigest       uint64 // FNV-1a over the Seq-ordered merged flagged log
	MonitorDomains   int    // taint domains marked across all shard tables
	MonitorTaintHash uint64 // FNV-1a over the sorted merged domain set
	Flagged          []Flagged

	// Virtual-time queue measurements (deterministic at a fixed shard
	// count; the makespan is the slowest shard).
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

// CycleTable returns the deterministic cycle accounting pinned across runs
// and shard counts.
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
// the shard fan-out.
type cbackend struct {
	cfg ConcurrentConfig

	filt   *filter
	win    windows
	shards []*shardState
	wg     sync.WaitGroup

	started  bool
	finished bool
	res      ConcurrentResult
}

// NewConcurrent builds an unstarted concurrent backend. The returned value
// serves exactly one run, like every engine.Backend.
func NewConcurrent(cfg ConcurrentConfig) *cbackend {
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

// SetShards implements engine.Sharded.
func (b *cbackend) SetShards(n int) error {
	if b.started {
		return fmt.Errorf("cplatch: SetShards after Init")
	}
	if n < 1 {
		return fmt.Errorf("cplatch: shard count %d < 1", n)
	}
	b.cfg.Shards = n
	return nil
}

// Init implements engine.Backend: validate the geometry, then start one
// consumer goroutine per shard.
func (b *cbackend) Init(s *engine.Session) error {
	if b.started {
		return fmt.Errorf("cplatch: backend reused; one instance serves one run")
	}
	if b.cfg.Shards < 1 {
		return fmt.Errorf("cplatch: shard count %d < 1", b.cfg.Shards)
	}
	b.filt = newFilter(b.cfg.PendingEntries, b.cfg.PendingLagInstrs)
	b.win = windows{size: b.cfg.WindowInstrs}
	simpleService := 1 + b.cfg.SimpleLBAOverhead
	optService := 1 + b.cfg.OptimizedLBAOverhead
	b.shards = make([]*shardState, b.cfg.Shards)
	for i := range b.shards {
		r, err := ring.New[monEvent](b.cfg.RingCapacity, b.cfg.RingBatch)
		if err != nil {
			return fmt.Errorf("cplatch: %w", err)
		}
		sh := &shardState{
			ring:    r,
			domains: make(map[uint32]struct{}),
			qSimple: newVQueue(b.cfg.QueueDepth, simpleService, s.Observer),
			qOpt:    newVQueue(b.cfg.QueueDepth, optService, s.Observer),
		}
		b.shards[i] = sh
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			sh.consume(b.cfg.RingBatch)
		}()
	}
	b.started = true
	return nil
}

// StepBatch implements engine.Backend: run the shared enqueue policy on the
// monitored core, then publish flagged instructions to the owning shard's
// ring. Steady-state cost on the producer side is the coarse check plus
// one ring slot write per flagged event — no allocation, no locks. Shard
// sequence numbers come from s.Events, so the cursor advances before each
// event.
func (b *cbackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		ev := &evs[i]
		s.Events++
		enq, viaPending := b.filt.decide(s, *ev)
		b.win.step(ev.Tainted)
		if !enq {
			continue
		}
		domain := s.Shadow.DomainIndex(ev.Addr)
		b.shards[int(domain)%len(b.shards)].ring.Push(monEvent{
			seq:     s.Events,
			pc:      ev.PC,
			addr:    ev.Addr,
			domain:  domain,
			write:   ev.IsWrite,
			tainted: ev.Tainted,
			pending: viaPending,
		})
	}
}

// Finish implements engine.Backend: close the rings, join the shards, and
// merge their state deterministically. Finish is idempotent — call sites
// that finalize defensively (the differential checker finalizes from a
// deferred call) get the memoized result.
func (b *cbackend) Finish(s *engine.Session) engine.Result {
	if b.finished {
		return b.res
	}
	b.finished = true
	for _, sh := range b.shards {
		sh.ring.Close()
	}
	b.wg.Wait()
	b.res = b.merge(s)
	if !b.cfg.KeepFlagged {
		b.res.Flagged = nil
	}
	return b.res
}

// merge joins the quiescent shard states into the run's result. Cross-
// shard order is reimposed by commit sequence number, so the merged log —
// and every digest over it — is identical to a serial monitor's.
func (b *cbackend) merge(s *engine.Session) ConcurrentResult {
	res := ConcurrentResult{
		Benchmark:             s.Profile.Name,
		Events:                s.Events,
		Shards:                len(b.shards),
		ActiveWindowFraction:  b.win.fraction(),
		PendingExtraPositives: b.filt.pendingExtra,
		SessionCycles:         s.CycleReport(),
	}
	res.OverheadSimple = res.ActiveWindowFraction * b.cfg.SimpleLBAOverhead
	res.OverheadOptimized = res.ActiveWindowFraction * b.cfg.OptimizedLBAOverhead
	if s.Events > 0 {
		res.EnqueuedFraction = float64(b.filt.positives) / float64(s.Events)
	}

	// Seq-ordered k-way merge of the shard logs. Each shard's slice is
	// already ascending (rings preserve order; one event per sequence
	// number), so repeatedly taking the smallest head reproduces the
	// serial commit order.
	total := 0
	for _, sh := range b.shards {
		total += len(sh.flagged)
	}
	merged := make([]Flagged, 0, total)
	idx := make([]int, len(b.shards))
	for len(merged) < total {
		best := -1
		for i, sh := range b.shards {
			if idx[i] >= len(sh.flagged) {
				continue
			}
			if best < 0 || sh.flagged[idx[i]].Seq < b.shards[best].flagged[idx[best]].Seq {
				best = i
			}
		}
		merged = append(merged, b.shards[best].flagged[idx[best]])
		idx[best]++
	}
	res.Flagged = merged
	res.FlaggedEvents = uint64(total)

	h := fnv.New64a()
	var rec [21]byte
	for _, f := range merged {
		putU64(rec[0:], f.Seq)
		putU32(rec[8:], f.PC)
		putU32(rec[12:], f.Addr)
		putU32(rec[16:], f.Domain)
		rec[20] = 0
		if f.Pending {
			rec[20] = 1
		}
		h.Write(rec[:])
	}
	res.FlagDigest = h.Sum64()

	// Union of the per-shard coarse taint tables. Domains partition across
	// shards, so the union is a disjoint one and its digest is independent
	// of the shard count.
	var domains []uint32
	for _, sh := range b.shards {
		for d := range sh.domains {
			domains = append(domains, d)
		}
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	dh := fnv.New64a()
	for _, d := range domains {
		putU32(rec[0:], d)
		dh.Write(rec[:4])
	}
	res.MonitorDomains = len(domains)
	res.MonitorTaintHash = dh.Sum64()

	res.ShardStats = make([]ShardStat, len(b.shards))
	for i, sh := range b.shards {
		st := ShardStat{
			Shard:             i,
			Events:            sh.events,
			Domains:           len(sh.domains),
			OverheadSimple:    sh.qSimple.overhead(s.Events),
			OverheadOptimized: sh.qOpt.overhead(s.Events),
			StallsSimple:      sh.qSimple.stalls,
			StallsOptimized:   sh.qOpt.stalls,
			MaxDepthSimple:    sh.qSimple.occMax,
			MaxDepthOptimized: sh.qOpt.occMax,
		}
		res.ShardStats[i] = st
		res.StallsSimple += st.StallsSimple
		res.StallsOptimized += st.StallsOptimized
		if st.OverheadSimple > res.QueueOverheadSimple {
			res.QueueOverheadSimple = st.OverheadSimple
		}
		if st.OverheadOptimized > res.QueueOverheadOptimized {
			res.QueueOverheadOptimized = st.OverheadOptimized
		}

		rs := sh.ring.Stats()
		res.Ring.Pushes += rs.Pushes
		res.Ring.Flushes += rs.Flushes
		res.Ring.ProducerStalls += rs.ProducerStalls
		res.Ring.ConsumerWaits += rs.ConsumerWaits
		res.Ring.OccupancySum += rs.OccupancySum
		if rs.OccupancyMax > res.Ring.OccupancyMax {
			res.Ring.OccupancyMax = rs.OccupancyMax
		}
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
func RunConcurrent(p workload.Profile, cfg ConcurrentConfig) (ConcurrentResult, error) {
	res, err := engine.RunProfile(context.Background(), NewConcurrent(cfg), p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return ConcurrentResult{}, err
	}
	return res.(ConcurrentResult), nil
}
