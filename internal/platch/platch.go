// Package platch implements P-LATCH (§5.2): LATCH-filtered parallel software
// DIFT in the style of the Log-Based Architecture (LBA). A monitored core
// extracts committed instructions into a shared FIFO; a second core runs the
// DIFT analysis over the log. Without filtering, the queue saturates and the
// monitored core stalls at the monitor's service rate; with the LATCH module
// enqueueing only instructions the coarse taint state flags, the queue is
// empty for long stretches and both cores run freely.
//
// Two models are provided, matching the paper's methodology (§6.2):
//
//   - the analytical window model the paper uses for Figure 15: LBA's
//     reported overhead is charged only during 1000-instruction windows that
//     contain coarse-positive activity;
//
//   - a discrete queue simulation (producer / bounded FIFO / consumer) as a
//     finer-grained cross-check, which also reproduces the baseline LBA
//     overheads from first principles.
//
// The scheme is an engine.Backend over the shared Session; this package
// contributes the filtering policy, the window accounting, and the queue
// models. It registers itself with the engine under the name "platch".
package platch

import (
	"context"
	"fmt"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/pool"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

func init() {
	engine.Register(engine.Scheme{
		Name:  "platch",
		Title: "P-LATCH: filtered two-core log-based DIFT (§5.2)",
		New:   func() engine.Backend { return NewBackend(DefaultConfig()) },
	})
}

// Config parameterizes the P-LATCH evaluation.
type Config struct {
	Latch latch.Config

	// WindowInstrs is the activity-measurement granularity (1000 in §6.2).
	WindowInstrs uint64

	// SimpleLBAOverhead is the reported overhead of the baseline 2-core LBA
	// monitor (3.38x runtime => 2.38 overhead, [7] via §6.2).
	SimpleLBAOverhead float64

	// OptimizedLBAOverhead is the reported overhead of the hardware-
	// optimized LBA scheme (36% => 0.36).
	OptimizedLBAOverhead float64

	// QueueDepth is the FIFO capacity in log entries for the simulation.
	QueueDepth int

	// PendingEntries sizes the pending-update FIFO of §5.2: destination
	// operands of enqueued stores are treated as tainted until the monitor
	// has processed them and the coarse state is known current, preventing
	// false negatives from outstanding CTT updates. Zero disables the
	// structure.
	PendingEntries int

	// PendingLagInstrs is how many monitored-core instructions an entry
	// stays pending — the modeled monitor processing lag.
	PendingLagInstrs uint64

	Events uint64

	// Workers bounds RunSuite's worker pool; <= 0 selects one worker per
	// CPU. Results do not depend on it.
	Workers int

	// Observer, when non-nil, receives the run's telemetry: the module's
	// check-path events plus a QueueStall per full-FIFO stall of the
	// LATCH-filtered queue simulations (the unfiltered baselines are not
	// reported — they would swamp the signal the paper cares about). It
	// must be safe for concurrent use when RunSuite fans benchmarks out
	// over workers (telemetry.Metrics is). Observers never affect results.
	Observer telemetry.Observer
}

// DefaultConfig returns the paper's P-LATCH parameters.
func DefaultConfig() Config {
	lc := latch.DefaultConfig()
	lc.Clear = latch.EagerClear
	lc.BaselineTCache = false
	return Config{
		Latch:                lc,
		WindowInstrs:         1000,
		SimpleLBAOverhead:    2.38,
		OptimizedLBAOverhead: 0.36,
		QueueDepth:           1024,
		PendingEntries:       64,
		PendingLagInstrs:     200,
		Events:               2_000_000,
	}
}

// PendingFIFO is the small FIFO-like structure of §5.2: it tracks the
// destination taint domains of recently enqueued stores and reports them
// tainted until the monitor catches up. Overflow retires the oldest entry
// early (the monitored core would briefly stall to let the monitor drain;
// the conservative direction is handled by the queue itself). The
// stream-level backends retire entries by expiry; the P-LATCH
// co-simulation pushes with expiry 0 and pops as its monitor processes
// each store.
type PendingFIFO struct {
	ring    []pendingEntry
	head    int
	count   int
	domains map[uint32]int // domain -> live entries
}

type pendingEntry struct {
	domain uint32
	expiry uint64
}

// NewPendingFIFO returns a FIFO of the given capacity, or nil — the
// structure disabled — when capacity <= 0.
func NewPendingFIFO(capacity int) *PendingFIFO {
	if capacity <= 0 {
		return nil
	}
	return &PendingFIFO{
		ring:    make([]pendingEntry, capacity),
		domains: make(map[uint32]int),
	}
}

// Full reports whether the next Push evicts the oldest entry.
func (f *PendingFIFO) Full() bool { return f.count == len(f.ring) }

// Push records a store destination pending until the given time.
func (f *PendingFIFO) Push(domain uint32, expiry uint64) {
	if f.Full() {
		f.Pop()
	}
	f.ring[(f.head+f.count)%len(f.ring)] = pendingEntry{domain: domain, expiry: expiry}
	f.count++
	f.domains[domain]++
}

// Pop retires the oldest entry; popping an empty FIFO is a no-op.
func (f *PendingFIFO) Pop() {
	if f.count == 0 {
		return
	}
	e := f.ring[f.head]
	f.head = (f.head + 1) % len(f.ring)
	f.count--
	if n := f.domains[e.domain]; n <= 1 {
		delete(f.domains, e.domain)
	} else {
		f.domains[e.domain] = n - 1
	}
}

// Retire pops every entry whose expiry has passed.
func (f *PendingFIFO) Retire(now uint64) {
	for f.count > 0 && f.ring[f.head].expiry <= now {
		f.Pop()
	}
}

// Pending reports whether the domain has an outstanding update.
func (f *PendingFIFO) Pending(domain uint32) bool {
	_, ok := f.domains[domain]
	return ok
}

// filter is the monitored-core enqueue policy shared by the analytic and
// the concurrent P-LATCH backends: the coarse check decides whether a
// committed instruction enters the log FIFO, and the §5.2 pending-update
// FIFO keeps destinations of queued stores conservatively tainted until
// the monitor has caught up. Both backends route every event through this
// one implementation, so their enqueue decisions are identical by
// construction.
type filter struct {
	pend         *PendingFIFO
	lag          uint64
	positives    uint64
	pendingExtra uint64
}

func newFilter(entries int, lag uint64) *filter {
	return &filter{pend: NewPendingFIFO(entries), lag: lag}
}

// decide consumes one stream event and reports whether it is enqueued to
// the monitor, and whether the pending-update FIFO alone caused the
// enqueue. The Session supplies the coarse module and the domain geometry;
// the caller must route every event through decide, in stream order.
func (f *filter) decide(s *engine.Session, ev trace.Event) (enq, viaPending bool) {
	if !ev.IsMem {
		return false, false
	}
	check := s.Module.CheckMem(ev.Addr, int(ev.Size))
	if check.CoarsePositive {
		enq = true
		f.positives++
	} else if f.pend != nil {
		// §5.2: destinations of queued stores stay conservatively tainted
		// until the monitor has processed them.
		f.pend.Retire(s.Events)
		if f.pend.Pending(s.Shadow.DomainIndex(ev.Addr)) {
			enq, viaPending = true, true
			f.positives++
			f.pendingExtra++
		}
	}
	if enq && ev.IsWrite && f.pend != nil {
		f.pend.Push(s.Shadow.DomainIndex(ev.Addr), s.Events+f.lag)
	}
	return enq, viaPending
}

// windows is the §6.2 activity accounting shared by both P-LATCH backends:
// the fraction of WindowInstrs-sized windows containing at least one
// instruction that manipulates tainted data.
type windows struct {
	size   uint64
	total  uint64
	active uint64
	pos    uint64
	cur    bool
}

// step consumes one instruction's taint flag.
func (w *windows) step(tainted bool) {
	if tainted {
		w.cur = true
	}
	w.pos++
	if w.pos == w.size {
		w.total++
		if w.cur {
			w.active++
		}
		w.pos, w.cur = 0, false
	}
}

// fraction closes the trailing partial window and returns the active-window
// share. It must be called exactly once, after the last step.
func (w *windows) fraction() float64 {
	if w.pos > 0 {
		w.total++
		if w.cur {
			w.active++
		}
		w.pos, w.cur = 0, false
	}
	if w.total == 0 {
		return 0
	}
	return float64(w.active) / float64(w.total)
}

// Result holds one benchmark's P-LATCH metrics (Figure 15).
type Result struct {
	Benchmark string
	Events    uint64

	// ActiveWindowFraction is the share of 1000-instruction windows
	// containing at least one coarse-positive check.
	ActiveWindowFraction float64

	// Analytical overheads: LBA costs localized to active windows.
	OverheadSimple    float64
	OverheadOptimized float64

	// Queue-simulation overheads (cross-check / ablation).
	QueueOverheadSimple    float64
	QueueOverheadOptimized float64
	// Unfiltered queue baselines reproduced by the same simulator.
	QueueBaselineSimple    float64
	QueueBaselineOptimized float64

	EnqueuedFraction float64 // share of instructions enqueued under filtering

	// PendingExtraPositives counts enqueues caused solely by the pending-
	// update FIFO (the paper predicts these are rare thanks to taint
	// locality, §5.2).
	PendingExtraPositives uint64
}

// BenchmarkName implements engine.Result.
func (r Result) BenchmarkName() string { return r.Benchmark }

// EventCount implements engine.Result.
func (r Result) EventCount() uint64 { return r.Events }

// CheckCount implements engine.Result. P-LATCH reports queue metrics, not
// check counts.
func (r Result) CheckCount() uint64 { return 0 }

// Columns implements engine.Result.
func (r Result) Columns() []engine.Column {
	return []engine.Column{
		{Label: "active window frac", Value: r.ActiveWindowFraction},
		{Label: "overhead simple", Value: r.OverheadSimple},
		{Label: "overhead optimized", Value: r.OverheadOptimized},
		{Label: "enqueued frac", Value: r.EnqueuedFraction},
	}
}

// queueSim models a producer at 1 instruction/cycle feeding a bounded FIFO
// drained by a consumer at serviceCycles per entry. It returns the
// fractional overhead over native execution caused by full-queue stalls,
// reporting each stall (with the queue occupancy, always the full depth)
// through obs when non-nil.
func queueSim(enqueued []bool, depth int, serviceCycles float64, obs telemetry.Observer) float64 {
	if len(enqueued) == 0 {
		return 0
	}
	// Ring buffer of completion times for in-flight entries.
	ring := make([]float64, depth)
	head, count := 0, 0
	var now float64    // producer clock
	var srvEnd float64 // consumer's last completion time
	for _, enq := range enqueued {
		now++
		if !enq {
			continue
		}
		// Retire completed entries.
		for count > 0 && ring[head] <= now {
			head = (head + 1) % depth
			count--
		}
		if count == depth {
			// Stall until the oldest entry completes.
			if obs != nil {
				obs.QueueStall(count)
			}
			now = ring[head]
			head = (head + 1) % depth
			count--
		}
		start := srvEnd
		if start < now {
			start = now
		}
		srvEnd = start + serviceCycles
		ring[(head+count)%depth] = srvEnd
		count++
	}
	// The monitored program also cannot complete before the monitor drains
	// the log (the paper's LBA semantics: analysis lags execution).
	total := now
	if srvEnd > total {
		total = srvEnd
	}
	return total/float64(len(enqueued)) - 1
}

// backend is the P-LATCH per-event policy: coarse filtering into the log,
// window-activity accounting, and the pending-update FIFO.
type backend struct {
	cfg Config

	enqueued []bool
	filt     *filter
	win      windows
}

// NewBackend returns a single-run P-LATCH backend with configuration cfg,
// for callers that drive engine.RunProfile themselves (on a recycled
// Session, say). Run uses it too. cfg.Events, cfg.Workers and cfg.Observer
// do not reach the backend: the run's RunOptions carry those.
func NewBackend(cfg Config) engine.Backend { return &backend{cfg: cfg} }

// Name implements engine.Backend.
func (b *backend) Name() string { return "platch" }

// Config implements engine.Backend.
func (b *backend) Config() latch.Config { return b.cfg.Latch }

// Init implements engine.Backend.
func (b *backend) Init(s *engine.Session) error {
	// Cap the upfront reservation: Target is a budget, not a promise (a
	// canceled run may see a sliver of it), and a huge target would turn
	// this into a multi-hundred-MB allocation before the first event.
	// Growth past the cap is geometric append as usual.
	capHint := s.Target
	if capHint > 1<<22 {
		capHint = 1 << 22
	}
	b.enqueued = make([]bool, 0, capHint)
	b.filt = newFilter(b.cfg.PendingEntries, b.cfg.PendingLagInstrs)
	b.win = windows{size: b.cfg.WindowInstrs}
	return nil
}

// StepBatch implements engine.Backend. P-LATCH charges no check cycles on
// the monitored core: the cost model is the queue, evaluated in Finish. The
// pending-window filter keys its lag arithmetic off s.Events, so the cursor
// advances before each event.
func (b *backend) StepBatch(s *engine.Session, evs []trace.Event) {
	for i := range evs {
		s.Events++
		enq, _ := b.filt.decide(s, evs[i])
		// The analytic model localizes LBA overheads to "periods of active
		// propagation" (§6.2): windows in which taint is actually
		// manipulated. Coarse false positives still enter the queue (enq)
		// but do not by themselves make a window an active-propagation one.
		b.win.step(evs[i].Tainted)
		b.enqueued = append(b.enqueued, enq)
	}
}

// Finish implements engine.Backend: close the last window, then evaluate
// the analytical window model and the queue simulations.
func (b *backend) Finish(s *engine.Session) engine.Result {
	f := b.win.fraction()

	// Queue simulation: service rates derived from the reported LBA
	// overheads (an overhead of k means ~1+k cycles of monitor work per
	// monitored instruction when everything is enqueued).
	simpleService := 1 + b.cfg.SimpleLBAOverhead
	optService := 1 + b.cfg.OptimizedLBAOverhead
	all := make([]bool, len(b.enqueued))
	for i := range all {
		all[i] = true
	}
	// A zero-event stream has no positives to enqueue; avoid 0/0 = NaN,
	// which would poison downstream aggregation and break Result equality.
	enqueuedFrac := 0.0
	if s.Events > 0 {
		enqueuedFrac = float64(b.filt.positives) / float64(s.Events)
	}

	return Result{
		Benchmark:              s.Profile.Name,
		Events:                 s.Events,
		ActiveWindowFraction:   f,
		OverheadSimple:         f * b.cfg.SimpleLBAOverhead,
		OverheadOptimized:      f * b.cfg.OptimizedLBAOverhead,
		QueueOverheadSimple:    queueSim(b.enqueued, b.cfg.QueueDepth, simpleService, s.Observer),
		QueueOverheadOptimized: queueSim(b.enqueued, b.cfg.QueueDepth, optService, s.Observer),
		QueueBaselineSimple:    queueSim(all, b.cfg.QueueDepth, simpleService, nil),
		QueueBaselineOptimized: queueSim(all, b.cfg.QueueDepth, optService, nil),
		EnqueuedFraction:       enqueuedFrac,
		PendingExtraPositives:  b.filt.pendingExtra,
	}
}

// Run evaluates one benchmark under P-LATCH.
func Run(p workload.Profile, cfg Config) (Result, error) {
	res, err := engine.RunProfile(context.Background(), NewBackend(cfg), p,
		engine.RunOptions{Events: cfg.Events, Observer: cfg.Observer})
	if err != nil {
		return Result{}, err
	}
	return res.(Result), nil
}

// RunSuite simulates every benchmark of a suite, in registry order. The
// benchmarks are independent (each stream has its own deterministic
// generator), so they run concurrently on a pool of cfg.Workers goroutines;
// results come back in suite order regardless of scheduling.
func RunSuite(s workload.Suite, cfg Config) ([]Result, error) {
	names := workload.BySuite(s)
	return pool.Map(cfg.Workers, len(names), func(i int) (Result, error) {
		p, err := workload.Get(names[i])
		if err != nil {
			return Result{}, err
		}
		r, err := Run(p, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("platch %s: %w", names[i], err)
		}
		return r, nil
	})
}
