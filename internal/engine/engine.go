// Package engine is the shared substrate under the LATCH integrations
// (§5): the per-run Session owning the latch module, shadow taint state,
// trace cursor, and telemetry wiring; the hardware/software epoch and trap
// state machine with its unified Figure 14 cycle accounting; and a
// name-keyed registry of Backend implementations.
//
// The paper evaluates one LATCH module under three integrations — S-LATCH
// (§5.1), P-LATCH (§5.2), H-LATCH (§5.3). Each differs only in policy:
// what to do with a stream event, when a coarse positive traps, and which
// numbers the run reports. Everything else — module construction, the
// generator-driven stream, mode switching, cost charging — is shared and
// lives here. Adding a fourth integration is one package: implement
// Backend, call Register from init, and the experiment harness, the public
// facade, and the CLI `-backend` flag pick it up by name.
package engine

import (
	"context"
	"fmt"

	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Mode is the current execution layer of a two-mode integration.
type Mode int

// Modes.
const (
	ModeHardware Mode = iota
	ModeSoftware
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHardware {
		return "hardware"
	}
	return "software"
}

// Backend is one integration of the LATCH module. It owns the
// scheme-specific policy — the step over the commit stream, when to trap,
// and how to report the run — while the engine owns the Session's shared
// machinery. A Backend instance serves exactly one run; factories
// registered with Register produce a fresh one per run.
type Backend interface {
	// Name is the registry key ("slatch", "platch", "hlatch", ...).
	Name() string
	// Config is the hardware geometry the run's module is built with.
	Config() latch.Config
	// Init prepares per-run state once the Session (module, shadow state,
	// profile, observer) exists and before the first event. Returning an
	// error aborts the run.
	Init(s *Session) error
	// StepBatch consumes the next events of the stream, in order — the
	// software analog of the paper's commit-stream FIFO, where the monitor
	// drains whole log chunks per activation (§5.2). The backend owns the
	// cursor: it advances s.Events by one per event, and implementations
	// whose per-event logic reads s.Events (pending-window filters, epoch
	// transitions) advance it before processing each event. Drivers may
	// deliver slices of any length, down to one event.
	StepBatch(s *Session, evs []trace.Event)
	// Finish produces the run's result after the last event.
	Finish(s *Session) Result
}

// Latchbench compatibility. The benchmark harness (latchbench/) compiles
// against and digests a few names that the engine no longer needs, and
// that harness does not change together with the engine. Each of these
// goes at the next benchmark change:
//
//   - BatchBackend, an alias for Backend (latchbench/decorator.go);
//   - Sharded, implemented only by the concurrent P-LATCH backend, whose
//     SetShards accepts 1 and nothing else: its monitor is one core;
//   - latch.RunRequest.Shards and serve.WorkloadJob.Shards, which accept 0
//     or 1 and reject any other value;
//   - platch.ConcurrentResult's Shards (always 1), ShardStats (one entry)
//     and Flagged (always nil), kept so its JSON encoding is unchanged.
type BatchBackend = Backend

// Sharded is the monitor shard-count surface latchbench still calls; see
// BatchBackend. SetShards must be called before Init.
type Sharded interface {
	Backend
	// SetShards fixes the monitor shard count for this run.
	SetShards(n int) error
}

// Column is one headline metric of a backend result, for scheme-agnostic
// tabulation.
type Column struct {
	Label string
	Value any
}

// Result is the outcome of one backend run. Concrete backends return
// richer structs; this surface is what the registry-driven harness and the
// CLI render without knowing the scheme.
type Result interface {
	// BenchmarkName names the workload the run consumed.
	BenchmarkName() string
	// EventCount is the number of stream events consumed.
	EventCount() uint64
	// CheckCount is the number of coarse memory checks performed (zero
	// when the scheme does not report them).
	CheckCount() uint64
	// Columns lists the scheme's headline metrics in stable order.
	Columns() []Column
}

// CancelCheckEvents is the profile driver's cancellation granularity: the
// run's context is polled every this many stream events (a power of two, so
// the check is a mask test). A canceled run stops — with its backend fully
// finalized, its monitor joined — within at most CancelCheckEvents events
// of the cancellation.
const CancelCheckEvents = 4096

// EventBatchSize is the profile driver's delivery batch: events accumulate
// in a fixed buffer handed to the backend in slices of at most this many.
// It divides CancelCheckEvents, so batch boundaries land exactly on
// cancellation-poll boundaries and the poll granularity is unchanged.
const EventBatchSize = 512

// RunOptions parameterizes one profile-driven run.
type RunOptions struct {
	// Events is the requested stream length.
	Events uint64
	// Observer, when non-nil, receives the run's telemetry: the module's
	// check-path events plus whatever the backend emits (epoch
	// transitions, queue stalls). Observers never affect results.
	Observer telemetry.Observer
	// Session, when non-nil, is a recycled Session to run on instead of
	// building a fresh one — the serving path reuses each worker's session
	// the way the mem/shadow free lists reuse pages. It is Recycled before
	// use and its module geometry must match the backend's Config.
	Session *Session
	// Policy is the run's taint policy. For profile-driven runs only the
	// Sampling spec has an effect (it selects which of the profile's
	// taint runs are materialized and observed tainted); the zero value
	// — sampling disabled — reproduces the unsampled pipeline exactly.
	// The policy is validated on every run, including recycled sessions,
	// and travels with the Session for the run's duration.
	Policy policy.Policy
}

// RunProfile streams one calibrated workload profile through a backend:
// build the shared Session, let the backend initialize, feed it the
// generator's event stream, and collect its result. This is the single
// driver loop the per-scheme packages used to duplicate.
//
// Cancellation: ctx is polled every CancelCheckEvents events. On
// cancellation the stream stops, the backend is still finalized (so
// concurrent backends join their monitor and leak nothing), the
// partial result is discarded, and ctx.Err() is returned.
func RunProfile(ctx context.Context, b Backend, p workload.Profile, opts RunOptions) (Result, error) {
	res, _, err := RunProfileSession(ctx, b, p, opts)
	return res, err
}

// RunProfileSession is RunProfile returning the run's Session alongside the
// result, so callers can capture a Snapshot of the shared state — the
// differential checker compares Snapshots across replays of the same seed.
func RunProfileSession(ctx context.Context, b Backend, p workload.Profile, opts RunOptions) (Result, *Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: %w", err)
	}
	s := opts.Session
	if s != nil {
		if got, want := s.Module.Config(), b.Config(); got != want {
			return nil, nil, fmt.Errorf("engine: recycled session geometry %+v does not match backend %s config %+v", got, b.Name(), want)
		}
		// Recycle clears the previous run's policy; the validated one for
		// this run is installed below.
		s.Recycle()
	} else {
		var err error
		if s, err = NewSession(b.Config()); err != nil {
			return nil, nil, err
		}
	}
	s.Policy = opts.Policy
	g, err := workload.NewSampledGeneratorOn(p, s.Shadow, opts.Policy.Sampling)
	if err != nil {
		return nil, nil, err
	}
	// Layout materialization populated the coarse state through the shadow
	// watchers; measure only the steady-state reference stream. The
	// observer attaches after the reset for the same reason: it sees
	// exactly the measured stream.
	s.Module.ResetStats()
	s.lastMisses = 0
	s.AttachObserver(opts.Observer)
	s.Profile = p
	s.Target = opts.Events
	// A context canceled before the stream starts aborts here, before the
	// backend spins up any per-run machinery (the monitor goroutine included).
	if err := ctx.Err(); err != nil {
		return nil, s, err
	}
	if err := b.Init(s); err != nil {
		return nil, nil, err
	}
	// Batched delivery: one StepBatch call per buffer. The generator drains
	// the buffer (via trace.Flusher) before every shadow mutation, so each
	// event is checked against the same state as under one-event delivery.
	bs := &batchingSink{b: b, s: s, g: g, done: ctx.Done()}
	g.Run(opts.Events, bs)
	// A canceled run drops the undelivered tail at the poll boundary.
	if !g.Stopped() {
		bs.Flush()
	}
	// Finalize unconditionally: for the concurrent backend Finish closes
	// the ring and joins the monitor goroutine, which must happen on the
	// cancellation path too.
	res := b.Finish(s)
	if g.Stopped() {
		return nil, s, ctx.Err()
	}
	return res, s, nil
}

// batchingSink is the profile driver's buffering sink: the commit-stream
// FIFO between the generator and the monitor. Events accumulate in a fixed
// buffer delivered in one StepBatch call when full — or earlier, when the
// generator calls Flush before mutating the shadow state. Cancellation is
// polled on the flush after each CancelCheckEvents-sized stretch of the
// stream (barrier flushes shift batch boundaries, so the poll keys off a
// watermark rather than an alignment mask).
type batchingSink struct {
	b        Backend
	s        *Session
	g        *workload.Generator
	done     <-chan struct{}
	buf      [EventBatchSize]trace.Event
	n        int
	lastPoll uint64
}

// Consume implements trace.Sink.
func (k *batchingSink) Consume(ev trace.Event) {
	k.buf[k.n] = ev
	k.n++
	if k.n == EventBatchSize {
		k.Flush()
	}
}

// Flush implements trace.Flusher: deliver the buffered events now.
func (k *batchingSink) Flush() {
	if k.n == 0 {
		return
	}
	k.b.StepBatch(k.s, k.buf[:k.n])
	k.n = 0
	if k.s.Events-k.lastPoll >= CancelCheckEvents && k.done != nil {
		k.lastPoll = k.s.Events
		select {
		case <-k.done:
			k.g.Stop()
		default:
		}
	}
}

// RunScheme runs the named registered backend, in its paper-default
// configuration, over one workload profile.
func RunScheme(ctx context.Context, name string, p workload.Profile, opts RunOptions) (Result, error) {
	sch, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return RunProfile(ctx, sch.New(), p, opts)
}

// NewSession builds the per-run state every backend shares: the
// byte-precise shadow taint state and the latch module attached to it.
// Profile-driven runs go through RunProfile; program-driven runs (the
// co-simulations) deliver the commit stream through StepBatch themselves.
func NewSession(cfg latch.Config) (*Session, error) {
	sh, err := shadow.New(cfg.DomainSize)
	if err != nil {
		return nil, err
	}
	m, err := latch.New(cfg, sh)
	if err != nil {
		return nil, err
	}
	return &Session{
		Module:      m,
		Shadow:      sh,
		missPenalty: cfg.CTCMissPenalty,
	}, nil
}
