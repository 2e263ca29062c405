package main

import (
	"fmt"
	"time"

	"latch/internal/engine"
	"latch/internal/trace"
)

// split is the wall-time breakdown of one decorated engine.RunProfile call.
// The four parts tile the op: set-up ends when Init returns, the stream
// runs from there to the start of Finish, and step is the part of the
// stream spent inside StepBatch.
type split struct {
	Wall   time.Duration // op start to RunProfile return
	Setup  time.Duration // op start to Init return: session build, materialization, Init
	Stream time.Duration // Init return to Finish, minus Step: generator and delivery
	Step   time.Duration // Σ StepBatch: backend step, module check, shadow reads
	Finish time.Duration // Finish
}

// Unattributed is the part of the op wall time the split leaves over.
func (s split) Unattributed() time.Duration {
	return s.Wall - s.Setup - s.Stream - s.Step - s.Finish
}

// timedBackend times the calls the engine makes into a batch backend. It
// changes nothing the backend sees: every call is forwarded unchanged. The
// engine hands a batch backend its stream through StepBatch only, so Step
// is forwarded by embedding, untimed.
type timedBackend struct {
	engine.BatchBackend

	start, initEnd, finishStart time.Time
	step, finish                time.Duration
}

// timedSharded is timedBackend for backends that implement engine.Sharded,
// so that shard configuration still reaches them through the decorator.
type timedSharded struct {
	*timedBackend
	sharded engine.Sharded
}

// SetShards implements engine.Sharded.
func (t timedSharded) SetShards(n int) error { return t.sharded.SetShards(n) }

// decorate wraps b. The result implements engine.Sharded exactly when b
// does. Only batch backends can be decorated: wrapping a per-event backend
// as a batch one would change how the engine delivers its stream.
func decorate(b engine.Backend) (engine.BatchBackend, *timedBackend, error) {
	bb, ok := b.(engine.BatchBackend)
	if !ok {
		return nil, nil, fmt.Errorf("backend %s does not implement engine.BatchBackend", b.Name())
	}
	t := &timedBackend{BatchBackend: bb}
	if sb, ok := b.(engine.Sharded); ok {
		return timedSharded{timedBackend: t, sharded: sb}, t, nil
	}
	return t, t, nil
}

// begin marks the op start; call it right before engine.RunProfile.
func (t *timedBackend) begin() { t.start = time.Now() }

// end closes the op; call it right after engine.RunProfile returns.
func (t *timedBackend) end() split { return t.splitAt(time.Now()) }

// splitAt is the op's split when it ended at now.
func (t *timedBackend) splitAt(now time.Time) split {
	return split{
		Wall:   now.Sub(t.start),
		Setup:  t.initEnd.Sub(t.start),
		Stream: t.finishStart.Sub(t.initEnd) - t.step,
		Step:   t.step,
		Finish: t.finish,
	}
}

// Init implements engine.Backend.
func (t *timedBackend) Init(s *engine.Session) error {
	err := t.BatchBackend.Init(s)
	t.initEnd = time.Now()
	return err
}

// StepBatch implements engine.BatchBackend.
func (t *timedBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	t0 := time.Now()
	t.BatchBackend.StepBatch(s, evs)
	t.step += time.Since(t0)
}

// Finish implements engine.Backend.
func (t *timedBackend) Finish(s *engine.Session) engine.Result {
	t.finishStart = time.Now()
	r := t.BatchBackend.Finish(s)
	t.finish = time.Since(t.finishStart)
	return r
}
