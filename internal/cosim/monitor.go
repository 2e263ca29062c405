package cosim

import (
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/policy"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/vm"
)

// Monitor runs any registered engine backend over a real program's commit
// stream: the VM executes the program, the byte-precise DIFT engine
// propagates taint (and enforces the policy) as ground truth, and every
// committed instruction is translated into the same trace.Event record the
// calibrated generators emit and fed to the backend through a shared
// engine.Session. Equivalence checks can therefore compare any backend's
// view of a program against the conventional engine's on identical inputs.
// The Machine, Engine, Module, Shadow and Session fields and Run/RunProgram
// come from the shared core.
type Monitor struct {
	machine

	backend engine.Backend
	// one is the one-event delivery slice Commit hands the backend; a field
	// rather than a local so delivery does not allocate.
	one [1]trace.Event
}

var _ vm.Tracker = (*Monitor)(nil)

// NewMonitor builds a co-simulated machine around the named registered
// backend in its paper-default configuration.
func NewMonitor(backendName string, pol policy.Policy, obs telemetry.Observer) (*Monitor, error) {
	sch, err := engine.Lookup(backendName)
	if err != nil {
		return nil, err
	}
	return NewMonitorBackend(sch.New(), pol, obs)
}

// NewMonitorBackend builds a co-simulated machine around an already
// constructed (and possibly specially configured) backend instance — the
// differential checker uses this to sweep the concurrent backend's shard
// counts. The backend must be fresh: one instance serves one run.
func NewMonitorBackend(b engine.Backend, pol policy.Policy, obs telemetry.Observer) (*Monitor, error) {
	m := &Monitor{backend: b}
	var err error
	if m.machine, err = newMachine(b.Config(), pol, obs, m); err != nil {
		return nil, err
	}
	if err := b.Init(m.Session); err != nil {
		return nil, err
	}
	return m, nil
}

// Result finalizes the backend over the session.
func (m *Monitor) Result() engine.Result {
	return m.backend.Finish(m.Session)
}

// Commit translates the committed instruction into a trace event, delivers
// it to the backend as a one-event slice, then lets the precise engine
// propagate. The backend advances the cursor, as under the profile driver.
func (m *Monitor) Commit(pc uint32, in isa.Instr, addr uint32) error {
	ev := &m.one[0]
	*ev = trace.Event{
		Seq:     m.Session.Events + 1,
		PC:      pc,
		IsMem:   in.ReadsMem() || in.WritesMem(),
		IsWrite: in.WritesMem(),
		Tainted: m.Engine.Touches(in, addr),
	}
	if ev.IsMem {
		ev.Addr = addr
		ev.Size = uint8(in.Op.MemSize())
	}
	m.backend.StepBatch(m.Session, m.one[:])
	return m.Engine.Commit(pc, in, addr)
}
