package cosim

import (
	"context"

	"latch/internal/dift"
	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
)

// machine is the substrate every co-simulated machine shares (§5): one LA32
// core, one byte-precise DIFT engine, and one engine.Session holding the
// LATCH module and its shadow. System, Parallel and Monitor embed it and
// differ only in Commit and the few tracker methods their protocol changes;
// the tracker methods here forward to the engine or the module unchanged.
type machine struct {
	Machine *vm.CPU
	Engine  *dift.Engine
	Module  *latch.Module
	Shadow  *shadow.Shadow
	Session *engine.Session

	// atExit, when non-nil, runs once a program run ends, whatever ended
	// it: P-LATCH drains its log there.
	atExit func()
}

// newMachine builds the core around a fresh session for lc, with t (the
// embedding machine) as the CPU's tracker. obs, when non-nil, receives the
// session's, the engine's and the CPU's telemetry.
func newMachine(lc latch.Config, pol policy.Policy, obs telemetry.Observer, t vm.Tracker) (machine, error) {
	sess, err := engine.NewSession(lc)
	if err != nil {
		return machine{}, err
	}
	sess.AttachObserver(obs)
	m := machine{
		Engine:  dift.NewEngine(sess.Shadow, pol),
		Module:  sess.Module,
		Shadow:  sess.Shadow,
		Session: sess,
	}
	m.Engine.SetObserver(obs)
	m.Machine = vm.New()
	m.Machine.SetTracker(t)
	m.Machine.SetObserver(obs)
	return m, nil
}

// Run assembles src and runs it as RunProgram does.
func (m *machine) Run(ctx context.Context, src string, maxSteps uint64) (uint32, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, err
	}
	return m.RunProgram(ctx, prog, maxSteps)
}

// RunProgram loads prog, executes up to maxSteps instructions, and returns
// the exit code. A policy violation, a machine fault, the step limit or
// cancellation (ctx is polled every vm.CancelCheckInterval instructions)
// surfaces as the error. Program exit is a sync point on every one of
// these outcomes, a clean halt included.
func (m *machine) RunProgram(ctx context.Context, prog *isa.Program, maxSteps uint64) (uint32, error) {
	m.Machine.Load(prog)
	_, err := m.Machine.Run(ctx, maxSteps)
	if m.atExit != nil {
		m.atExit()
	}
	if err != nil {
		return 0, err
	}
	return m.Machine.ExitCode(), nil
}

// --- the vm.Tracker methods no protocol changes ---

// Touches delegates the ground-truth predicate to the precise engine.
func (m *machine) Touches(in isa.Instr, addr uint32) bool {
	return m.Engine.Touches(in, addr)
}

// IndirectTarget enforces the control-flow policy synchronously through the
// precise engine.
func (m *machine) IndirectTarget(pc uint32, reg int, target uint32) error {
	return m.Engine.IndirectTarget(pc, reg, target)
}

// Input forwards taint initialization to the engine. The coarse state
// follows through the shadow watchers, so it never lags taint creation.
func (m *machine) Input(addr uint32, n int, source dift.InputSource, conn int) {
	m.Engine.Input(addr, n, source, conn)
}

// Output forwards sink checks.
func (m *machine) Output(pc uint32, addr uint32, n int) error {
	return m.Engine.Output(pc, addr, n)
}

// Accept forwards connection registration.
func (m *machine) Accept() int { return m.Engine.Accept() }

// SetTaintByte forwards stnt through the module, write-through included.
func (m *machine) SetTaintByte(addr uint32, tag shadow.Tag) {
	m.Module.StoreTaint(addr, tag)
}

// SetRegTaintMask forwards strf to the engine.
func (m *machine) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	m.Engine.SetRegTaintMask(mask, tag)
}
