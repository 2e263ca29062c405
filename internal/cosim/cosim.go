// Package cosim executes real LA32 programs under the full S-LATCH protocol
// (Figure 9): hardware mode runs the native image while the LATCH module
// checks memory operands against the coarse taint state and register
// operands against the taint register file; a confirmed trap transfers
// control to the (modeled) instrumented image, which performs byte-precise
// DIFT until the timeout returns control to hardware.
//
// Where package slatch models S-LATCH statistically over calibrated
// streams, cosim is the cycle-accounted co-simulation of an actual program:
// every mode decision is made from the *hardware-visible* state (TRF bits
// and coarse memory checks), while the precise DIFT engine runs alongside
// as both the software layer and the false-positive oracle — exactly the
// split of §5.1.
//
// The epoch/trap state machine and the cycle accounting are the engine
// package's: the System owns an engine.Session and drives the same
// Trap/SwitchToSoftware/SoftwareStep/ReturnToHardware transitions the
// stream-level backends use, so the two models can never drift on the §6.1
// cost constants. Parallel (parallel.go) is the P-LATCH two-core machine,
// and Monitor (monitor.go) runs any registered backend over a real
// program's commit stream. All three share one core (machine.go): the CPU,
// the precise engine, the session with its module and shadow, and the run
// path. They differ only in what happens when an instruction commits.
//
// Soundness argument mirrored from the paper: in hardware mode no
// instruction with a tainted source operand executes un-trapped (tainted
// registers are visible in the TRF, tainted memory in the coarse state,
// and the coarse state has no false negatives), so native execution can
// only *clear* taint, never move it. Taint creation (syscall input) writes
// the shadow directly and reaches the coarse state through the module's
// watchers before any dependent instruction commits.
package cosim

import (
	"fmt"

	"latch/internal/engine"
	"latch/internal/isa"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/vm"
)

// Mode is the current execution layer, shared with the engine's state
// machine.
type Mode = engine.Mode

// Modes.
const (
	ModeHardware = engine.ModeHardware
	ModeSoftware = engine.ModeSoftware
)

// Config carries the cost model (the same engine.Costs table the
// stream-level S-LATCH model uses) and the software-mode slowdown to assume
// for the instrumented image.
type Config struct {
	Latch latch.Config
	Costs engine.Costs

	// SWSlowdown is the instrumented image's slowdown over native
	// execution (libdft's per-program factor).
	SWSlowdown float64

	// Observer, when non-nil, receives the co-simulation's telemetry:
	// module check-path events, DIFT violations, taint-source bytes, and
	// an EpochTransition per mode switch. Observers never affect results.
	Observer telemetry.Observer
}

// DefaultConfig mirrors the paper's parameters with a 5x software DIFT
// slowdown.
func DefaultConfig() Config {
	lc := latch.DefaultConfig()
	lc.Clear = latch.LazyClear
	lc.BaselineTCache = false
	return Config{
		Latch:      lc,
		Costs:      engine.DefaultCosts(),
		SWSlowdown: 5,
	}
}

// Stats is the co-simulation outcome, in the engine's unified cycle
// vocabulary.
type Stats struct {
	Instructions uint64
	HWInstrs     uint64
	SWInstrs     uint64
	Switches     uint64 // hardware -> software transfers
	Returns      uint64 // software -> hardware transfers
	Traps        uint64 // coarse/TRF positives taken in hardware mode
	FalseTraps   uint64 // traps dismissed by the precise filter

	Cycles engine.Cycles
}

// TotalCycles returns the modeled runtime.
func (s Stats) TotalCycles() uint64 { return s.Cycles.Total() }

// Overhead returns fractional overhead over native execution.
func (s Stats) Overhead() float64 { return s.Cycles.Overhead() }

// System is a co-simulated S-LATCH machine. It satisfies vm.Tracker,
// wrapping the precise engine with the mode-switching protocol. The
// control-flow check stays the engine's synchronous one in both modes: in
// software mode it is the instrumented check; in hardware mode a tainted
// target register traps through the TRF before the check fires, so the
// engine view is never stale when it matters. The Machine, Engine, Module,
// Shadow and Session fields and Run/RunProgram come from the shared core.
type System struct {
	machine
	cfg Config
}

var _ vm.Tracker = (*System)(nil)

// New builds a co-simulated system with the given DIFT policy.
func New(cfg Config, pol policy.Policy) (*System, error) {
	if cfg.Latch.Clear == latch.EagerClear {
		return nil, fmt.Errorf("cosim: S-LATCH co-simulation requires lazy or disabled clears")
	}
	if cfg.SWSlowdown < 1 {
		return nil, fmt.Errorf("cosim: software slowdown %v < 1", cfg.SWSlowdown)
	}
	s := &System{cfg: cfg}
	var err error
	if s.machine, err = newMachine(cfg.Latch, pol, cfg.Observer, s); err != nil {
		return nil, err
	}
	s.Session.ConfigureEpochs(cfg.Costs, cfg.SWSlowdown-1, cfg.Costs.CodeCacheLat)
	return s, nil
}

// Mode returns the current execution mode.
func (s *System) Mode() Mode { return s.Session.Mode() }

// Stats returns the accumulated accounting.
func (s *System) Stats() Stats {
	ss := s.Session
	return Stats{
		Instructions: ss.Events,
		HWInstrs:     ss.HWInstrs,
		SWInstrs:     ss.SWInstrs,
		Switches:     ss.Switches,
		Returns:      ss.Returns,
		Traps:        ss.Traps,
		FalseTraps:   ss.FalseTraps,
		Cycles:       ss.CycleReport(),
	}
}

// Commit implements the per-instruction S-LATCH protocol over the shared
// epoch state machine.
func (s *System) Commit(pc uint32, in isa.Instr, addr uint32) error {
	ss := s.Session
	ss.Events++
	ss.Cycles.Base++
	precise := s.Engine.Touches(in, addr)

	switch ss.Mode() {
	case ModeHardware:
		ss.HWInstrs++
		if s.hardwarePositive(in, addr) {
			ss.Trap()
			s.Module.SetLastException(addr)
			if precise {
				// Confirmed: transfer to the instrumented image (the
				// trapping instruction re-executes under instrumentation).
				ss.SwitchToSoftware()
			} else {
				// False positive: dismiss and refresh the stale TRF bits.
				ss.DismissTrap()
				s.refreshTRF(in)
			}
		}
	case ModeSoftware:
		ss.SWInstrs++
		if ss.SoftwareStep(precise) {
			s.syncTRF()
			ss.ReturnToHardware()
		}
	}

	// The precise engine propagates in every mode. In hardware mode this
	// can only clear taint (see the package comment), keeping the oracle
	// exact without moving tainted data un-checked.
	if err := s.Engine.Commit(pc, in, addr); err != nil {
		return err
	}
	if ss.Mode() == ModeHardware {
		loadTag := shadow.TagClean
		if in.Op.Class() == isa.ClassLoad {
			// A load that did not trap read coarse-clean (or precise-clean)
			// memory; mirror the engine's byte-precise verdict.
			loadTag = s.Engine.RegTaint(int(in.Rd)).Union()
		}
		updateTRF(s.Module.TRF(), in, loadTag)
	}
	return nil
}

// hardwarePositive evaluates the hardware-visible check: TRF bits for
// register sources, the coarse stack for memory operands (with CTC-miss
// cycles charged through the session).
func (s *System) hardwarePositive(in isa.Instr, addr uint32) bool {
	positive := trfSourceTainted(s.Module.TRF(), in)
	if in.ReadsMem() || in.WritesMem() {
		res := s.Session.CheckMem(addr, in.Op.MemSize())
		positive = positive || res.CoarsePositive
	}
	return positive
}

// refreshTRF clears TRF bits that the precise filter showed stale for the
// dismissed instruction's register sources.
func (s *System) refreshTRF(in isa.Instr) {
	trf := s.Module.TRF()
	for _, r := range trfSources(in) {
		if r >= 0 && !s.Engine.RegTaint(r).Tainted() {
			trf.Set(r, shadow.TagClean)
		}
	}
}

// trfSources lists the register sources the hardware checks in the TRF
// (for stores, the data register); -1 marks an unused slot. Both
// co-simulated machines trap or enqueue on exactly this set.
func trfSources(in isa.Instr) [2]int {
	switch in.Op.Class() {
	case isa.ClassMove, isa.ClassALUImm, isa.ClassJumpInd:
		return [2]int{int(in.Rs1), -1}
	case isa.ClassALU2:
		return [2]int{int(in.Rs1), int(in.Rs2)}
	case isa.ClassBranch:
		return [2]int{int(in.Rd), int(in.Rs1)}
	case isa.ClassStore:
		return [2]int{int(in.Rd), -1}
	}
	return [2]int{-1, -1}
}

// trfSourceTainted reports whether any of in's TRF-checked register
// sources carries taint.
func trfSourceTainted(trf *latch.TRF, in isa.Instr) bool {
	for _, r := range trfSources(in) {
		if r >= 0 && trf.Tainted(r) {
			return true
		}
	}
	return false
}

// updateTRF is the hardware's single-bit register taint propagation over
// one committed instruction. The two machines differ only in what a load
// writes, so the caller supplies loadTag: S-LATCH mirrors the precise
// engine's verdict, P-LATCH's monitored core the coarse one.
func updateTRF(trf *latch.TRF, in isa.Instr, loadTag shadow.Tag) {
	switch in.Op.Class() {
	case isa.ClassMove, isa.ClassALUImm:
		trf.Set(int(in.Rd), trf.Get(int(in.Rs1)))
	case isa.ClassImm:
		trf.Set(int(in.Rd), shadow.TagClean)
	case isa.ClassALU2:
		if in.Op == isa.XOR && in.Rs1 == in.Rs2 {
			trf.Set(int(in.Rd), shadow.TagClean)
			break
		}
		trf.Set(int(in.Rd), trf.Get(int(in.Rs1))|trf.Get(int(in.Rs2)))
	case isa.ClassLoad:
		trf.Set(int(in.Rd), loadTag)
	case isa.ClassJump, isa.ClassJumpInd:
		if in.Op == isa.CALL || in.Op == isa.CALLR {
			trf.Set(isa.RegLR, shadow.TagClean)
		}
	}
}

// syncTRF rewrites the TRF from the precise register state (strf) ahead of
// a software->hardware return.
func (s *System) syncTRF() {
	trf := s.Module.TRF()
	for r := 0; r < isa.NumRegs; r++ {
		trf.Set(r, s.Engine.RegTaint(r).Union())
	}
}

// SetRegTaintMask forwards strf to both the engine and the TRF.
func (s *System) SetRegTaintMask(mask uint32, tag shadow.Tag) {
	s.machine.SetRegTaintMask(mask, tag)
	s.Module.TRF().SetMask(mask, tag)
}
