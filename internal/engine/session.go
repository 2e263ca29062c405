package engine

import (
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/shadow"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

// Cycles is the unified cycle-category accounting shared by the
// integrations' cost models — the Figure 14 vocabulary.
type Cycles struct {
	Base    uint64 // native execution: one per instruction
	Libdft  uint64 // extra cycles from instrumented (software DIFT) execution
	Xfer    uint64 // context save/restore + code-cache loads
	FPCheck uint64 // exception-handler false-positive filtering
	CTCMiss uint64 // coarse-check miss penalties
	Scan    uint64 // clear-bit scans on return to hardware
}

// Total returns the modeled runtime.
func (c Cycles) Total() uint64 {
	return c.Base + c.Libdft + c.Xfer + c.FPCheck + c.CTCMiss + c.Scan
}

// Overhead returns the fractional overhead over native execution
// (Figure 13's y-axis; 0.6 means 60%).
func (c Cycles) Overhead() float64 {
	if c.Base == 0 {
		return 0
	}
	return float64(c.Total())/float64(c.Base) - 1
}

// Session owns everything one backend run shares with every other scheme:
// the latch module and its shadow taint state, the workload profile behind
// the stream, the telemetry wiring, the event cursor, the
// hardware/software epoch and trap state machine, and the unified cycle
// accounting. Backends keep only their policy-specific state.
type Session struct {
	Module   *latch.Module
	Shadow   *shadow.Shadow
	Profile  workload.Profile
	Observer telemetry.Observer

	// Policy is the validated taint policy of the current run; it travels
	// with the session (RunProfileSession installs it after validation,
	// Recycle clears it with the rest of the per-run state).
	Policy policy.Policy

	// Target is the requested stream length — a sizing hint for backends;
	// the stream may end earlier.
	Target uint64
	// Events counts consumed stream events (equivalently, committed
	// instructions); the backend advances it in StepBatch, one per event.
	Events uint64

	// Cycles accumulates the run's integer cycle categories. The Libdft
	// category accrues fractionally (per-instruction slowdown extras) and
	// is folded in by CycleReport.
	Cycles Cycles

	// Epoch/trap counters.
	HWInstrs   uint64 // instructions executed under hardware monitoring
	SWInstrs   uint64 // instructions executed under software DIFT
	Switches   uint64 // hardware -> software transfers
	Returns    uint64 // software -> hardware transfers
	Traps      uint64 // positives taken in hardware mode
	FalseTraps uint64 // traps dismissed by the precise filter

	mode         Mode
	sinceTaint   uint64
	swFrac       float64 // fractional extra-cycle accumulator (libdft)
	swExtra      float64 // per-instruction extra cycles in software mode
	costs        Costs
	codeCacheLat uint64
	missPenalty  uint64
	lastMisses   uint64
}

// Recycle returns the session to its just-constructed state so it can carry
// another run without reallocating: the shadow taint state is reset onto its
// page free lists, the module's coarse state (CTT, page-domain counts, TRF,
// caches) is cleared, and every per-run counter, cycle category, and the
// epoch state machine are zeroed. The configuration-derived miss penalty is
// retained — a recycled session only serves backends with the geometry it
// was built for, which RunProfileSession enforces.
func (s *Session) Recycle() {
	s.Shadow.Reset()
	s.Module.Reset()
	s.Observer = nil
	s.Module.SetObserver(nil)
	s.Profile = workload.Profile{}
	s.Policy = policy.Policy{}
	s.Target = 0
	s.Events = 0
	s.Cycles = Cycles{}
	s.HWInstrs = 0
	s.SWInstrs = 0
	s.Switches = 0
	s.Returns = 0
	s.Traps = 0
	s.FalseTraps = 0
	s.mode = ModeHardware
	s.sinceTaint = 0
	s.swFrac = 0
	s.swExtra = 0
	s.costs = Costs{}
	s.codeCacheLat = 0
	s.lastMisses = 0
}

// AttachObserver wires obs into the session and its module. Callers choose
// the moment: profile-driven runs attach after stats reset so the observer
// sees exactly the measured stream; program-driven runs attach at
// construction.
func (s *Session) AttachObserver(obs telemetry.Observer) {
	s.Observer = obs
	s.Module.SetObserver(obs)
}

// ConfigureEpochs arms the two-mode state machine: the shared cost table,
// the per-instruction software-mode extra (slowdown − 1), and the
// code-cache load latency charged on each hardware->software transfer.
func (s *Session) ConfigureEpochs(costs Costs, swExtra float64, codeCacheLat uint64) {
	s.costs = costs
	s.swExtra = swExtra
	s.codeCacheLat = codeCacheLat
}

// Mode returns the current execution mode.
func (s *Session) Mode() Mode { return s.mode }

// CheckMem performs one coarse memory check through the module, charging
// the CTC miss penalty for any misses the check caused (§6.1).
func (s *Session) CheckMem(addr uint32, size int) latch.CheckResult {
	res := s.Module.CheckMem(addr, size)
	if now := s.Module.Stats().CTCCheckMisses; now != s.lastMisses {
		s.Cycles.CTCMiss += (now - s.lastMisses) * s.missPenalty
		s.lastMisses = now
	}
	return res
}

// Trap charges one exception-handler false-positive filtering pass
// (§5.1.2) for a hardware-mode positive.
func (s *Session) Trap() {
	s.Traps++
	s.Cycles.FPCheck += s.costs.FPCheck
}

// DismissTrap records a coarse false positive rejected by the precise
// filter; hardware mode continues.
func (s *Session) DismissTrap() {
	s.FalseTraps++
}

// SwitchToSoftware performs the hardware->software transfer of a confirmed
// trap: context save/restore plus the code-cache load, the epoch
// transition, and the trapping instruction's re-execution under
// instrumentation.
func (s *Session) SwitchToSoftware() {
	s.Switches++
	s.Cycles.Xfer += 2*s.costs.CtxSwitch + s.codeCacheLat
	s.mode = ModeSoftware
	if s.Observer != nil {
		s.Observer.EpochTransition(telemetry.ModeSoftware, s.Events)
	}
	s.sinceTaint = 0
	s.swFrac += s.swExtra
}

// SoftwareStep accounts one software-mode instruction and advances the
// §5.1.3 timeout. It reports true when the timeout fired: the backend then
// performs any scheme-specific rewrites and calls ReturnToHardware.
func (s *Session) SoftwareStep(tainted bool) bool {
	s.swFrac += s.swExtra
	if tainted {
		s.sinceTaint = 0
		return false
	}
	s.sinceTaint++
	return s.sinceTaint >= s.costs.TimeoutInstrs
}

// ReturnToHardware performs the software->hardware transition: scan the
// resident clear bits (§5.1.4), restore the native context, resume
// hardware monitoring.
func (s *Session) ReturnToHardware() {
	scanned := s.Module.ScanResidentClears()
	s.Cycles.Scan += scanned * s.costs.ScanPerDomain
	s.Cycles.Xfer += s.costs.CtxSwitch
	s.Returns++
	s.mode = ModeHardware
	if s.Observer != nil {
		s.Observer.EpochTransition(telemetry.ModeHardware, s.Events)
	}
	s.sinceTaint = 0
}

// CycleReport returns the run's cycle breakdown with the fractional
// software-mode accumulator folded into the Libdft category.
func (s *Session) CycleReport() Cycles {
	c := s.Cycles
	c.Libdft = uint64(s.swFrac)
	return c
}

// Snapshot is a comparable (==) summary of everything a Session accumulated
// over a run: the stream cursor, the epoch/trap counters, the folded cycle
// breakdown, and the module's coarse-state statistics. Two runs of the same
// backend over the same seeded stream must produce identical Snapshots —
// the replayability contract the differential checker asserts.
type Snapshot struct {
	Events     uint64
	Mode       Mode
	HWInstrs   uint64
	SWInstrs   uint64
	Switches   uint64
	Returns    uint64
	Traps      uint64
	FalseTraps uint64
	Cycles     Cycles
	Latch      latch.Stats
}

// Snapshot captures the session's current accumulated state.
func (s *Session) Snapshot() Snapshot {
	return Snapshot{
		Events:     s.Events,
		Mode:       s.mode,
		HWInstrs:   s.HWInstrs,
		SWInstrs:   s.SWInstrs,
		Switches:   s.Switches,
		Returns:    s.Returns,
		Traps:      s.Traps,
		FalseTraps: s.FalseTraps,
		Cycles:     s.CycleReport(),
		Latch:      s.Module.Stats(),
	}
}
