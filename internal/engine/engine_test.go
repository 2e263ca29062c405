package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/policy"
	"latch/internal/telemetry"
	"latch/internal/trace"
	"latch/internal/workload"
)

// fakeBackend is a minimal integration: it counts events and memory
// operands and reports them. Registered once for the registry-driven tests.
type fakeBackend struct {
	cfg    latch.Config
	inited bool
	steps  uint64
	mem    uint64
}

type fakeResult struct {
	bench  string
	events uint64
	checks uint64
}

func (r fakeResult) BenchmarkName() string { return r.bench }
func (r fakeResult) EventCount() uint64    { return r.events }
func (r fakeResult) CheckCount() uint64    { return r.checks }
func (r fakeResult) Columns() []engine.Column {
	return []engine.Column{{Label: "mem ops", Value: r.checks}}
}

func (b *fakeBackend) Name() string         { return "fake" }
func (b *fakeBackend) Config() latch.Config { return b.cfg }
func (b *fakeBackend) Init(s *engine.Session) error {
	b.inited = true
	return nil
}
func (b *fakeBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	for _, ev := range evs {
		s.Events++
		b.steps++
		if ev.IsMem {
			b.mem++
			s.CheckMem(ev.Addr, int(ev.Size))
		}
	}
}
func (b *fakeBackend) Finish(s *engine.Session) engine.Result {
	return fakeResult{bench: s.Profile.Name, events: s.Events, checks: b.mem}
}

func init() {
	engine.Register(engine.Scheme{
		Name:  "fake",
		Title: "fake test backend",
		New:   func() engine.Backend { return &fakeBackend{cfg: latch.DefaultConfig()} },
	})
}

func TestNew(t *testing.T) {
	if b, err := engine.New("fake"); err != nil || b.Name() != "fake" {
		t.Fatalf("New(fake) = %v, %v", b, err)
	}
	if _, err := engine.New("no-such-backend"); err == nil {
		t.Fatal("New of unknown backend succeeded")
	}
}

func TestModeString(t *testing.T) {
	if engine.ModeHardware.String() != "hardware" || engine.ModeSoftware.String() != "software" {
		t.Fatalf("mode names: %q %q", engine.ModeHardware, engine.ModeSoftware)
	}
}

func TestCycles(t *testing.T) {
	c := engine.Cycles{Base: 100, Libdft: 20, Xfer: 10, FPCheck: 5, CTCMiss: 3, Scan: 2}
	if c.Total() != 140 {
		t.Fatalf("total = %d", c.Total())
	}
	if got := c.Overhead(); got < 0.399 || got > 0.401 {
		t.Fatalf("overhead = %v", got)
	}
	if (engine.Cycles{}).Overhead() != 0 {
		t.Fatal("zero-base overhead should be 0")
	}
}

func TestDefaultCosts(t *testing.T) {
	c := engine.DefaultCosts()
	want := engine.Costs{
		CtxSwitch:      400,
		FPCheck:        120,
		ScanPerDomain:  20,
		CodeCacheLat:   800,
		TimeoutInstrs:  1000,
		CTCMissPenalty: latch.DefaultCTCMissPenalty,
	}
	if c != want {
		t.Fatalf("DefaultCosts = %+v, want %+v", c, want)
	}
}

func TestRegistry(t *testing.T) {
	sch, err := engine.Lookup("fake")
	if err != nil {
		t.Fatal(err)
	}
	if sch.Title != "fake test backend" || sch.New().Name() != "fake" {
		t.Fatalf("bad scheme: %+v", sch)
	}
	if _, err := engine.Lookup("no-such-backend"); err == nil {
		t.Fatal("Lookup of unknown backend succeeded")
	}
	names := engine.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	found := false
	for _, n := range names {
		if n == "fake" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fake missing from %v", names)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, sch engine.Scheme) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		engine.Register(sch)
	}
	factory := func() engine.Backend { return &fakeBackend{} }
	mustPanic("empty name", engine.Scheme{Name: "", New: factory})
	mustPanic("nil factory", engine.Scheme{Name: "nil-factory", New: nil})
	mustPanic("duplicate", engine.Scheme{Name: "fake", New: factory})
}

func TestRunProfile(t *testing.T) {
	p, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{cfg: latch.DefaultConfig()}
	res, err := engine.RunProfile(context.Background(), b, p, engine.RunOptions{Events: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if !b.inited {
		t.Fatal("Init not called")
	}
	if b.steps != 50_000 || res.EventCount() != 50_000 {
		t.Fatalf("steps=%d events=%d", b.steps, res.EventCount())
	}
	if res.BenchmarkName() != "gcc" {
		t.Fatalf("benchmark = %q", res.BenchmarkName())
	}
	if res.CheckCount() == 0 {
		t.Fatal("no memory operands seen")
	}
	if cols := res.Columns(); len(cols) != 1 || cols[0].Label != "mem ops" {
		t.Fatalf("columns = %+v", cols)
	}
}

func TestRunProfileObserverIdentical(t *testing.T) {
	p, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	observed, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 30_000, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatalf("observer changed the result: %+v vs %+v", plain, observed)
	}
	if m.Snapshot().CoarseChecks == 0 {
		t.Fatal("observer saw no coarse checks")
	}
}

func TestRunScheme(t *testing.T) {
	p, err := workload.Get("apache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunScheme(context.Background(), "fake", p, engine.RunOptions{Events: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventCount() != 10_000 {
		t.Fatalf("events = %d", res.EventCount())
	}
	if _, err := engine.RunScheme(context.Background(), "no-such-backend", p, engine.RunOptions{Events: 10}); err == nil {
		t.Fatal("unknown scheme ran")
	}
}

func TestNewSessionBadConfig(t *testing.T) {
	cfg := latch.DefaultConfig()
	cfg.DomainSize = 3 // not a power of two
	if _, err := engine.NewSession(cfg); err == nil {
		t.Fatal("bad domain size accepted")
	}
}

func TestSessionEpochMachine(t *testing.T) {
	s, err := engine.NewSession(latch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	costs := engine.Costs{
		CtxSwitch:      400,
		FPCheck:        120,
		ScanPerDomain:  20,
		CodeCacheLat:   800,
		TimeoutInstrs:  3,
		CTCMissPenalty: 150,
	}
	s.ConfigureEpochs(costs, 4, 800)
	if s.Mode() != engine.ModeHardware {
		t.Fatal("session did not start in hardware mode")
	}

	s.Trap()
	s.DismissTrap()
	if s.Traps != 1 || s.FalseTraps != 1 || s.Cycles.FPCheck != 120 {
		t.Fatalf("trap accounting: %+v", s)
	}

	s.SwitchToSoftware()
	if s.Mode() != engine.ModeSoftware || s.Switches != 1 {
		t.Fatal("switch did not enter software mode")
	}
	if s.Cycles.Xfer != 2*400+800 {
		t.Fatalf("xfer = %d", s.Cycles.Xfer)
	}

	// A tainted step resets the timeout; three clean steps fire it.
	if s.SoftwareStep(true) {
		t.Fatal("tainted step fired the timeout")
	}
	if s.SoftwareStep(false) || s.SoftwareStep(false) {
		t.Fatal("timeout fired early")
	}
	if !s.SoftwareStep(false) {
		t.Fatal("timeout did not fire")
	}

	s.ReturnToHardware()
	if s.Mode() != engine.ModeHardware || s.Returns != 1 {
		t.Fatal("return did not restore hardware mode")
	}
	if s.Cycles.Xfer != 2*400+800+400 {
		t.Fatalf("xfer after return = %d", s.Cycles.Xfer)
	}

	// Libdft extras: one switch re-execution + four software steps, 4 each.
	if rep := s.CycleReport(); rep.Libdft != 5*4 {
		t.Fatalf("libdft = %d", rep.Libdft)
	}
}

func TestSessionEpochTransitionsObserved(t *testing.T) {
	s, err := engine.NewSession(latch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	s.AttachObserver(m)
	s.ConfigureEpochs(engine.DefaultCosts(), 4, 800)
	s.Events = 7
	s.SwitchToSoftware()
	s.Events = 9
	s.ReturnToHardware()
	snap := m.Snapshot()
	if snap.SwitchesToSoftware != 1 || snap.SwitchesToHardware != 1 {
		t.Fatalf("epoch telemetry: +sw=%d +hw=%d", snap.SwitchesToSoftware, snap.SwitchesToHardware)
	}
}

func TestSessionCheckMemCharging(t *testing.T) {
	cfg := latch.DefaultConfig()
	s, err := engine.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Taint one byte on each of 64 pages: every check reaches past the TLB
	// page bits to the CTC, and 64 distinct CTT words overflow its 16
	// entries, forcing misses.
	for i := uint32(0); i < 64; i++ {
		s.Module.StoreTaint(i*4096, 1)
	}
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < 64; i++ {
			s.CheckMem(i*4096, 4)
		}
	}
	misses := s.Module.Stats().CTCCheckMisses
	if misses == 0 {
		t.Fatal("no CTC misses generated")
	}
	if want := misses * cfg.CTCMissPenalty; s.Cycles.CTCMiss != want {
		t.Fatalf("CTCMiss cycles = %d, want %d", s.Cycles.CTCMiss, want)
	}
}

func TestRunProfileBadWorkload(t *testing.T) {
	p := workload.Profile{Name: "bogus"} // no layout: generator must reject
	if _, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p,
		engine.RunOptions{Events: 10}); err == nil {
		t.Fatal("bogus profile ran")
	}
}

func TestRegistrationIsImportDriven(t *testing.T) {
	// The engine package itself knows no scheme: the integrations appear in
	// the registry only when their packages are linked in. This test binary
	// does not import them.
	for _, name := range []string{"hlatch", "platch", "slatch"} {
		if _, err := engine.Lookup(name); err == nil {
			t.Fatalf("%s registered without importing its package", name)
		}
	}
	if !strings.Contains(engine.ModeSoftware.String(), "software") {
		t.Fatal("unexpected mode name")
	}
}

// cancelBackend is fakeBackend cancelling its own run once it has consumed
// at least `after` events, and recording whether it was finalized.
type cancelBackend struct {
	fakeBackend
	after    uint64
	cancel   context.CancelFunc
	finished bool
}

func (b *cancelBackend) StepBatch(s *engine.Session, evs []trace.Event) {
	b.fakeBackend.StepBatch(s, evs)
	if s.Events >= b.after {
		b.cancel()
	}
}

func (b *cancelBackend) Finish(s *engine.Session) engine.Result {
	b.finished = true
	return b.fakeBackend.Finish(s)
}

func TestRunProfileCancellation(t *testing.T) {
	p := workload.MustGet("gcc")
	const events, after = 200_000, 10_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &cancelBackend{fakeBackend: fakeBackend{cfg: latch.DefaultConfig()}, after: after, cancel: cancel}
	res, err := engine.RunProfile(ctx, b, p, engine.RunOptions{Events: events})
	if err != context.Canceled || res != nil {
		t.Fatalf("mid-run cancel: res=%v err=%v, want nil, context.Canceled", res, err)
	}
	if !b.finished {
		t.Fatal("canceled run was not finalized")
	}
	// The stream stops within one poll interval plus one batch of the
	// cancellation.
	if b.steps < after || b.steps > after+engine.CancelCheckEvents+engine.EventBatchSize {
		t.Fatalf("canceled after %d events, want within [%d, %d]", b.steps, after, after+engine.CancelCheckEvents+engine.EventBatchSize)
	}

	// A context canceled up front aborts before the backend initializes.
	b = &cancelBackend{fakeBackend: fakeBackend{cfg: latch.DefaultConfig()}}
	if _, err := engine.RunProfile(ctx, b, p, engine.RunOptions{Events: events}); err != context.Canceled {
		t.Fatalf("pre-canceled run: err=%v, want context.Canceled", err)
	}
	if b.inited || b.finished {
		t.Fatal("pre-canceled run reached the backend")
	}
}

func TestRunProfileRecycledSession(t *testing.T) {
	p := workload.MustGet("gcc")
	opts := engine.RunOptions{Events: 20_000}
	fresh, s, err := engine.RunProfileSession(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Session = s
	recycled, s2, err := engine.RunProfileSession(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s || recycled != fresh {
		t.Fatalf("recycled run differs: %+v vs %+v (same session %v)", recycled, fresh, s2 == s)
	}
	other := latch.DefaultConfig()
	other.DomainSize *= 2
	if _, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: other}, p, opts); err == nil {
		t.Fatal("recycled session with mismatched geometry accepted")
	}
	s.Recycle()
	if s.Events != 0 || s.Shadow.TaintedBytes() != 0 || s.Mode() != engine.ModeHardware {
		t.Fatalf("Recycle left state behind: events=%d tainted=%d mode=%v", s.Events, s.Shadow.TaintedBytes(), s.Mode())
	}
}

// initErrBackend fails its Init.
type initErrBackend struct{ fakeBackend }

func (b *initErrBackend) Init(*engine.Session) error { return errors.New("init refused") }

func TestRunProfileRejects(t *testing.T) {
	p := workload.MustGet("gcc")
	bad := engine.RunOptions{Events: 10, Policy: policy.Policy{Sampling: policy.Sampling{SampleFraction: 2}}}
	if _, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: latch.DefaultConfig()}, p, bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if _, err := engine.RunProfile(context.Background(), &initErrBackend{fakeBackend{cfg: latch.DefaultConfig()}}, p,
		engine.RunOptions{Events: 10}); err == nil || !strings.Contains(err.Error(), "init refused") {
		t.Fatalf("Init error not returned: %v", err)
	}
	cfg := latch.DefaultConfig()
	cfg.DomainSize = 3
	if _, err := engine.RunProfile(context.Background(), &fakeBackend{cfg: cfg}, p, engine.RunOptions{Events: 10}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}
