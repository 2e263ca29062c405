package experiments

import (
	"context"
	"fmt"
	"sync"

	"latch/internal/engine"
	"latch/internal/latch"
	"latch/internal/shadow"
	"latch/internal/workload"
)

// freeList is the Runner's store of idle per-run state: engine Sessions
// keyed by module geometry, bare shadows (no watchers) keyed by domain
// size, and one tag-page pool they all share. A pass's jobs take from it
// and give back to it, so a Runner builds at most one Session per geometry
// per concurrently running job instead of one per run, and keeps about one
// run's tag pages per worker rather than per idle session. It lives and
// dies with its Runner.
type freeList struct {
	mu       sync.Mutex
	sessions map[latch.Config][]*engine.Session
	shadows  map[uint32][]*shadow.Shadow
	pages    shadow.PagePool
}

// session returns an idle Session built for cfg, or a new one. The caller
// owns it until putSession; its state is whatever the last run left, so
// callers Recycle it first (engine.RunProfile does).
func (f *freeList) session(cfg latch.Config) (*engine.Session, error) {
	f.mu.Lock()
	if free := f.sessions[cfg]; len(free) > 0 {
		s := free[len(free)-1]
		f.sessions[cfg] = free[:len(free)-1]
		f.mu.Unlock()
		return s, nil
	}
	f.mu.Unlock()
	s, err := engine.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	s.Shadow.SharePages(&f.pages)
	return s, nil
}

// putSession returns s to the free list. Its shadow is reset so the tag
// pages go back to the shared pool; the module is reset with the rest of
// the session by the next run's Recycle.
func (f *freeList) putSession(s *engine.Session) {
	s.Shadow.Reset()
	f.mu.Lock()
	if f.sessions == nil {
		f.sessions = make(map[latch.Config][]*engine.Session)
	}
	cfg := s.Module.Config()
	f.sessions[cfg] = append(f.sessions[cfg], s)
	f.mu.Unlock()
}

// shadow returns an empty, unwatched shadow with the given domain size.
func (f *freeList) shadow(domainSize uint32) (*shadow.Shadow, error) {
	f.mu.Lock()
	if free := f.shadows[domainSize]; len(free) > 0 {
		sh := free[len(free)-1]
		f.shadows[domainSize] = free[:len(free)-1]
		f.mu.Unlock()
		return sh, nil
	}
	f.mu.Unlock()
	sh, err := shadow.New(domainSize)
	if err != nil {
		return nil, err
	}
	sh.SharePages(&f.pages)
	return sh, nil
}

// putShadow resets sh, its tag pages going back to the shared pool, and
// returns it to the free list.
func (f *freeList) putShadow(sh *shadow.Shadow) {
	sh.Reset()
	f.mu.Lock()
	if f.shadows == nil {
		f.shadows = make(map[uint32][]*shadow.Shadow)
	}
	f.shadows[sh.DomainSize()] = append(f.shadows[sh.DomainSize()], sh)
	f.mu.Unlock()
}

// runProfile is the one way the Runner runs a backend over a profile: on a
// Session from the free list (engine.RunProfile recycles it first), given
// back afterwards.
func (r *Runner) runProfile(b engine.Backend, p workload.Profile, opts engine.RunOptions) (engine.Result, error) {
	s, err := r.free.session(b.Config())
	if err != nil {
		return nil, err
	}
	defer r.free.putSession(s)
	opts.Session = s
	return engine.RunProfile(context.Background(), b, p, opts)
}

// runTyped is runProfile narrowed to the backend's concrete result type.
func runTyped[T engine.Result](r *Runner, b engine.Backend, p workload.Profile, opts engine.RunOptions) (T, error) {
	var zero T
	res, err := r.runProfile(b, p, opts)
	if err != nil {
		return zero, err
	}
	t, ok := res.(T)
	if !ok {
		return zero, fmt.Errorf("experiments: backend %q returned %T, want %T", b.Name(), res, zero)
	}
	return t, nil
}

// generator materializes p on a shadow from the free list (domain size
// shadow.DefaultDomainSize, the Runner's sampling spec) for the
// shadow-only passes; release gives the shadow back.
func (r *Runner) generator(p workload.Profile) (g *workload.Generator, release func(), err error) {
	sh, err := r.free.shadow(shadow.DefaultDomainSize)
	if err != nil {
		return nil, nil, err
	}
	g, err = workload.NewSampledGeneratorOn(p, sh, r.sampling())
	if err != nil {
		r.free.putShadow(sh)
		return nil, nil, err
	}
	return g, func() { r.free.putShadow(sh) }, nil
}
