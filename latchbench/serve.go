package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"latch"
	"latch/internal/serve"
	"latch/internal/telemetry"
)

const (
	// serveRunEvents is the stream length of a /v1/run request.
	serveRunEvents = 200_000
	// serveClients is the number of closed-loop clients, each on its own
	// keep-alive connection.
	serveClients = 2
	// serveWorkers is the server's worker pool size.
	serveWorkers = 2
	// programVariants is how many distinct generated programs a run sends.
	programVariants = 4
	// programIterations is the generated loop's trip count: about 1.4M
	// instructions at 11 per clean iteration.
	programIterations = 125_000
	// queueSampleEvery is how often the traced run samples the pool.
	queueSampleEvery = 5 * time.Millisecond
)

// serveRunKey names the recorded digest of a /v1/run job's result.
func serveRunKey(c combo) string {
	return fmt.Sprintf("serve-run/%s/%s/%d", c.backend, c.profile, serveRunEvents)
}

// program is one generated /v1/program job with its library-path result.
type program struct {
	source, input string
	want          string // canonical result, from latch.New + System.Run
}

// genProgram writes an LA32 loop that reads 64 bytes of tainted file input
// and touches one of them on every 32nd iteration, so that both the fast
// interpreter loop and the precise DIFT path run. Constants come from rng.
func genProgram(rng *rand.Rand) (source, input string) {
	n := programIterations + rng.Intn(4096)
	a, b, c := rng.Intn(1<<15), 1+rng.Intn(255), rng.Intn(1<<15)
	source = fmt.Sprintf(`
_start:
	li   r1, 0x8000
	movi r2, 64
	sys  2              ; read 64 tainted bytes
	movi r3, 0          ; i
	li   r4, %d         ; trip count
	movi r8, %d         ; clean accumulator
	li   r12, 0xA000    ; clean buffer
loop:
	addi r8, r8, %d
	xori r8, r8, %d
	andi r5, r3, 255
	add  r6, r12, r5
	stb  r8, [r6]       ; clean store
	ldb  r7, [r6]       ; clean load
	add  r8, r8, r7
	andi r5, r3, 31
	bne  r5, r0, next
	andi r6, r3, 63
	li   r7, 0x8000
	add  r7, r7, r6
	ldb  r9, [r7]       ; tainted load
	add  r9, r9, r8
	li   r10, 0xB000
	stb  r9, [r10]      ; taint a buffer byte
	movi r11, 0
	stb  r11, [r10]     ; and clear it again
	movi r9, 0          ; leave no register tainted
next:
	addi r3, r3, 1
	blt  r3, r4, loop
	movi r1, 0
	sys  1
`, n, a, b, c)
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte('a' + rng.Intn(26))
	}
	return source, string(in)
}

// runLine is the canonical form served and library run results are
// compared in; programResult.String is the one for programs.
func runLine(benchmark string, events, checks uint64, cols []string, snap telemetry.Snapshot) string {
	m, _ := json.Marshal(snap)
	return fmt.Sprintf("%s|%d|%d|%s|%s", benchmark, events, checks, strings.Join(cols, ";"), m)
}

// programResult is one program run's outcome.
type programResult struct {
	exit      uint32
	steps     uint64
	output    string
	violation string
	snap      telemetry.Snapshot
}

func (r programResult) String() string {
	m, _ := json.Marshal(r.snap)
	return fmt.Sprintf("%d|%d|%q|%s|%s", r.exit, r.steps, r.output, r.violation, m)
}

// servedLine is the union of the NDJSON line shapes the server streams.
type servedLine struct {
	Type      string          `json:"type"`
	Benchmark string          `json:"benchmark"`
	Events    uint64          `json:"events"`
	Checks    uint64          `json:"checks"`
	Columns   []servedColumn  `json:"columns"`
	Metrics   json.RawMessage `json:"metrics"`
	Elapsed   string          `json:"elapsed"`
	ExitCode  uint32          `json:"exit_code"`
	Steps     uint64          `json:"steps"`
	Output    string          `json:"output"`
	Violation *struct {
		Kind string `json:"kind"`
		PC   uint32 `json:"pc"`
		Addr uint32 `json:"addr"`
	} `json:"violation"`
	Error string `json:"error"`
}

type servedColumn struct {
	Label string `json:"label"`
	Value string `json:"value"`
}

// canonical renders a result line in the library-comparable form.
func (l servedLine) canonical(kind string) (string, telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	if err := json.Unmarshal(l.Metrics, &snap); err != nil {
		return "", snap, err
	}
	if kind == "run" {
		cols := make([]string, len(l.Columns))
		for i, c := range l.Columns {
			cols[i] = c.Label + "=" + c.Value
		}
		return runLine(l.Benchmark, l.Events, l.Checks, cols, snap), snap, nil
	}
	v := ""
	if l.Violation != nil {
		v = fmt.Sprintf("%s@%d:%d", l.Violation.Kind, l.Violation.PC, l.Violation.Addr)
	}
	return programResult{l.ExitCode, l.Steps, l.Output, v, snap}.String(), snap, nil
}

// serveMixed drives an in-process latch server over loopback HTTP.
type serveMixed struct {
	env      *env
	schedule []combo
	runWant  map[combo]string
	programs []program

	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
}

func newServeMixed(e *env) *serveMixed { return &serveMixed{env: e} }

// setUp generates the programs, computes every job's expected result on the
// library path, starts a fresh server with its clients, and sends each
// client one request of each kind.
func (s *serveMixed) setUp() error {
	s.close()
	s.schedule = combos(s.env.seed)
	s.runWant = make(map[combo]string, len(s.schedule))
	for _, c := range s.schedule {
		m := latch.NewMetrics()
		res, err := latch.Run(context.Background(), latch.RunRequest{
			Backend: c.backend, Workload: c.profile, Events: serveRunEvents, Shards: c.shards(), Observer: m,
		})
		if err != nil {
			return fmt.Errorf("library run %s/%s: %w", c.backend, c.profile, err)
		}
		key := serveRunKey(c)
		if !s.env.check.requireRecorded(key) || !s.env.check.check(key, resultDigest(res)) {
			return fmt.Errorf("library run %s/%s does not match its recorded digest", c.backend, c.profile)
		}
		var cols []string
		for _, col := range res.Columns() {
			cols = append(cols, col.Label+"="+fmt.Sprint(col.Value))
		}
		s.runWant[c] = runLine(res.BenchmarkName(), res.EventCount(), res.CheckCount(), cols, m.Snapshot())
	}
	var err error
	if s.programs, err = seededPrograms(s.env.seed); err != nil {
		return err
	}
	if s.env.seed == defaultSeed {
		for i, p := range s.programs {
			key := fmt.Sprintf("serve-program/%d/%d", defaultSeed, i)
			if !s.env.check.requireRecorded(key) || !s.env.check.check(key, bytesDigest([]byte(p.want))) {
				return fmt.Errorf("library program %d does not match its recorded digest", i)
			}
		}
	}

	s.srv = serve.New(serve.Config{Workers: serveWorkers})
	s.ts = httptest.NewServer(s.srv)
	for i := 0; i < serveClients; i++ {
		cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		s.clients = append(s.clients, cl)
		for _, kind := range serveKinds {
			rep := s.do(cl, kind, i)
			if rep.err != nil {
				return fmt.Errorf("warm-up %s: %w", kind, rep.err)
			}
		}
	}
	return nil
}

// seededPrograms generates a run's programs and their library results.
func seededPrograms(seed int64) ([]program, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]program, programVariants)
	for i := range out {
		src, in := genProgram(rng)
		res, err := libraryProgram(src, in)
		if err != nil {
			return nil, err
		}
		out[i] = program{source: src, input: in, want: res.String()}
	}
	return out, nil
}

// libraryProgram runs one program job the way a library caller would.
func libraryProgram(src, input string) (programResult, error) {
	m := latch.NewMetrics()
	sys, err := latch.New(latch.WithObserver(m))
	if err != nil {
		return programResult{}, err
	}
	sys.Machine.Env.FileData = []byte(input)
	res, err := sys.Run(context.Background(), src, serve.DefaultMaxSteps)
	if err != nil {
		return programResult{}, fmt.Errorf("library program: %w", err)
	}
	v := ""
	if res.Violation != nil {
		v = fmt.Sprintf("%s@%d:%d", res.Violation.Kind, res.Violation.PC, res.Violation.Addr)
	}
	return programResult{res.ExitCode, res.Steps, sys.Machine.Env.Output.String(), v, m.Snapshot()}, nil
}

func (s *serveMixed) close() {
	if s.ts != nil {
		for _, cl := range s.clients {
			cl.CloseIdleConnections()
		}
		s.ts.Close()
		s.srv.Close()
	}
	s.ts, s.srv, s.clients = nil, nil, nil
}

// reply is one request's client-side observation.
type reply struct {
	backend     string
	total, exec time.Duration
	line        servedLine
	snap        telemetry.Snapshot
	err         error
}

// do sends request k of one kind on a client and checks the result
// against the library path.
func (s *serveMixed) do(cl *http.Client, kind string, k int) reply {
	var rep reply
	var body any
	var want string
	if kind == "run" {
		c := s.schedule[k%len(s.schedule)]
		rep.backend = c.backend
		body = serve.WorkloadJob{Backend: c.backend, Workload: c.profile, Events: serveRunEvents, Shards: c.shards()}
		want = s.runWant[c]
	} else {
		p := s.programs[k%len(s.programs)]
		body = serve.ProgramJob{Source: p.source, Input: p.input}
		want = p.want
	}
	b, err := json.Marshal(body)
	if err != nil {
		rep.err = err
		return rep
	}
	t0 := time.Now()
	resp, err := cl.Post(s.ts.URL+"/v1/"+kind, "application/json", bytes.NewReader(b))
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		rep.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return rep
	}
	rd := bufio.NewReader(resp.Body)
	for {
		raw, err := rd.ReadBytes('\n')
		if len(raw) > 0 {
			var l servedLine
			if jerr := json.Unmarshal(raw, &l); jerr != nil {
				rep.err = fmt.Errorf("bad line %q: %w", raw, jerr)
				return rep
			}
			if l.Type == "result" || l.Type == "error" {
				rep.line = l
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rep.err = err
			return rep
		}
	}
	rep.total = time.Since(t0)
	switch {
	case rep.line.Type == "error":
		rep.err = fmt.Errorf("server error: %s", rep.line.Error)
	case rep.line.Type != "result":
		rep.err = fmt.Errorf("no result line")
	}
	if rep.err != nil {
		return rep
	}
	rep.exec, rep.err = time.ParseDuration(rep.line.Elapsed)
	if rep.err != nil {
		return rep
	}
	got, snap, err := rep.line.canonical(kind)
	rep.snap = snap
	if err != nil {
		rep.err = err
	} else if got != want {
		rep.err = fmt.Errorf("served %s result differs from the library path:\n  served:  %s\n  library: %s", kind, got, want)
	}
	return rep
}

// run drives both clients until the deadline. An op is one client's pair
// of requests, one of each kind; client i starts its pairs with kind i, so
// both kinds are always in flight. Each client completes at least one pair.
func (s *serveMixed) run(deadline time.Time, traced bool) phase {
	ph := newPhase()
	var mu sync.Mutex
	lat := map[string][]float64{}
	exec, wait := map[string][]float64{}, map[string][]float64{}
	var progExecNS, progSteps, fastSteps float64
	counts := newLatchCounts()

	var inflight []float64
	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(samplerDone)
		if !traced {
			return
		}
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				st := s.srv.Stats()
				inflight = append(inflight, float64(st.Accepted-st.Completed-st.Failed))
			case <-stopSampler:
				return
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for ci, cl := range s.clients {
		wg.Add(1)
		go func(ci int, cl *http.Client) {
			defer wg.Done()
			kinds := []string{serveKinds[ci%2], serveKinds[(ci+1)%2]}
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				// The clients interleave through the schedule: pair i of
				// client ci sends job i*serveClients+ci of each kind.
				k := i*serveClients + ci
				t0 := time.Now()
				ok := true
				for _, kind := range kinds {
					rep := s.do(cl, kind, k)
					mu.Lock()
					if rep.err != nil {
						ok = false
						s.env.check.fail("serve %s: %v", kind, rep.err)
					} else {
						lat[kind] = append(lat[kind], ms(rep.total))
						exec[kind] = append(exec[kind], ms(rep.exec))
						wait[kind] = append(wait[kind], ms(rep.total-rep.exec))
						if kind == "program" {
							progExecNS += float64(rep.exec.Nanoseconds())
							progSteps += float64(rep.line.Steps)
							fastSteps += float64(rep.snap.FastLoopSteps)
						} else {
							counts.add(rep.backend, rep.line.Events, rep.snap)
						}
					}
					mu.Unlock()
				}
				mu.Lock()
				ph.record(time.Since(t0), ok)
				mu.Unlock()
			}
		}(ci, cl)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	close(stopSampler)
	<-samplerDone

	ph.details.set("req_per_s", 2*ph.opsPerSec(), "1/s")
	for _, kind := range serveKinds {
		ph.details.set(kind+"_ms.p50", median(lat[kind]), "ms")
		ph.details.set(kind+"_ms.samples", float64(len(lat[kind])), "count")
		if p, v, ok := tail(lat[kind]); ok {
			ph.details.set(fmt.Sprintf("%s_ms.p%g", kind, p), v, "ms")
		}
		if traced {
			ph.layers["serve.exec_ms.p50."+kind] = median(exec[kind])
			ph.layers["serve.wait_ms.p50."+kind] = median(wait[kind])
		}
	}
	if traced {
		ph.layers["pool.inflight_mean"] = mean(inflight)
		ph.layers["vm.ns_per_instr"] = frac(progExecNS, progSteps)
		ph.layers["vm.fast_loop_frac"] = frac(fastSteps, progSteps)
		counts.report(ph.layers)
	}
	return ph
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return frac(s, float64(len(xs)))
}
