package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"latch/internal/engine"
	"latch/internal/platch"
	"latch/internal/telemetry"
	"latch/internal/workload"
)

// runBackend runs one profile through a fresh backend, decorated or not,
// and returns the result digest and the telemetry snapshot.
func runBackend(t *testing.T, backend, profile string, decorated bool) (string, telemetry.Snapshot, split) {
	t.Helper()
	p, err := workload.Get(profile)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := engine.Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	var b engine.Backend = sch.New()
	var timer *timedBackend
	if decorated {
		if b, timer, err = decorate(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := (combo{backend, profile}).shards(); n > 0 {
		if err := b.(engine.Sharded).SetShards(n); err != nil {
			t.Fatal(err)
		}
	}
	obs := telemetry.NewMetrics()
	if timer != nil {
		timer.begin()
	}
	res, err := engine.RunProfile(context.Background(), b, p, engine.RunOptions{Events: 100_000, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	var sp split
	if timer != nil {
		sp = timer.end()
	}
	return resultDigest(res), obs.Snapshot(), sp
}

func TestDecoratorMatchesUndecorated(t *testing.T) {
	for _, b := range benchBackends {
		for _, p := range []string{"perlbench", "sphinx3"} {
			plainDigest, plainSnap, _ := runBackend(t, b, p, false)
			decDigest, decSnap, sp := runBackend(t, b, p, true)
			if plainDigest != decDigest {
				t.Errorf("%s/%s: decorated digest %s, undecorated %s", b, p, decDigest, plainDigest)
			}
			if plainSnap != decSnap {
				t.Errorf("%s/%s: decorated telemetry %+v, undecorated %+v", b, p, decSnap, plainSnap)
			}
			if sp.Step <= 0 || sp.Setup <= 0 || sp.Finish <= 0 {
				t.Errorf("%s/%s: split has an empty part: %+v", b, p, sp)
			}
			if u := sp.Unattributed(); u < 0 || u > sp.Wall/100 {
				t.Errorf("%s/%s: split leaves %v of %v unattributed", b, p, u, sp.Wall)
			}
		}
	}
}

func TestDecoratorForwardsSharded(t *testing.T) {
	for _, b := range benchBackends {
		sch, err := engine.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		inner := sch.New()
		dec, _, err := decorate(inner)
		if err != nil {
			t.Fatal(err)
		}
		_, innerSharded := inner.(engine.Sharded)
		_, decSharded := dec.(engine.Sharded)
		if innerSharded != decSharded {
			t.Errorf("%s: backend sharded %v, decorator sharded %v", b, innerSharded, decSharded)
		}
	}
}

func TestResultDigestIgnoresRingStats(t *testing.T) {
	a := platch.ConcurrentResult{Benchmark: "gcc", Events: 10, FlaggedEvents: 3}
	b := a
	b.Ring.ProducerStalls = 99
	if resultDigest(a) != resultDigest(b) {
		t.Error("ring stats changed the digest")
	}
	b.FlaggedEvents = 4
	if resultDigest(a) == resultDigest(b) {
		t.Error("a deterministic field did not change the digest")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10_000, 99.9, true},
		{9_999, 99, true},
		{1_000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{99, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1: the order must not matter
	}
	p, v, ok := tail(xs)
	if !ok || p != 99 || v < 990 || v > 991 {
		t.Errorf("tail of 1..1000 = p%v %v %v; want p99 in [990, 991]", p, v, ok)
	}
	if _, _, ok := tail(xs[:50]); ok {
		t.Error("tail of 50 samples should have no percentile with ten samples beyond it")
	}
}

func TestSplitReconciles(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tb := &timedBackend{
		start:       t0,
		initEnd:     t0.Add(10 * time.Millisecond),
		finishStart: t0.Add(100 * time.Millisecond),
		step:        30 * time.Millisecond,
		finish:      5 * time.Millisecond,
	}
	sp := tb.splitAt(t0.Add(106 * time.Millisecond))
	want := split{
		Wall:   106 * time.Millisecond,
		Setup:  10 * time.Millisecond,
		Stream: 60 * time.Millisecond,
		Step:   30 * time.Millisecond,
		Finish: 5 * time.Millisecond,
	}
	if sp != want {
		t.Fatalf("split = %+v, want %+v", sp, want)
	}
	if u := sp.Unattributed(); u != time.Millisecond {
		t.Errorf("unattributed = %v, want 1ms", u)
	}
}

func TestLatchCountsRatios(t *testing.T) {
	l := newLatchCounts()
	l.add("slatch", 1000, telemetry.Snapshot{CoarseChecks: 400, ResolvedTLB: 300, ResolvedPrecise: 20, CTCMisses: 8, CoarsePositives: 50, FalsePositives: 10})
	l.add("slatch", 1000, telemetry.Snapshot{CoarseChecks: 100, ResolvedTLB: 100})
	layers := map[string]float64{}
	l.report(layers)
	for name, want := range map[string]float64{
		"latch.checks_per_event.slatch":    0.25,
		"latch.tlb_resolved_frac.slatch":   0.8,
		"latch.precise_frac.slatch":        0.04,
		"latch.ctc_miss_frac.slatch":       0.016,
		"latch.false_positive_frac.slatch": 0.2,
	} {
		if got := layers[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	fp := fingerprint{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GitRev: "aaa"}
	res := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"setup_s": {1, "s"}}}
	base := record{Fingerprint: fp, Workload: "replay-long", Result: res}

	head := base
	head.Fingerprint.GitRev = "bbb" // another commit on the same host compares
	var out bytes.Buffer
	if err := compareRecords(&out, base, head); err != nil {
		t.Fatalf("same host refused: %v", err)
	}

	for _, mutate := range []func(*fingerprint){
		func(f *fingerprint) { f.CPUModel = "cpu B" },
		func(f *fingerprint) { f.NProc = 4 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GoVersion = "go1.23.0" },
	} {
		head := base
		mutate(&head.Fingerprint)
		err := compareRecords(&out, base, head)
		if err == nil || !strings.Contains(err.Error(), "different hosts") {
			t.Errorf("fingerprint %+v vs %+v: err = %v, want a different-hosts refusal", base.Fingerprint, head.Fingerprint, err)
		}
	}
}

func TestCheckerRecordedThenSeen(t *testing.T) {
	c := newChecker(map[string]string{"k": "good"})
	if !c.check("k", "good") || c.check("k", "bad") {
		t.Error("recorded digest not enforced")
	}
	if !c.check("x", "1") || !c.check("x", "1") || c.check("x", "2") {
		t.Error("op-to-op consistency not enforced")
	}
	if c.requireRecorded("x") || !c.requireRecorded("k") {
		t.Error("requireRecorded wrong")
	}
	if n := len(c.failureList()); n != 3 {
		t.Errorf("%d failures recorded, want 3", n)
	}
}

func TestGeneratedProgramRunsBothPaths(t *testing.T) {
	progs, err := seededPrograms(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		res, err := libraryProgram(p.source, p.input)
		if err != nil {
			t.Fatal(err)
		}
		if res.exit != 0 || res.violation != "" {
			t.Errorf("program %d: exit %d violation %q, want a clean exit", i, res.exit, res.violation)
		}
		if res.steps < 1_300_000 || res.steps > 1_600_000 {
			t.Errorf("program %d ran %d steps, want about 1.4M", i, res.steps)
		}
		if f := res.snap.FastLoopSteps; f == 0 || f >= res.steps {
			t.Errorf("program %d: %d of %d steps in the fast loop, want some but not all", i, f, res.steps)
		}
		if res.snap.FileSourceBytes != 64 {
			t.Errorf("program %d read %d tainted bytes, want 64", i, res.snap.FileSourceBytes)
		}
	}
}

func TestServeMixedSmoke(t *testing.T) {
	e := &env{root: "..", seed: 7, check: newChecker(mustDigests(t))}
	s := newServeMixed(e)
	defer s.close()
	if err := s.setUp(); err != nil {
		t.Fatal(err)
	}
	ph := s.run(time.Now(), true)
	if ph.ops != serveClients || ph.failed != 0 || len(e.check.failureList()) != 0 {
		t.Fatalf("ops %d failed %d: %v", ph.ops, ph.failed, e.check.failureList())
	}
	if ph.layers["vm.fast_loop_frac"] <= 0 || ph.layers["serve.exec_ms.p50.run"] <= 0 || ph.layers["serve.wait_ms.p50.program"] <= 0 {
		t.Errorf("serve layers not measured: %v", ph.layers)
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	d := mustDigests(t)
	key := "serve-run/slatch/gcc/200000"
	if _, ok := d[key]; !ok {
		t.Fatalf("no recorded digest %s", key)
	}
	d[key] = "corrupted"
	e := &env{root: "..", seed: defaultSeed, check: newChecker(d)}
	s := newServeMixed(e)
	defer s.close()
	if err := s.setUp(); err == nil {
		t.Fatal("set-up accepted a corrupted digest")
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

func mustDigests(t *testing.T) map[string]string {
	t.Helper()
	d, err := loadDigests("../" + digestFile)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProbesFillTheirGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalog once")
	}
	e := &env{root: "..", seed: 7, check: newChecker(mustDigests(t))}
	for _, p := range layerProbes {
		layers := make(map[string]float64)
		if err := p.run(e, layers); err != nil {
			t.Fatal(err)
		}
		for _, d := range p.metrics() {
			v, ok := layers[d.Name]
			if !ok {
				t.Errorf("probe left %s unmeasured", d.Name)
			}
			if (d.Unit == "ms" || d.Unit == "ns" || d.Unit == "s") && v <= 0 {
				t.Errorf("probe measured %s = %v", d.Name, v)
			}
		}
	}
	if f := e.check.failureList(); len(f) > 0 {
		t.Errorf("probe outputs failed their checks: %v", f)
	}
}
