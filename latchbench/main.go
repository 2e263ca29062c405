// Command latchbench is the repository's end-to-end benchmark. It runs one
// of three workloads in-process — paper-catalog, replay-long, serve-mixed —
// for a fixed time, checks every output against this commit's goldens and
// recorded digests, and prints one JSON result line: the end-to-end metrics
// with --trace 0, the per-layer split with --trace 1. See README.md.
//
//	go run . --workload replay-long --seed 1 --seconds 25 --trace 0 --root ..
//	go run . compare base.json head.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"latch"
)

// defaultSeed reproduces the goldens and the recorded digests; any other
// seed derives fresh inputs, checked for op-to-op consistency instead.
const defaultSeed = 1

// setupReps is how often a run sets its workload up; setup_s is the median.
const setupReps = 3

// env is what every workload shares.
type env struct {
	root  string
	seed  int64
	check *checker
}

// benchWorkload is one workload of the benchmark.
type benchWorkload interface {
	// setUp prepares the workload, replacing any earlier set-up.
	setUp() error
	// run drives ops until the deadline and reports what they did.
	run(deadline time.Time, traced bool) phase
	close()
}

var workloadNames = []string{"paper-catalog", "replay-long", "serve-mixed"}

func newWorkload(name string, e *env) (benchWorkload, error) {
	switch name {
	case "paper-catalog":
		return newPaperCatalog(e), nil
	case "replay-long":
		return newReplayLong(e), nil
	case "serve-mixed":
		return newServeMixed(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("latchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the default reproduces the goldens and digests")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	root := fs.String("root", ".", "repository root")
	out := fs.String("out", "", "also write the full result, with the host fingerprint, to this file")
	recordDigestsFlag := fs.Bool("record-digests", false, "recompute "+digestFile+" at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordDigestsFlag {
		if err := recordDigests(*root); err != nil {
			fmt.Fprintln(stderr, "latchbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "latchbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	recorded, err := loadDigests(filepath.Join(*root, digestFile))
	if err != nil {
		fmt.Fprintln(stderr, "latchbench:", err)
		return 1
	}
	e := &env{root: *root, seed: *seed, check: newChecker(recorded)}
	w, err := newWorkload(*name, e)
	if err != nil {
		fmt.Fprintln(stderr, "latchbench:", err)
		return 2
	}
	defer w.close()

	var setupS, setupWallS []float64
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), processCPU()
		if err := w.setUp(); err != nil {
			fmt.Fprintln(stderr, "latchbench: set-up:", err)
			printFailures(stderr, e.check)
			return 1
		}
		setupS = append(setupS, (processCPU() - c0).Seconds())
		setupWallS = append(setupWallS, time.Since(t0).Seconds())
	}

	dur := time.Duration(*seconds) * time.Second
	traced := *traceFlag == 1
	var res resultLine
	var det details
	if traced {
		res, det, err = tracedRun(w, e, dur)
	} else {
		ph := measure(w, dur, false)
		det = ph.details
		res, err = buildResult(endToEnd, map[string]float64{
			"setup_s":          median(setupS),
			"cpu_ms_per_op":    ph.cpuMSPerOp(),
			"alloc_mb_per_op":  frac(ph.gd.AllocBytes, float64(ph.ops)) / 1e6,
			"heap_retained_mb": ph.gd.HeapRetained / 1e6,
		}, ph.ops, ph.failed)
		det.set("ops", float64(ph.ops), "count")
		det.set("measured_s", ph.wall.Seconds(), "s")
		det.set("ops_per_s", ph.opsPerSec(), "1/s")
		det.set("op_ms.p50", median(ph.latMS), "ms")
		if p, v, ok := tail(ph.latMS); ok {
			det.set(fmt.Sprintf("op_ms.p%g", p), v, "ms")
		}
		det.set("setup_wall_s", median(setupWallS), "s")
	}
	if err != nil {
		fmt.Fprintln(stderr, "latchbench:", err)
		return 1
	}
	if len(e.check.failureList()) > 0 {
		res.Correct = false
	}

	fp := hostFingerprint(*root)
	fmt.Fprintf(stdout, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s git=%s source=%s\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GitRev, fp.SourceSHA)
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *traceFlag)
	det.print(stdout)
	if *out != "" {
		rec := record{Fingerprint: fp, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: traced, Result: res, Details: det}
		if err := writeJSONFile(*out, rec); err != nil {
			fmt.Fprintln(stderr, "latchbench:", err)
			return 1
		}
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "latchbench:", err)
		return 1
	}
	if !res.Correct {
		printFailures(stderr, e.check)
		return 1
	}
	return 0
}

// measure runs one phase inside a Go runtime window.
func measure(w benchWorkload, dur time.Duration, traced bool) phase {
	gw := startGoWindow()
	ph := w.run(time.Now().Add(dur), traced)
	ph.gd = gw.stop()
	return ph
}

// tracedRun produces the per-layer result: the profile probes, then an
// untraced and a traced phase of half the run each, then the probes of the
// layer groups the workload does not drive. The two phases run the same
// inputs through the same checker, so a traced op whose simulated counts
// differ from the untraced op's fails the run; their difference in CPU
// time per op is the tracing overhead.
func tracedRun(w benchWorkload, e *env, dur time.Duration) (resultLine, details, error) {
	layers := make(map[string]float64)
	if err := probeProfiles(layers); err != nil {
		return resultLine{}, nil, err
	}
	plain := measure(w, dur/2, false)
	tr := measure(w, dur/2, true)
	listed := make(map[string]bool)
	for _, d := range perLayer() {
		listed[d.Name] = true
	}
	for k, v := range tr.layers {
		if !listed[k] {
			return resultLine{}, nil, fmt.Errorf("workload reported unlisted per-layer metric %s", k)
		}
		layers[k] = v
	}
	layers["go.gc_cpu_frac"] = frac(tr.gd.GCCPU, tr.gd.ProcCPU.Seconds())
	layers["go.gc_cycles_per_op"] = frac(tr.gd.GCCycles, float64(tr.ops))
	layers["trace.overhead_frac"] = frac(tr.cpuMSPerOp(), plain.cpuMSPerOp()) - 1
	for _, p := range layerProbes {
		if !missingAny(layers, p.metrics()) {
			continue
		}
		got := make(map[string]float64)
		if err := p.run(e, got); err != nil {
			return resultLine{}, nil, err
		}
		for _, d := range p.metrics() {
			if _, ok := layers[d.Name]; !ok {
				layers[d.Name] = got[d.Name]
			}
		}
	}
	det := tr.details
	det.set("untraced_cpu_ms_per_op", plain.cpuMSPerOp(), "ms")
	det.set("traced_cpu_ms_per_op", tr.cpuMSPerOp(), "ms")
	res, err := buildResult(perLayer(), layers, plain.ops+tr.ops, plain.failed+tr.failed)
	return res, det, err
}

func missingAny(layers map[string]float64, defs []metricDef) bool {
	for _, d := range defs {
		if _, ok := layers[d.Name]; !ok {
			return true
		}
	}
	return false
}

func printFailures(w io.Writer, c *checker) {
	f := c.failureList()
	const show = 20
	for i, msg := range f {
		if i == show {
			fmt.Fprintf(w, "... and %d more failures\n", len(f)-show)
			break
		}
		fmt.Fprintln(w, "FAIL:", msg)
	}
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: latchbench compare <base.json> <head.json>")
		return 2
	}
	base, err := readRecord(args[0])
	if err == nil {
		var head record
		if head, err = readRecord(args[1]); err == nil {
			err = compareRecords(stdout, base, head)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "latchbench:", err)
		return 1
	}
	return 0
}

// recordDigests recomputes every digest the default seed checks against:
// the replay-long ops, and the serve-mixed library-path jobs.
func recordDigests(root string) error {
	m := make(map[string]string)
	e := &env{root: root, seed: defaultSeed, check: newChecker(nil)}
	r := newReplayLong(e)
	for _, c := range combos(defaultSeed) {
		res, err := latch.Run(context.Background(), r.request(c, replayEvents))
		if err != nil {
			return err
		}
		m[r.key(c, replayEvents)] = resultDigest(res)
		res, err = latch.Run(context.Background(), latch.RunRequest{
			Backend: c.backend, Workload: c.profile, Events: serveRunEvents, Shards: c.shards(),
		})
		if err != nil {
			return err
		}
		m[serveRunKey(c)] = resultDigest(res)
	}
	progs, err := seededPrograms(defaultSeed)
	if err != nil {
		return err
	}
	for i, p := range progs {
		m[fmt.Sprintf("serve-program/%d/%d", defaultSeed, i)] = bytesDigest([]byte(p.want))
	}
	return saveDigests(filepath.Join(root, digestFile), m)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
