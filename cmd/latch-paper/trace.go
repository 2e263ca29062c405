package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"latch/internal/experiments"
	"latch/internal/shadow"
	"latch/internal/stats"
	"latch/internal/trace"
	"latch/internal/workload"
)

// cmdTrace prints one benchmark stream's locality — taint %, page
// footprint, and the Figure 5 and 6 rows from the catalog's own sinks. It
// returns the exit status: 2 for a usage error, 1 for a failed run.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list benchmark names and exit")
		bench   = fs.String("bench", "", "benchmark name")
		events  = fs.Uint64("events", 4_000_000, "stream length in instructions")
		dump    = fs.String("dump", "", "also serialize the stream to this trace file")
		replay  = fs.String("replay", "", "analyze a previously dumped trace file instead of generating")
		profile = fs.String("profile", "", "load a custom benchmark profile from a JSON file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The stream sources are exclusive: naming two would leave one unused.
	sources := 0
	for _, src := range []string{*replay, *profile, *bench} {
		if src != "" {
			sources++
		}
	}
	if sources > 1 {
		return fail(stderr, 2, errors.New("-replay, -profile and -bench are exclusive; give one"))
	}

	if *list {
		for _, name := range workload.Names() {
			p := workload.MustGet(name)
			fmt.Fprintf(stdout, "%-10s %-9s taint=%5.2f%% pages=%d/%d\n",
				name, p.Suite, p.TaintPct, p.PagesTainted, p.PagesAccessed)
		}
		return 0
	}
	if *replay != "" {
		if err := replayTrace(stdout, *replay); err != nil {
			return fail(stderr, 1, err)
		}
		return 0
	}
	var p workload.Profile
	switch {
	case *profile != "":
		data, err := os.ReadFile(*profile)
		if err == nil {
			p, err = workload.ReadProfile(bytes.NewReader(data))
		}
		if err != nil {
			return fail(stderr, 2, err)
		}
	case *bench != "":
		var err error
		if p, err = workload.Get(*bench); err != nil {
			return fail(stderr, 2, err)
		}
	default:
		return fail(stderr, 2, errors.New("-bench or -profile is required (see -list)"))
	}
	g, err := workload.NewGenerator(p, shadow.DefaultDomainSize)
	if err != nil {
		return fail(stderr, 1, err)
	}
	sh := g.Shadow()

	analyzer := trace.NewEpochAnalyzer()
	sweep := &experiments.GranularitySweep{Shadow: sh}
	pagesSeen := make(map[uint32]bool)
	sinks := []trace.Sink{analyzer, sweep, trace.SinkFunc(func(ev trace.Event) {
		if ev.IsMem {
			pagesSeen[ev.Addr>>12] = true
		}
	})}
	var dumpFile *os.File
	var tw *trace.Writer
	if *dump != "" {
		if dumpFile, err = os.Create(*dump); err != nil {
			return fail(stderr, 1, err)
		}
		defer dumpFile.Close()
		if tw, err = trace.NewWriter(dumpFile); err != nil {
			return fail(stderr, 1, err)
		}
		sinks = append(sinks, tw)
	}
	g.Run(*events, trace.Tee(sinks...))
	analyzer.Finish()

	fmt.Fprintf(stdout, "benchmark: %s (%s)\n", p.Name, p.Suite)
	fmt.Fprintf(stdout, "instructions: %d, memory accesses: %d\n",
		analyzer.TotalInstructions(), sweep.MemAccesses)
	fmt.Fprintf(stdout, "tainted instructions: %.4f%% (paper: %.2f%%)\n",
		analyzer.TaintedPercent(), p.TaintPct)
	fmt.Fprintf(stdout, "taint-free epochs: %d (longest %d instructions)\n",
		analyzer.EpochCount(), analyzer.LongestEpoch())
	fmt.Fprintln(stdout, epochTable(analyzer).String())

	domains := sh.TaintedDomains()
	fmt.Fprintf(stdout, "footprint: %d pages declared, %d touched in this stream, %d tainted\n",
		p.PagesAccessed, len(pagesSeen), sh.EverTaintedPages())
	fmt.Fprintf(stdout, "tainted bytes: %d in %d taint domains (%d CTT words would be nonzero)\n",
		sh.TaintedBytes(), domains, (domains+31)/32)

	header := make([]string, len(experiments.Fig6Granularities))
	for i, gs := range experiments.Fig6Granularities {
		header[i] = fmt.Sprintf("%dB", gs)
	}
	ft := stats.NewTable("coarse taint detection multiplier vs. byte-precise:", header...)
	ft.AddRowf(sweep.Row()...)
	fmt.Fprintln(stdout, ft.String())

	if tw != nil {
		if err := tw.Flush(); err != nil {
			return fail(stderr, 1, err)
		}
		if err := dumpFile.Close(); err != nil {
			return fail(stderr, 1, err)
		}
		fmt.Fprintf(stdout, "dumped %d events to %s\n", tw.Count(), *dump)
	}
	return 0
}

// replayTrace re-analyzes a serialized event stream: epoch structure and
// taint percentage are recomputed from the records alone.
func replayTrace(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	analyzer := trace.NewEpochAnalyzer()
	n, err := r.Replay(analyzer)
	if err != nil {
		return err
	}
	analyzer.Finish()
	fmt.Fprintf(stdout, "replayed %d events from %s\n", n, path)
	fmt.Fprintf(stdout, "tainted instructions: %.4f%%\n", analyzer.TaintedPercent())
	fmt.Fprintf(stdout, "taint-free epochs: %d (longest %d)\n", analyzer.EpochCount(), analyzer.LongestEpoch())
	fmt.Fprintln(stdout, epochTable(analyzer).String())
	return nil
}

// epochTable renders an analyzer's epoch shares as one Figure 5 row.
func epochTable(a *trace.EpochAnalyzer) *stats.Table {
	t := stats.NewTable("instructions in taint-free epochs of at least:",
		">=100", ">=1K", ">=10K", ">=100K", ">=1M")
	t.AddRowf(experiments.EpochShareRow(a.EpochShares())...)
	return t
}
