package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"latch/internal/experiments"
	"latch/internal/policy"
	"latch/internal/stats"
)

// cmdTables regenerates the selected catalog tables and returns the exit
// status: 2 for a usage error, 1 for a failed run.
func cmdTables(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list experiment ids and exit")
		exp         = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		events      = fs.Uint64("events", 0, "override stream length for cache/overhead experiments")
		epochEvents = fs.Uint64("epoch-events", 0, "override stream length for temporal experiments")
		format      = fs.String("format", "text", "output format: text, json, or markdown")
		chart       = fs.Bool("chart", false, "also render bar charts for figure experiments")
		workers     = fs.Int("workers", 0, "worker-pool size for per-benchmark jobs (0 = one per CPU)")
		backend     = fs.String("backend", "", "comma-separated registered backend names: render their registry-driven summary tables")
		showStats   = fs.Bool("stats", false, "print the per-pass job statistics table after the run")
		metricsOut  = fs.String("metrics", "", "write the per-pass telemetry registry to this file as JSON")
		polPath     = fs.String("policy", "", "JSON taint-policy file overlaid onto the default; applies to every pass")
		sampleFrac  = fs.Float64("sample", -1, "source-sampling fraction in [0,1] (selective tracing)")
		sampleSeed  = fs.Uint64("sample-seed", 0, "sampler seed for -sample (or to override the -policy file's)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *format != "text" && *format != "json" && *format != "markdown" {
		return fail(stderr, 2, fmt.Errorf("unknown format %q", *format))
	}

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := lengthOptions(*events, *epochEvents)
	opts.Workers = *workers
	pol, polGiven, err := policy.FromFlags(*polPath, *sampleFrac, *sampleSeed)
	if err != nil {
		return fail(stderr, 2, err)
	}
	if polGiven {
		opts.Policy = pol
	}
	runner := experiments.NewRunner(opts)

	selected := experiments.Catalog
	if *exp != "" || *backend != "" {
		selected = nil
		if *exp != "" {
			for _, id := range strings.Split(*exp, ",") {
				e, err := experiments.Lookup(strings.TrimSpace(id))
				if err != nil {
					return fail(stderr, 2, err)
				}
				selected = append(selected, e)
			}
		}
	}
	for _, name := range splitList(*backend) {
		name := name
		selected = append(selected, experiments.Experiment{
			ID:    "backend-" + name,
			Title: "Backend summary: " + name,
			Run:   func(r *experiments.Runner) (*stats.Table, error) { return r.BackendTable(name) },
		})
	}

	enc := json.NewEncoder(stdout)
	runStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			return fail(stderr, 1, fmt.Errorf("%s: %v", e.ID, err))
		}
		switch *format {
		case "markdown":
			fmt.Fprintln(stdout, table.Markdown())
		case "json":
			if err := enc.Encode(struct {
				ID    string       `json:"id"`
				Table *stats.Table `json:"table"`
			}{e.ID, table}); err != nil {
				return fail(stderr, 1, err)
			}
		default:
			fmt.Fprintln(stdout, table.String())
			if *chart {
				if c, ok := experiments.Chart(e.ID, table); ok {
					fmt.Fprintln(stdout, c)
				}
			}
			fmt.Fprintf(stdout, "[%s regenerated in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if *showStats {
		nw := opts.Workers
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		elapsed := time.Since(runStart).Round(time.Millisecond)
		table := runner.StatsSummary()
		switch *format {
		case "json":
			// One more object on the same stream, shaped like the experiment
			// records plus the run-level fields, so stdout stays a valid
			// JSON-lines document.
			if err := enc.Encode(struct {
				ID        string       `json:"id"`
				Table     *stats.Table `json:"table"`
				ElapsedMS int64        `json:"elapsed_ms"`
				Workers   int          `json:"workers"`
			}{"jobstats", table, elapsed.Milliseconds(), nw}); err != nil {
				return fail(stderr, 1, err)
			}
		case "markdown":
			fmt.Fprintln(stdout, table.Markdown())
			fmt.Fprintf(stdout, "[run elapsed %v with %d workers]\n", elapsed, nw)
		default:
			fmt.Fprintln(stdout, table.String())
			fmt.Fprintf(stdout, "[run elapsed %v with %d workers]\n", elapsed, nw)
		}
	}
	if *metricsOut != "" {
		data, err := json.MarshalIndent(runner.MetricsReport(), "", "  ")
		if err != nil {
			return fail(stderr, 1, err)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			return fail(stderr, 1, err)
		}
	}
	return 0
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// lengthOptions returns the default options with each stream length that
// is nonzero overriding its default: the -events/-epoch-events rule.
func lengthOptions(events, epochEvents uint64) experiments.Options {
	opts := experiments.DefaultOptions()
	if events > 0 {
		opts.Events = events
	}
	if epochEvents > 0 {
		opts.EpochEvents = epochEvents
	}
	return opts
}

// fail prints err to w and returns code, the exit status to stop with.
func fail(w io.Writer, code int, err error) int {
	fmt.Fprintln(w, err)
	return code
}
