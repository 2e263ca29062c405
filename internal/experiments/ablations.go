package experiments

import (
	"fmt"
	"strings"

	"latch/internal/engine"
	"latch/internal/hlatch"
	"latch/internal/latch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/stats"
	"latch/internal/trace"
	"latch/internal/workload"
)

// Ablation studies for the design choices DESIGN.md §5 calls out. These go
// beyond the paper's published evaluation: they vary one parameter of the
// LATCH design at a time and measure its effect on a representative
// benchmark mix (a well-behaved program, a fragmented one, and a server).
//
// Each benchmark's full parameter sweep is one pool job: the sweep shares
// nothing across benchmarks, and the per-job derived seed keeps the row
// independent of scheduling.

// ablationBenchmarks is the mix used by all sweeps.
var ablationBenchmarks = []string{"gcc", "sphinx3", "apache"}

// Axis is one sweepable configuration parameter of a paper scheme. The
// ablation sweeps below and the paper grid's geometry cells both reach a
// scheme's config through this table, so which field an axis name sets is
// decided in one place.
type Axis struct {
	// Name is the axis name grid files use.
	Name string
	// Scheme is the registered backend whose config carries the axis.
	Scheme string
	// set builds the scheme's paper-default backend with the axis at v.
	set func(v int) engine.Backend
}

// Axes is the axis table.
var Axes = []Axis{
	{"ctc_entries", "hlatch", func(v int) engine.Backend {
		cfg := hlatch.DefaultConfig()
		cfg.Latch.CTCEntries = v
		return hlatch.NewBackend(cfg)
	}},
	{"domain_size", "hlatch", func(v int) engine.Backend {
		cfg := hlatch.DefaultConfig()
		cfg.Latch.DomainSize = uint32(v)
		return hlatch.NewBackend(cfg)
	}},
	{"timeout", "slatch", func(v int) engine.Backend {
		cfg := slatch.DefaultConfig()
		cfg.Costs.TimeoutInstrs = uint64(v)
		return slatch.NewBackend(cfg)
	}},
	{"queue_depth", "platch", func(v int) engine.Backend {
		cfg := platch.DefaultConfig()
		cfg.QueueDepth = v
		return platch.NewBackend(cfg)
	}},
}

// LookupAxis finds an axis of the table by name.
func LookupAxis(name string) (Axis, error) {
	names := make([]string, len(Axes))
	for i, a := range Axes {
		if a.Name == name {
			return a, nil
		}
		names[i] = a.Name
	}
	return Axis{}, fmt.Errorf("unknown geometry axis %q (known: %s)", name, strings.Join(names, ", "))
}

// Backend builds the axis's scheme backend with the axis at v, rejecting a
// value the scheme's configuration cannot take before anything runs.
func (a Axis) Backend(v int) (engine.Backend, error) {
	if v < 1 {
		return nil, fmt.Errorf("axis values must be positive, got %d", v)
	}
	b := a.set(v)
	if err := b.Config().Validate(); err != nil {
		return nil, fmt.Errorf("%s=%d: %w", a.Name, v, err)
	}
	return b, nil
}

// sweep is a single-axis ablation: one table row per benchmark, one column
// per axis value. Each benchmark's full sweep is one pool job, run on a
// quarter of the configured stream and observed by the sweep's pass
// registry.
type sweep struct {
	pass, title string
	axis        string
	values      []int
	column      string // column header, formatted with the value
	benchmarks  []string
	cell        func(engine.Result) any
}

// The single-axis sweeps of the Catalog.
var (
	// ablationDomain sweeps the taint-domain granularity (§4.1's central
	// trade-off): smaller domains need more CTT words and CTC reach but
	// produce fewer false positives; larger domains compress better but mix
	// clean and tainted bytes.
	ablationDomain = sweep{
		pass:       "ablation-domain",
		title:      "Ablation: taint-domain size (H-LATCH, combined miss % | false positives per 1K checks)",
		axis:       "domain_size",
		values:     []int{8, 16, 32, 64, 128, 256},
		column:     "%dB",
		benchmarks: ablationBenchmarks,
		cell: func(res engine.Result) any {
			hr := res.(hlatch.Result)
			fpPerK := 1000 * float64(hr.Latch.FalsePositives) / float64(hr.Checks)
			return fmt.Sprintf("%s|%s", stats.FormatFloat(hr.CombinedMissPct), stats.FormatFloat(fpPerK))
		},
	}
	// ablationTimeout sweeps the S-LATCH software-mode timeout (§5.1.3
	// fixes 1000 instructions): too short thrashes on mode switches, too
	// long wastes instrumented execution on taint-free code.
	ablationTimeout = sweep{
		pass:       "ablation-timeout",
		title:      "Ablation: S-LATCH timeout in instructions (overhead over native)",
		axis:       "timeout",
		values:     []int{10, 100, 500, 1000, 5000, 20000},
		column:     "%d",
		benchmarks: ablationBenchmarks,
		cell:       func(res engine.Result) any { return res.(slatch.Result).Overhead() },
	}
	// ablationCTC sweeps the Coarse Taint Cache capacity; the paper's 16
	// entries (64 B of payload) suffice because coarse words cover 2 KiB
	// each and tainted working sets are small (§4.1).
	ablationCTC = sweep{
		pass:       "ablation-ctc",
		title:      "Ablation: CTC entries (H-LATCH CTC miss %)",
		axis:       "ctc_entries",
		values:     []int{2, 4, 8, 16, 32, 64},
		column:     "%d entries",
		benchmarks: []string{"gcc", "sphinx3", "apache", "astar"},
		cell:       func(res engine.Result) any { return res.(hlatch.Result).CTCMissPct },
	}
	// ablationQueue sweeps the P-LATCH shared-FIFO depth in the queue
	// simulation: deeper queues absorb longer bursts before the monitored
	// core stalls (§5.2).
	ablationQueue = sweep{
		pass:       "ablation-queue",
		title:      "Ablation: P-LATCH queue depth (queue-sim overhead, simple LBA)",
		axis:       "queue_depth",
		values:     []int{16, 64, 256, 1024, 4096},
		column:     "depth %d",
		benchmarks: []string{"gcc", "sphinx3", "apache", "astar"},
		cell:       func(res engine.Result) any { return res.(platch.Result).QueueOverheadSimple },
	}
)

// table runs the sweep and renders its table.
func (sw sweep) table(r *Runner) (*stats.Table, error) {
	ax, err := LookupAxis(sw.axis)
	if err != nil {
		return nil, err
	}
	header := []string{"benchmark"}
	for _, v := range sw.values {
		header = append(header, fmt.Sprintf(sw.column, v))
	}
	t := stats.NewTable(sw.title, header...)
	err = r.runRows(t, sw.pass, sw.benchmarks, func(i int, name string, js *JobStat) ([]any, error) {
		p, err := r.jobProfile(sw.pass, name)
		if err != nil {
			return nil, err
		}
		opts := engine.RunOptions{Events: r.opts.Events / 4, Observer: r.passObserver(sw.pass)}
		row := []any{name}
		for _, v := range sw.values {
			b, err := ax.Backend(v)
			if err != nil {
				return nil, err
			}
			res, err := r.runProfile(b, p, opts)
			if err != nil {
				return nil, err
			}
			js.Events += res.EventCount()
			js.Checks += res.CheckCount()
			row = append(row, sw.cell(res))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationClearBits isolates the §5.1.4 clear-bit machinery: a churning
// workload retires taint from whole domains over time; with lazy clear bits
// plus periodic scans (the timeout returns) the CTT tracks the precise
// state, while with clears disabled the coarse state only ever grows and
// every retired domain remains a permanent false-positive source.
func (r *Runner) AblationClearBits() (*stats.Table, error) {
	t := stats.NewTable("Ablation: clear-bit machinery (coarse domains marked vs truly tainted after a churning run)",
		"benchmark", "truly tainted", "marked (eager)", "marked (lazy+scan)", "marked (no clear)", "stale % (no clear)")
	err := r.runRows(t, "ablation-clear", ablationBenchmarks, func(i int, name string, js *JobStat) ([]any, error) {
		p, err := r.jobProfile("ablation-clear", name)
		if err != nil {
			return nil, err
		}
		// Boost churn so domain retirement is the dominant effect.
		p.ChurnProb = 0.8
		p.TaintReuse = 4

		type outcome struct {
			marked, truth int
		}
		run := func(clear latch.ClearPolicy) (outcome, error) {
			cfg := latch.DefaultConfig()
			cfg.Clear = clear
			cfg.BaselineTCache = false
			s, err := r.free.session(cfg)
			if err != nil {
				return outcome{}, err
			}
			defer r.free.putSession(s)
			s.Recycle()
			m, sh := s.Module, s.Shadow
			m.SetObserver(r.passObserver("ablation-clear"))
			g, err := workload.NewSampledGeneratorOn(p, sh, r.sampling())
			if err != nil {
				return outcome{}, err
			}
			var n uint64
			g.Run(r.opts.Events/4, trace.SinkFunc(func(ev trace.Event) {
				n++
				if clear == latch.LazyClear && n%10_000 == 0 {
					// Model the periodic timeout returns that trigger the
					// resident clear-bit scan.
					m.ScanResidentClears()
				}
			}))
			js.Events += n
			if clear == latch.LazyClear {
				m.ScanResidentClears()
			}
			// Ground truth: the domains that still hold taint.
			return outcome{marked: m.CTT().TaintedDomains(), truth: sh.TaintedDomains()}, nil
		}

		eager, err := run(latch.EagerClear)
		if err != nil {
			return nil, err
		}
		lazy, err := run(latch.LazyClear)
		if err != nil {
			return nil, err
		}
		none, err := run(latch.NoClear)
		if err != nil {
			return nil, err
		}
		stale := 0.0
		if none.marked > 0 {
			stale = 100 * float64(none.marked-none.truth) / float64(none.marked)
		}
		return []any{name, eager.truth, eager.marked, lazy.marked, none.marked, stale}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
