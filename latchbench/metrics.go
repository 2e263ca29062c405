package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"latch/internal/stats"
)

// Backend and profile sets the benchmark drives. The profiles span taint
// density and footprint: lbm is sparse with a page footprint far beyond the
// 128-entry TLB, perlbench is dense in few pages, sphinx3 and astar put the
// precise path under load.
var (
	benchBackends = []string{"slatch", "platch", "hlatch", "cplatch"}
	benchProfiles = []string{"lbm", "gcc", "perlbench", "mysql", "sphinx3", "astar"}
	// catalogPasses are the experiments.Runner pass names one catalog
	// regeneration records in JobStats. An unknown pass fails the run, so
	// a new pass cannot silently drop out of the per-layer split.
	catalogPasses = []string{
		"ablation-clear", "ablation-ctc", "ablation-domain", "ablation-queue", "ablation-timeout",
		"attacks", "conventional", "cosim", "figure6", "hlatch", "pages", "pift",
		"platch", "platch-cosim", "sampling", "slatch", "temporal",
	}
	serveKinds = []string{"run", "program"}
)

// metricDef is one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics a user of the system sees, reported on every
// workload by the untraced run. What an "op" is depends on the workload
// (see README.md). Times are process CPU time: on a shared virtual host
// the wall clock also counts the time the hypervisor gives the CPUs to
// other guests, which varies from run to run by more than any bound a
// regression gate could use. Wall-clock figures are printed as details.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_retained_mb", "MB"},
}

// perLayer lists the traced run's metrics. Every traced run reports all of
// them: a group whose layers the workload does not drive is measured by
// that group's probe (see layerProbes).
func perLayer() []metricDef {
	var out []metricDef
	out = append(out, splitMetrics()...)
	out = append(out, metricDef{"trace.overhead_frac", "frac"})
	for _, p := range benchProfiles {
		out = append(out,
			metricDef{"workload.materialize_ms." + p, "ms"},
			metricDef{"workload.generate_ns_per_event." + p, "ns"},
			metricDef{"shadow.tainted_bytes." + p, "count"})
	}
	out = append(out, catalogMetrics()...)
	out = append(out, metricDef{"go.gc_cpu_frac", "frac"}, metricDef{"go.gc_cycles_per_op", "count"})
	return append(out, serveMetrics()...)
}

// splitMetrics come from decorated backend runs.
func splitMetrics() []metricDef {
	var out []metricDef
	for _, b := range benchBackends {
		out = append(out,
			metricDef{"engine.setup_ms." + b, "ms"},
			metricDef{"workload.stream_ns_per_event." + b, "ns"},
			metricDef{b + ".step_ns_per_event", "ns"},
			metricDef{b + ".finish_ms", "ms"})
	}
	out = append(out, metricDef{"trace.unattributed_frac", "frac"})
	for _, b := range benchBackends {
		out = append(out,
			metricDef{"latch.checks_per_event." + b, "count"},
			metricDef{"latch.tlb_resolved_frac." + b, "frac"},
			metricDef{"latch.ctc_miss_frac." + b, "frac"},
			metricDef{"latch.precise_frac." + b, "frac"},
			metricDef{"latch.false_positive_frac." + b, "frac"})
	}
	return append(out,
		metricDef{"ring.producer_stalls_per_mevent", "count"},
		metricDef{"ring.consumer_waits_per_mevent", "count"},
		metricDef{"ring.occupancy_mean", "count"},
		metricDef{"cplatch.flagged_frac", "frac"})
}

// catalogMetrics come from experiments.Runner job accounting.
func catalogMetrics() []metricDef {
	var out []metricDef
	for _, p := range catalogPasses {
		out = append(out, metricDef{"experiments.job_s." + p, "s"})
	}
	return append(out, metricDef{"experiments.max_job_s", "s"}, metricDef{"pool.busy_frac", "frac"})
}

// serveMetrics come from requests to an in-process server.
func serveMetrics() []metricDef {
	var out []metricDef
	for _, k := range serveKinds {
		out = append(out,
			metricDef{"serve.exec_ms.p50." + k, "ms"},
			metricDef{"serve.wait_ms.p50." + k, "ms"})
	}
	return append(out,
		metricDef{"pool.inflight_mean", "count"},
		metricDef{"vm.ns_per_instr", "ns"},
		metricDef{"vm.fast_loop_frac", "frac"})
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult fills the result line from measured values. Every name in
// defs must be present in vals: a metric the run forgot to measure is a
// benchmark bug, not a zero.
func buildResult(defs []metricDef, vals map[string]float64, attempted, failed int) (resultLine, error) {
	out := resultLine{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// writeResult prints the result line as one JSON object.
func writeResult(w io.Writer, r resultLine) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median is the 50th percentile; zero for no samples.
func median(xs []float64) float64 {
	v, err := stats.Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten of n samples beyond it; ok is false when none does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// The tolerance absorbs rounding in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail reports the highest percentile of xs with at least ten samples
// beyond it, through stats.Percentile.
func tail(xs []float64) (p, v float64, ok bool) {
	p, ok = tailPercentile(len(xs))
	if !ok {
		return 0, 0, false
	}
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0, 0, false
	}
	return p, v, true
}

// details are the extra, unbounded figures a run prints above its result
// line: wall-clock throughput and latencies, sample counts.
type details map[string]metricValue

func (d details) set(name string, v float64, unit string) { d[name] = metricValue{v, unit} }

// print writes the details sorted by name, one "# name value unit" line each.
func (d details) print(w io.Writer) {
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %s %.6g %s\n", n, d[n].Value, d[n].Unit)
	}
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
