package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"

	"latch/internal/experiments"
	"latch/internal/stats"
	"latch/internal/workload"
)

// metricHints explain which knob to turn when a metric drifts.
var metricHints = map[string]string{
	"taint %":     "derived from TaintPct/ActiveShare; check epoch classes if runs are short",
	"CTC miss %":  "NearTaintRandom (random wander defeats the 16-entry CTC); CleanNearTaint volume",
	"t$ miss %":   "TaintReuse (hit rate on true positives); BurstNearTaint (FP traffic)",
	"baseline %":  "HotFraction (walk accesses miss a 4-byte-line cache, hot-set accesses hit)",
	"avoided %":   "follows the other four; no dedicated knob",
	"tainted pgs": "PagesTainted (exact by construction)",
}

// cmdCalibrate compares the measured columns of Tables 1–4, 6 and 7 —
// the catalog's own temporal and H-LATCH passes — with the paper's values,
// naming the profile knob behind each residual. It returns the exit
// status: 2 for a usage error, 1 for a failed run or a flagged metric.
func cmdCalibrate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("bench", "", "audit a single benchmark (its suite's passes still run whole)")
		events = fs.Uint64("events", 0, "override stream length for the cache pass")
		epochs = fs.Uint64("epoch-events", 0, "override stream length for the taint-% pass")
		tol    = fs.Float64("tol", 3.0, "flag metrics off by more than this factor (at least 1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !(*tol >= 1) {
		return fail(stderr, 2, fmt.Errorf("-tol must be at least 1, got %g", *tol))
	}
	if _, err := workload.Get(*bench); *bench != "" && err != nil {
		return fail(stderr, 2, err)
	}

	runner := experiments.NewRunner(lengthOptions(*events, *epochs))

	flagged := 0
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteNetwork} {
		if *bench != "" && workload.MustGet(*bench).Suite != s {
			continue
		}
		temporal, err := runner.Temporal(s)
		if err != nil {
			return fail(stderr, 1, err)
		}
		cache, err := runner.HLatch(s)
		if err != nil {
			return fail(stderr, 1, err)
		}
		// Both passes list the suite in workload.BySuite order.
		for i, tr := range temporal {
			if *bench != "" && tr.Name != *bench {
				continue
			}
			p := workload.MustGet(tr.Name)
			ctc, tc, _, base, avoid, _ := experiments.PaperCachePerf(tr.Name)
			rows := []struct {
				metric           string
				measured, target float64
			}{
				{"taint %", tr.TaintPct, p.TaintPct},
				{"CTC miss %", cache[i].CTCMissPct, ctc},
				{"t$ miss %", cache[i].TCacheMissPct, tc},
				{"baseline %", cache[i].BaselineMissPct, base},
				{"avoided %", cache[i].AvoidedPct, avoid},
				{"tainted pgs", float64(tr.PagesTainted), float64(p.PagesTainted)},
			}

			fmt.Fprintf(stdout, "%s (%s)\n", tr.Name, p.Suite)
			for _, r := range rows {
				ratio, verdict := assess(r.measured, r.target, *tol)
				line := fmt.Sprintf("  %-11s measured %-10s target %-10s ratio %-8s %s",
					r.metric, stats.FormatFloat(r.measured), stats.FormatFloat(r.target),
					ratio, verdict)
				if verdict != "ok" {
					flagged++
					line += "\n              knob: " + metricHints[r.metric]
				}
				fmt.Fprintln(stdout, line)
			}
			fmt.Fprintln(stdout)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d metric(s) outside the %gx tolerance\n", flagged, *tol)
		return 1
	}
	fmt.Fprintln(stdout, "all metrics within tolerance")
	return 0
}

// assess compares measured to target, tolerating noise floors: sub-0.01%
// rates are effectively zero in short runs and compare on absolute
// difference instead of ratio.
func assess(measured, target, tol float64) (ratio string, verdict string) {
	const floor = 0.01
	if target <= floor && measured <= floor {
		return "~", "ok"
	}
	if target <= floor {
		if measured < 0.1 {
			return "~", "ok"
		}
		return "inf", "HIGH"
	}
	r := measured / target
	ratio = stats.FormatFloat(r)
	switch {
	case math.IsInf(r, 0) || r > tol:
		return ratio, "HIGH"
	case r < 1/tol:
		return ratio, "LOW"
	}
	return ratio, "ok"
}
