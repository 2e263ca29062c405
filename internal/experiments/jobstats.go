package experiments

import (
	"sort"
	"time"

	"latch/internal/pool"
	"latch/internal/stats"
)

// JobStat is the per-job accounting record of one unit of parallel work:
// one (pass, workload) pair executed by the worker pool.
//
// The struct is split along the determinism boundary the paper pipeline
// depends on: the top-level fields are pure functions of the job's
// identity and seed (byte-identical across reruns, worker counts, and
// machines), while everything wall-clock lives in Timing — telemetry-only,
// excluded from JSON, and never allowed into the deterministic CSV or
// analysis outputs (paperrun pins this with a same-seed byte-identity
// test).
type JobStat struct {
	Pass   string `json:"pass"`   // simulation pass or experiment id
	Job    string `json:"job"`    // workload or scenario name
	Events uint64 `json:"events"` // instructions simulated, when the pass reports it
	Checks uint64 `json:"checks"` // coarse taint checks performed, when reported

	// Timing is the telemetry-only section: real elapsed time, which
	// depends on the machine, the scheduler, and the worker count. It is
	// deliberately not serialized with the record.
	Timing JobTiming `json:"-"`
}

// JobTiming holds a job's wall-clock accounting. With several workers the
// jobs overlap, so the sum of Wall across jobs exceeds the harness's
// elapsed time by roughly the achieved speedup.
type JobTiming struct {
	Wall time.Duration // elapsed time of this job alone
}

// record appends one completed job's accounting.
func (r *Runner) record(js JobStat) {
	r.jobMu.Lock()
	r.jobs = append(r.jobs, js)
	r.jobMu.Unlock()
}

// JobStats returns a copy of every recorded job, sorted by (pass, job) so
// the listing is stable regardless of worker interleaving.
func (r *Runner) JobStats() []JobStat {
	r.jobMu.Lock()
	out := append([]JobStat(nil), r.jobs...)
	r.jobMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// StatsSummary renders the per-pass aggregation of the recorded jobs: how
// many jobs each pass fanned out, how much simulation they performed, and
// how much per-job time they consumed. The CLI prints it under -stats so a
// run's parallel speedup (sum of job time vs. elapsed time) is observable.
func (r *Runner) StatsSummary() *stats.Table {
	t := stats.NewTable("Per-pass job statistics (job time sums over workers; elapsed time is lower when they overlap)",
		"pass", "jobs", "instructions", "coarse checks", "job time", "max job")
	jobs := r.JobStats()
	type agg struct {
		jobs           int
		events, checks uint64
		total, longest time.Duration
	}
	byPass := map[string]*agg{}
	var order []string
	for _, js := range jobs {
		a := byPass[js.Pass]
		if a == nil {
			a = &agg{}
			byPass[js.Pass] = a
			order = append(order, js.Pass)
		}
		a.jobs++
		a.events += js.Events
		a.checks += js.Checks
		a.total += js.Timing.Wall
		if js.Timing.Wall > a.longest {
			a.longest = js.Timing.Wall
		}
	}
	var grand agg
	for _, pass := range order {
		a := byPass[pass]
		t.AddRowf(pass, a.jobs, a.events, a.checks,
			a.total.Round(time.Millisecond).String(),
			a.longest.Round(time.Millisecond).String())
		grand.jobs += a.jobs
		grand.events += a.events
		grand.checks += a.checks
		grand.total += a.total
		if a.longest > grand.longest {
			grand.longest = a.longest
		}
	}
	t.AddRowf("TOTAL", grand.jobs, grand.events, grand.checks,
		grand.total.Round(time.Millisecond).String(),
		grand.longest.Round(time.Millisecond).String())
	return t
}

// runJobs fans the named jobs of one pass out on the Runner's worker pool.
// The job callback fills its result slot by index and may report Events and
// Checks through the provided JobStat, which runJobs completes with timing
// and records on success.
func (r *Runner) runJobs(pass string, names []string, job func(i int, name string, js *JobStat) error) error {
	return pool.Run(r.opts.Workers, len(names), func(i int) error {
		js := JobStat{Pass: pass, Job: names[i]}
		start := time.Now()
		if err := job(i, names[i], &js); err != nil {
			return err
		}
		js.Timing.Wall = time.Since(start)
		r.record(js)
		return nil
	})
}

// runRows is runJobs for passes that yield one table row per job: it adds
// the rows to t in job order once every job has succeeded, so the table is
// the same for any worker count.
func (r *Runner) runRows(t *stats.Table, pass string, names []string, job func(i int, name string, js *JobStat) ([]any, error)) error {
	rows := make([][]any, len(names))
	err := r.runJobs(pass, names, func(i int, name string, js *JobStat) error {
		row, err := job(i, name, js)
		rows[i] = row
		return err
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.AddRowf(row...)
	}
	return nil
}
