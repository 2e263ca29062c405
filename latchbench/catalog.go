package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"latch/internal/experiments"
)

// Golden run lengths of internal/experiments/testdata, and the catalog's
// worker count (one per CPU of the 2-CPU reference host).
const (
	catalogEvents      = 60_000
	catalogEpochEvents = 400_000
	catalogFig6Events  = 80_000
	catalogWorkers     = 2
	// catalogWarmDivisor shrinks the set-up warm-up tables.
	catalogWarmDivisor = 10
)

// catalogWarmIDs are the tables the set-up regenerates, at a tenth of the
// golden run lengths: they touch the temporal, S-LATCH and H-LATCH passes.
// The whole catalog would cost as much as a timed pass, because its job
// set-up does not shrink with the run lengths.
var catalogWarmIDs = []string{"table1", "figure13", "table6"}

// paperCatalog regenerates every experiments.Catalog table on a fresh
// Runner per op, the way a researcher reproduces the paper.
type paperCatalog struct {
	env     *env
	salt    string
	goldens map[string]string // id -> golden table, at the default seed only
}

func newPaperCatalog(e *env) *paperCatalog {
	c := &paperCatalog{env: e}
	if e.seed != defaultSeed {
		c.salt = fmt.Sprintf("latchbench-%d", e.seed)
	}
	return c
}

func (c *paperCatalog) options(div uint64) experiments.Options {
	return experiments.Options{
		Events:      catalogEvents / div,
		EpochEvents: catalogEpochEvents / div,
		Fig6Events:  catalogFig6Events / div,
		Workers:     catalogWorkers,
		SeedSalt:    c.salt,
	}
}

// setUp loads the goldens and regenerates the warm-up tables, so that
// lazily built state and the heap have settled before the first timed pass.
func (c *paperCatalog) setUp() error {
	c.goldens = nil
	if c.env.seed == defaultSeed {
		c.goldens = make(map[string]string, len(experiments.Catalog))
		for _, e := range experiments.Catalog {
			b, err := os.ReadFile(filepath.Join(c.env.root, "internal", "experiments", "testdata", e.ID+".golden"))
			if err != nil {
				return err
			}
			c.goldens[e.ID] = string(b)
		}
	}
	r := experiments.NewRunner(c.options(catalogWarmDivisor))
	for _, id := range catalogWarmIDs {
		e, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		if _, err := e.Run(r); err != nil {
			return fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	return nil
}

func (c *paperCatalog) close() {}

// run regenerates the catalog until the deadline, at least once.
func (c *paperCatalog) run(deadline time.Time, traced bool) phase {
	ph := newPhase()
	jt := newJobTotals()
	start := time.Now()
	for ph.ops == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		r := experiments.NewRunner(c.options(1))
		ok := true
		for _, e := range experiments.Catalog {
			t, err := e.Run(r)
			if err != nil {
				c.env.check.fail("catalog %s: %v", e.ID, err)
				ok = false
				continue
			}
			got := t.String()
			if c.goldens != nil {
				if got != c.goldens[e.ID] {
					c.env.check.fail("catalog %s: table differs from %s.golden", e.ID, e.ID)
					ok = false
				}
			} else if !c.env.check.check("catalog/"+e.ID+"/"+c.salt, bytesDigest([]byte(got))) {
				ok = false
			}
		}
		wall := time.Since(t0)
		ph.record(wall, ok)
		if traced {
			jt.add(r, wall, c.env.check)
		}
	}
	ph.wall = time.Since(start)
	ph.details.set("pass_s.p50", median(ph.latMS)/1000, "s")
	if traced {
		jt.report(ph.layers)
	}
	return ph
}

// jobTotals accumulates catalog passes' job accounting.
type jobTotals struct {
	passes                 float64
	jobWall                map[string]float64
	busy, passWall, maxJob float64
	counts                 latchCounts
}

func newJobTotals() *jobTotals {
	return &jobTotals{jobWall: make(map[string]float64), counts: newLatchCounts()}
}

// add folds in one finished catalog pass that took wall.
func (jt *jobTotals) add(r *experiments.Runner, wall time.Duration, check *checker) {
	jt.passes++
	jt.passWall += wall.Seconds()
	events := make(map[string]uint64)
	for _, js := range r.JobStats() {
		if !contains(catalogPasses, js.Pass) {
			check.fail("catalog: pass %q is not in the per-layer metric list", js.Pass)
			continue
		}
		w := js.Timing.Wall.Seconds()
		jt.jobWall[js.Pass] += w
		jt.busy += w
		jt.maxJob = max(jt.maxJob, w)
		events[js.Pass] += js.Events
	}
	report := r.MetricsReport()
	for _, b := range benchBackends {
		if snap, ok := report[b]; ok {
			jt.counts.add(b, events[b], snap)
		}
	}
}

func (jt *jobTotals) report(layers map[string]float64) {
	for _, p := range catalogPasses {
		layers["experiments.job_s."+p] = frac(jt.jobWall[p], jt.passes)
	}
	layers["experiments.max_job_s"] = jt.maxJob
	layers["pool.busy_frac"] = frac(jt.busy, jt.passWall*catalogWorkers)
	jt.counts.report(layers)
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}
