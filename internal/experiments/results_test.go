package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"latch/internal/engine"
	"latch/internal/stats"
	"latch/internal/workload"
)

// TestResultMetricsDeterministic runs the same seeded workload twice
// through a backend and requires the structured export to be identical —
// the contract the paper grid's byte-identity pin builds on.
func TestResultMetricsDeterministic(t *testing.T) {
	p := workload.MustGet("bzip2")
	p.Seed = workload.DeriveSeed(p.Seed, "results-test", "bzip2")
	run := func() WorkloadMetrics {
		res, err := engine.RunScheme(context.Background(), "slatch", p,
			engine.RunOptions{Events: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		return ResultMetrics(res)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed exports differ:\n%+v\n%+v", a, b)
	}
	if a.Workload != "bzip2" || a.Events == 0 || len(a.Metrics) == 0 {
		t.Fatalf("implausible export: %+v", a)
	}
}

// TestResultMetricsNumericOnly checks non-numeric columns are dropped
// rather than smuggled in as zeros.
func TestResultMetricsNumericOnly(t *testing.T) {
	res := fakeResult{cols: []engine.Column{
		{Label: "overhead", Value: 0.25},
		{Label: "pair", Value: "1.2 | 3.4"},
		{Label: "count", Value: uint64(7)},
		{Label: "shards", Value: 1},
	}}
	wm := ResultMetrics(res)
	want := []Metric{
		{Name: "overhead", Value: 0.25},
		{Name: "count", Value: 7},
		{Name: "shards", Value: 1},
	}
	if !reflect.DeepEqual(wm.Metrics, want) {
		t.Fatalf("Metrics = %+v, want %+v", wm.Metrics, want)
	}
}

type fakeResult struct {
	cols []engine.Column
}

func (f fakeResult) BenchmarkName() string    { return "fake" }
func (f fakeResult) EventCount() uint64       { return 1 }
func (f fakeResult) CheckCount() uint64       { return 2 }
func (f fakeResult) Columns() []engine.Column { return f.cols }

// TestTableMetrics checks numeric cells are extracted by (row, column)
// and everything unparsable is skipped.
func TestTableMetrics(t *testing.T) {
	tb := stats.NewTable("x", "benchmark", "overhead", "note")
	tb.AddRow("gcc", "0.5", "fine")
	tb.AddRow("astar", "1.25", "")
	tb.AddRow("mean", "0.875", "1.1 | 2.2")
	got := TableMetrics(tb)
	want := []TableCell{
		{Row: "gcc", Column: "overhead", Value: 0.5},
		{Row: "astar", Column: "overhead", Value: 1.25},
		{Row: "mean", Column: "overhead", Value: 0.875},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TableMetrics = %+v, want %+v", got, want)
	}
}

// TestJobStatTimingSegregated pins the determinism boundary on the
// per-job stats record: wall-clock accounting must stay out of the
// serialized form, and no deterministic field may have a time type.
func TestJobStatTimingSegregated(t *testing.T) {
	js := JobStat{Pass: "p", Job: "j", Events: 3, Checks: 4,
		Timing: JobTiming{Wall: 123 * time.Millisecond}}
	data, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		switch k {
		case "pass", "job", "events", "checks":
		default:
			t.Errorf("unexpected serialized JobStat field %q (timing leak?)", k)
		}
	}
	rt := reflect.TypeOf(JobStat{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Name == "Timing" {
			if f.Tag.Get("json") != "-" {
				t.Errorf("Timing must carry json:\"-\", has %q", f.Tag.Get("json"))
			}
			continue
		}
		if f.Type == reflect.TypeOf(time.Duration(0)) || f.Type == reflect.TypeOf(time.Time{}) {
			t.Errorf("deterministic JobStat field %s has wall-clock type %s", f.Name, f.Type)
		}
	}
}

// TestSeedSaltChangesStreams checks that distinct salts produce distinct
// derived seeds (repeats genuinely vary) while the empty salt reproduces
// the historical derivation (goldens untouched).
func TestSeedSaltChangesStreams(t *testing.T) {
	base := NewRunner(Options{})
	p0, err := base.jobProfile("temporal", "bzip2")
	if err != nil {
		t.Fatal(err)
	}
	historical := workload.DeriveSeed(workload.MustGet("bzip2").Seed, "temporal", "bzip2")
	if p0.Seed != historical {
		t.Fatalf("empty salt changed the historical seed: %d vs %d", p0.Seed, historical)
	}
	r1 := NewRunner(Options{SeedSalt: "r1"})
	r2 := NewRunner(Options{SeedSalt: "r2"})
	p1, err := r1.jobProfile("temporal", "bzip2")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.jobProfile("temporal", "bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Seed == p2.Seed || p1.Seed == p0.Seed {
		t.Fatalf("salts did not diversify seeds: %d %d %d", p0.Seed, p1.Seed, p2.Seed)
	}
	// Same salt, same seed: each repeat stays deterministic.
	r1b := NewRunner(Options{SeedSalt: "r1"})
	p1b, err := r1b.jobProfile("temporal", "bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if p1b.Seed != p1.Seed {
		t.Fatalf("same salt produced different seeds: %d vs %d", p1.Seed, p1b.Seed)
	}
}
