package latch_test

// One benchmark per table and figure of the paper's evaluation. Each
// invocation regenerates the artifact from b.N simulated instructions per
// benchmark, so the reported ns/op is the cost of streaming one instruction
// through the full pipeline (generation + coarse checks + models) for that
// experiment. Run with:
//
//	go test -bench=. -benchmem
//
// For paper-fidelity numbers use the CLI, which defaults to longer streams:
//
//	go run ./cmd/latch-paper tables

import (
	"flag"
	"runtime"
	"testing"

	"latch/internal/experiments"
)

var benchWorkers = flag.Int("workers", 1, "worker-pool size for the per-experiment benchmarks (0 = one per CPU)")

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	n := uint64(b.N)
	if n < 20_000 {
		n = 20_000
	}
	opts := experiments.Options{Events: n, EpochEvents: n, Fig6Events: n, Workers: *benchWorkers}
	runner := experiments.NewRunner(opts)
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	table, err := e.Run(runner)
	if err != nil {
		b.Fatal(err)
	}
	if table.Rows() == 0 {
		b.Fatal("empty table")
	}
}

// benchExperimentSet regenerates a representative experiment subset — the
// heavy suite passes plus a composite table — from one fresh Runner with the
// given pool size. Comparing the two benchmarks below measures the harness's
// parallel speedup; their tables are byte-identical (TestParallelMatchesSerial),
// only the wall clock moves.
func benchExperimentSet(b *testing.B, workers int) {
	b.Helper()
	ids := []string{"table2", "table6", "table7", "figure6"}
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Events: 20_000, EpochEvents: 20_000, Fig6Events: 20_000, Workers: workers}
		runner := experiments.NewRunner(opts)
		for _, id := range ids {
			e, err := experiments.Lookup(id)
			if err != nil {
				b.Fatal(err)
			}
			table, err := e.Run(runner)
			if err != nil {
				b.Fatal(err)
			}
			if table.Rows() == 0 {
				b.Fatalf("%s: empty table", id)
			}
		}
	}
}

// BenchmarkExperimentsSerial is the Workers=1 reference schedule.
func BenchmarkExperimentsSerial(b *testing.B) { benchExperimentSet(b, 1) }

// BenchmarkExperimentsParallel runs the same subset with one worker per CPU;
// on a multi-core machine the per-workload jobs overlap and this should beat
// the serial benchmark roughly by min(NumCPU, workloads-per-pass).
func BenchmarkExperimentsParallel(b *testing.B) {
	if runtime.NumCPU() == 1 {
		b.Log("single-CPU machine: parallel run degenerates to the serial schedule")
	}
	benchExperimentSet(b, 0)
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "figure5") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "figure13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "figure14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "figure15") }
func BenchmarkTable6(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "figure16") }
func BenchmarkComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.Lookup("complexity")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(experiments.NewRunner(experiments.DefaultOptions())); err != nil {
			b.Fatal(err)
		}
	}
}
