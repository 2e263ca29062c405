package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Go runtime metrics read around a measured window.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive = "/gc/heap/live:bytes"
)

// goDelta is what the Go runtime did during one window.
type goDelta struct {
	AllocBytes float64
	GCCycles   float64
	GCCPU      float64       // CPU seconds spent in the garbage collector
	ProcCPU    time.Duration // user and system CPU time the process used
	// HeapRetained is the live heap after a full GC at the window's end:
	// what the program keeps between ops (caches, pools, recycled
	// sessions). The live heap a GC cycle marks mid-window depends on
	// which op it happened to mark and varied by a fifth from run to run.
	HeapRetained float64
}

// processCPU is the user plus system CPU time the process has used. Unlike
// the runtime's CPU estimates it excludes time the CPUs were stolen.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goWindow measures the Go runtime between its start and stop.
type goWindow struct {
	start    []metrics.Sample
	startCPU time.Duration
}

func readGoMetrics() []metrics.Sample {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mHeapLive}}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startGoWindow() goWindow {
	return goWindow{start: readGoMetrics(), startCPU: processCPU()}
}

// stop closes the window and returns the deltas. The closing GC runs after
// the CPU time is read, so it is not charged to the window.
func (w goWindow) stop() goDelta {
	cpu := processCPU() - w.startCPU
	end := readGoMetrics()
	runtime.GC()
	after := readGoMetrics()
	d := func(i int) float64 { return sampleValue(end[i]) - sampleValue(w.start[i]) }
	return goDelta{
		AllocBytes:   d(0),
		GCCycles:     d(1),
		GCCPU:        d(2),
		ProcCPU:      cpu,
		HeapRetained: sampleValue(after[3]),
	}
}
