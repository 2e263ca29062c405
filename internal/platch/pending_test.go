package platch

import (
	"testing"

	"latch/internal/workload"
)

func TestPendingFIFOBasics(t *testing.T) {
	f := NewPendingFIFO(2)
	f.Push(10, 100)
	f.Push(20, 200)
	if !f.Pending(10) || !f.Pending(20) || f.Pending(30) {
		t.Fatal("membership wrong")
	}
	// Overflow retires the oldest.
	f.Push(30, 300)
	if f.Pending(10) || !f.Pending(20) || !f.Pending(30) {
		t.Fatal("overflow did not retire oldest")
	}
	// Expiry retires in order.
	f.Retire(250)
	if f.Pending(20) || !f.Pending(30) {
		t.Fatal("retire wrong")
	}
	f.Retire(1000)
	if f.Pending(30) || f.count != 0 {
		t.Fatal("final retire wrong")
	}
}

func TestPendingFIFODuplicateDomains(t *testing.T) {
	f := NewPendingFIFO(4)
	f.Push(7, 100)
	f.Push(7, 200)
	f.Retire(150) // first entry expires, second still live
	if !f.Pending(7) {
		t.Fatal("duplicate domain retired too early")
	}
	f.Retire(250)
	if f.Pending(7) {
		t.Fatal("domain still pending after both expired")
	}
}

func TestPendingFIFODisabled(t *testing.T) {
	if NewPendingFIFO(0) != nil {
		t.Fatal("zero capacity should disable the structure")
	}
}

// TestPendingFIFOEmptyPop covers the co-simulation's use: entries pushed
// with expiry 0 and popped as the monitor processes each store, where an
// overflow may already have retired the entry a later pop targets.
func TestPendingFIFOEmptyPop(t *testing.T) {
	f := NewPendingFIFO(2)
	f.Push(1, 0)
	f.Push(2, 0)
	if !f.Full() {
		t.Fatal("FIFO at capacity does not report full")
	}
	f.Push(3, 0) // evicts 1
	if f.Pending(1) || !f.Pending(2) || !f.Pending(3) {
		t.Fatal("membership wrong after eviction")
	}
	f.Pop()
	f.Pop()
	f.Pop() // popping empty is a no-op
	if f.count != 0 || f.Full() || f.Pending(2) || f.Pending(3) {
		t.Fatal("pop on empty corrupted state")
	}
	f.Push(4, 0)
	if !f.Pending(4) || f.count != 1 {
		t.Fatal("FIFO unusable after empty pop")
	}
}

func TestPendingExtraPositivesAreRare(t *testing.T) {
	// The paper's claim: taint locality makes CTT changes rare, so the
	// conservative pending-destination protection costs almost nothing.
	cfg := DefaultConfig()
	cfg.Events = 300_000
	r, err := Run(workload.MustGet("apache"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	extraRate := float64(r.PendingExtraPositives) / float64(r.Events)
	if extraRate > 0.001 {
		t.Fatalf("pending protection caused %.4f%% extra enqueues, want < 0.1%%", 100*extraRate)
	}
	// Disabled structure yields zero extras.
	cfg.PendingEntries = 0
	r2, err := Run(workload.MustGet("apache"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.PendingExtraPositives != 0 {
		t.Fatal("disabled FIFO still produced extras")
	}
}
