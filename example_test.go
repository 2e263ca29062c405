package latch_test

import (
	"context"
	"fmt"

	"latch"
	"latch/internal/cosim"
	"latch/internal/hlatch"
	"latch/internal/platch"
	"latch/internal/slatch"
	"latch/internal/workload"
)

// ExampleNew builds a System with functional options and an attached
// metrics registry: every layer — the machine's taint-source syscalls, the
// module's coarse checks, the engine's violations — reports into the same
// snapshotable registry without changing execution results.
func ExampleNew() {
	metrics := latch.NewMetrics()
	sys, err := latch.New(
		latch.WithPolicy(latch.DefaultPolicy()),
		latch.WithObserver(metrics),
	)
	if err != nil {
		panic(err)
	}
	sys.Machine.Env.FileData = []byte("external")

	if _, err := sys.Run(context.Background(), `
		li   r1, 0x8000
		movi r2, 8
		sys  2          ; read 8 bytes: observed as file-source input
		halt
	`, 1000); err != nil {
		panic(err)
	}
	sys.Module.CheckMem(0x8000, 4) // tainted: coarse positive
	sys.Module.CheckMem(0x9000, 4) // clean page-domain: TLB-filtered

	s := metrics.Snapshot()
	fmt.Println("file bytes:", s.FileSourceBytes)
	fmt.Println("coarse checks:", s.CoarseChecks)
	fmt.Println("coarse positives:", s.CoarsePositives)
	// Output:
	// file bytes: 8
	// coarse checks: 2
	// coarse positives: 1
}

// Example builds a complete DIFT system, taints external input, watches
// it propagate through a running program, and queries both the
// byte-precise and the coarse (LATCH) taint state. A System bundles the
// LA32 machine, the byte-precise DIFT engine and the LATCH hardware module
// over one shared shadow taint state.
func Example() {
	sys, err := latch.New()
	if err != nil {
		panic(err)
	}
	// External input: eight bytes arriving through the file taint source.
	sys.Machine.Env.FileData = []byte("UNTRUSTED")

	// The program reads the input, adds the first two words, and stores the
	// result: taint flows input -> registers -> derived memory.
	res, err := sys.Run(context.Background(), `
_start:
		li   r1, 0x8000      ; buffer
		movi r2, 8
		sys  2               ; read(buffer, 8): taint initialization
		li   r3, 0x8000
		ldw  r4, [r3]        ; r4 tainted by propagation
		ldw  r5, [r3+4]      ; r5 tainted
		add  r6, r4, r5      ; union of source taints
		li   r7, 0x8100
		stw  r6, [r7]        ; derived value taints new memory
		movi r1, 0
		sys  1
	`, 10_000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("program exited with code %d after %d instructions\n",
		res.ExitCode, res.Steps)

	// Byte-precise state: the input buffer and the derived word are tainted.
	fmt.Printf("input  buffer tainted: %v\n", sys.Shadow.RangeTainted(0x8000, 8))
	fmt.Printf("derived word  tainted: %v\n", sys.Shadow.RangeTainted(0x8100, 4))
	fmt.Printf("unrelated byte tainted: %v\n", sys.Shadow.RangeTainted(0x9000, 1))
	fmt.Printf("tainted bytes total: %d\n", sys.Shadow.TaintedBytes())

	// Coarse state: LATCH resolves the same questions with one cached bit
	// per 64-byte domain, consulting the precise state only on positives.
	for _, addr := range []uint32{0x8000, 0x8100, 0x9000} {
		res := sys.Module.CheckMem(addr, 4)
		fmt.Printf("coarse check %#x: resolved at %-7s coarse-positive=%-5v truly-tainted=%v\n",
			addr, res.Level, res.CoarsePositive, res.TrulyTainted)
	}
	fmt.Printf("coarse taint table: %d tainted domains in %d words\n",
		sys.Module.CTT().TaintedDomains(), sys.Module.CTT().WordsAllocated())
	// Output:
	// program exited with code 0 after 14 instructions
	// input  buffer tainted: true
	// derived word  tainted: true
	// unrelated byte tainted: false
	// tainted bytes total: 12
	// coarse check 0x8000: resolved at t-cache coarse-positive=true  truly-tainted=true
	// coarse check 0x8100: resolved at t-cache coarse-positive=true  truly-tainted=true
	// coarse check 0x9000: resolved at tlb     coarse-positive=false truly-tainted=false
	// coarse taint table: 2 tainted domains in 1 words
}

// ExampleSystem_Run_violation shows a control-flow hijack being stopped:
// jumping through a register that holds attacker-controlled (tainted) data
// raises a security exception before the jump is taken. The violation comes
// back inside the RunResult — it is the analysis working, not a run failure.
func ExampleSystem_Run_violation() {
	sys, err := latch.New()
	if err != nil {
		panic(err)
	}
	sys.Machine.Env.FileData = []byte{0xEF, 0xBE, 0x00, 0x00} // attacker address

	res, err := sys.Run(context.Background(), `
		li   r1, 0x8000
		movi r2, 4
		sys  2
		li   r3, 0x8000
		ldw  r4, [r3]
		jr   r4         ; hijack attempt
		halt
	`, 1000)
	if err != nil {
		panic(err)
	}
	if v := res.Violation; v != nil {
		fmt.Println("kind:", v.Kind)
		fmt.Printf("blocked target: %#x\n", v.Addr)
	}
	// Output:
	// kind: control-flow
	// blocked target: 0xbeef
}

// ExampleSystem_Run_exploit is the motivating security application of
// DIFT (§1). A vulnerable server routine copies an oversized,
// attacker-controlled message over a function pointer; the indirect call
// through the smashed pointer is a control-flow hijack. Byte-precise DIFT
// catches it — and, because LATCH never introduces false negatives, the
// same attack is caught identically with the coarse layer in front (the
// accuracy-preservation claim of §1).
func ExampleSystem_Run_exploit() {
	run := func(input []byte) *latch.Violation {
		sys, err := latch.New()
		if err != nil {
			panic(err)
		}
		sys.Machine.Env.FileData = input
		src, err := workload.ProgramSource("overflow")
		if err != nil {
			panic(err)
		}
		res, err := sys.Run(context.Background(), src, 100_000)
		if err != nil {
			panic(err)
		}
		return res.Violation
	}

	// Benign request: fits the 16-byte buffer, handler runs normally.
	if v := run([]byte("hello")); v != nil {
		panic(fmt.Sprintf("benign input should succeed, got: %v", v))
	}
	fmt.Println("benign input:  handler executed, no violation")

	// Attack: 16 padding bytes fill the buffer, the next 4 overwrite the
	// function pointer with an attacker-chosen address (0x00001000).
	attack := append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)
	for i := 0; i < 16; i++ {
		attack[i] = 'A'
	}
	v := run(attack)
	if v == nil || v.Kind != latch.ViolationControlFlow {
		panic(fmt.Sprintf("attack not detected as a control-flow hijack: %v", v))
	}
	fmt.Printf("attack input:  %v\n", v)
	fmt.Printf("hijack stopped before control reached %#x\n", v.Addr)
	// Output:
	// benign input:  handler executed, no violation
	// attack input:  dift: control-flow violation at pc=0x30 addr=0x1000 tag=0x01
	// hijack stopped before control reached 0x1000
}

// ExampleModule_CheckMem shows the three resolution levels of the LATCH
// checking stack: untainted pages are filtered by the TLB taint bits,
// untainted domains inside tainted page regions by the CTC, and only
// coarse positives reach the precise taint cache.
func ExampleModule_CheckMem() {
	sys, err := latch.New()
	if err != nil {
		panic(err)
	}
	sys.Engine.TaintMemory(0x1000, 16, latch.MustLabel(0))

	for _, addr := range []uint32{0x1000, 0x1400, 0x9000} {
		res := sys.Module.CheckMem(addr, 4)
		fmt.Printf("%#x: level=%v positive=%v\n", addr, res.Level, res.CoarsePositive)
	}
	// Output:
	// 0x1000: level=t-cache positive=true
	// 0x1400: level=ctc positive=false
	// 0x9000: level=tlb positive=false
}

// Example_provenance shows taint tags as bitmasks of labels, so a policy
// can tell *which* source data came from. A program mixes file and network
// input; the derived value carries both labels, and a violation reports
// exactly which sources reached the dangerous operation.
func Example_provenance() {
	sys, err := latch.New()
	if err != nil {
		panic(err)
	}
	sys.Machine.Env.FileData = []byte{0x10, 0x00, 0x00, 0x00}     // file source
	sys.Machine.Env.Requests = [][]byte{{0x20, 0x00, 0x00, 0x00}} // net source

	res, err := sys.Run(context.Background(), `
		li   r1, 0x8000
		movi r2, 4
		sys  2            ; read file input  -> label 0
		sys  4            ; accept connection
		li   r1, 0x8100
		movi r2, 4
		sys  3            ; recv net input   -> label 1
		li   r3, 0x8000
		ldw  r4, [r3]     ; file-tainted
		li   r5, 0x8100
		ldw  r6, [r5]     ; net-tainted
		add  r7, r4, r6   ; union: both labels
		li   r8, 0x8200
		stw  r7, [r8]
		jr   r7           ; jump through the mixed value
		halt
	`, 10_000)
	if err != nil {
		panic(err)
	}
	if res.Violation == nil {
		panic("expected a violation, got a clean run")
	}
	v := *res.Violation
	fmt.Printf("violation: %v\n", v)

	fileTag, netTag := latch.MustLabel(0), latch.MustLabel(1)
	fmt.Printf("target carried file-source data:    %v\n", v.Tag&fileTag != 0)
	fmt.Printf("target carried network-source data: %v\n", v.Tag&netTag != 0)

	fmt.Println()
	fmt.Println("per-byte provenance of the derived buffer:")
	for _, probe := range []struct {
		name string
		addr uint32
	}{
		{"file buffer   ", 0x8000},
		{"network buffer", 0x8100},
		{"derived sum   ", 0x8200},
	} {
		tag := sys.Shadow.RangeTag(probe.addr, 4)
		fmt.Printf("  %s tag=%#02x file=%-5v net=%v\n",
			probe.name, uint8(tag), tag&fileTag != 0, tag&netTag != 0)
	}
	// Output:
	// violation: dift: control-flow violation at pc=0x4c addr=0x30 tag=0x03
	// target carried file-source data:    true
	// target carried network-source data: true
	//
	// per-byte provenance of the derived buffer:
	//   file buffer    tag=0x01 file=true  net=false
	//   network buffer tag=0x02 file=false net=true
	//   derived sum    tag=0x03 file=true  net=true
}

// Example_compression is the bzip2 effect (§3.3.2). Compression and
// cryptographic kernels replace input bytes with precomputed table
// entries; classical DTA does not propagate taint through addresses, so
// the output is untainted even though it is derived from the input. The
// result is the extreme taint locality the paper measures for bzip2: taint
// confined to the input buffer pages, near-zero coarse false positives at
// every domain granularity.
func Example_compression() {
	sys, err := latch.New()
	if err != nil {
		panic(err)
	}
	input := []byte("compress me, please: aaaaabbbbbccccc")
	sys.Machine.Env.FileData = input

	src, err := workload.ProgramSource("substitution")
	if err != nil {
		panic(err)
	}
	if _, err := sys.Run(context.Background(), src, 1_000_000); err != nil {
		panic(err)
	}

	fmt.Printf("input  (%d bytes): %q\n", len(input), input)
	fmt.Printf("output (%d bytes): % x\n", sys.Machine.Env.Output.Len(),
		sys.Machine.Env.Output.Bytes()[:16])

	fmt.Printf("\ninput buffer tainted:  %v\n", sys.Shadow.RangeTainted(0x8000, len(input)))
	fmt.Printf("output buffer tainted: %v  <- taint laundered by the table lookup\n",
		sys.Shadow.RangeTainted(0x9000, len(input)))
	fmt.Printf("pages ever tainted: %d (input buffer only)\n", sys.Shadow.EverTaintedPages())

	// Spatial locality: at every granularity Figure 6 sweeps, the coarse
	// state over this layout produces no false positives outside the input
	// buffer's own domains.
	fmt.Println("\ncoarse checks after the run:")
	for _, probe := range []struct {
		name string
		addr uint32
	}{
		{"input buffer ", 0x8000},
		{"output buffer", 0x9000},
		{"lookup table ", 0xA000},
	} {
		res := sys.Module.CheckMem(probe.addr, 4)
		fmt.Printf("  %s resolved at %-7s coarse-positive=%v\n",
			probe.name, res.Level, res.CoarsePositive)
	}
	// Output:
	// input  (36 bytes): "compress me, please: aaaaabbbbbccccc"
	// output (36 bytes): b8 0c fe 13 21 c6 28 28 e3 fe c6 37 e3 13 f7 c6
	//
	// input buffer tainted:  true
	// output buffer tainted: false  <- taint laundered by the table lookup
	// pages ever tainted: 1 (input buffer only)
	//
	// coarse checks after the run:
	//   input buffer  resolved at t-cache coarse-positive=true
	//   output buffer resolved at tlb     coarse-positive=false
	//   lookup table  resolved at tlb     coarse-positive=false
}

// Example_parallelmonitor is the P-LATCH two-core configuration (§5.2) on
// a real program. One core runs the application natively, shipping
// committed instructions through a bounded log FIFO to a second core that
// performs byte-precise DIFT. Without LATCH the log saturates and the
// application runs at the monitor's speed; with the LATCH filter only the
// instructions that might involve taint are shipped.
//
// It also shows the cost of log-based monitoring the paper's baseline
// inherits: violations are detected with a lag, bounded by draining the
// log at output sync points.
func Example_parallelmonitor() {
	run := func(filtered bool, input []byte, obs latch.Observer) *cosim.Parallel {
		cfg := cosim.DefaultParallelConfig()
		cfg.Filtered = filtered
		cfg.Observer = obs
		// A small FIFO makes backpressure visible on this short kernel: the
		// baseline fills it and stalls the monitored core; the filter
		// doesn't.
		cfg.QueueDepth = 64
		sys, err := cosim.NewParallel(cfg, latch.DefaultPolicy())
		if err != nil {
			panic(err)
		}
		sys.Machine.Env.FileData = input
		src, err := workload.ProgramSource("checksum")
		if err != nil {
			panic(err)
		}
		if _, err := sys.Run(context.Background(), src, 100_000); err != nil {
			panic(err)
		}
		return sys
	}
	input := []byte("a realistic message body to checksum")

	fmt.Println("--- checksum kernel on two cores ---")
	for _, filtered := range []bool{false, true} {
		// A per-run telemetry registry counts log-FIFO stalls — cycles the
		// monitored core spends blocked on a full log.
		metrics := latch.NewMetrics()
		st := run(filtered, input, metrics).Stats()
		mode := "baseline LBA (ship everything)"
		if filtered {
			mode = "P-LATCH (coarse-filtered log)  "
		}
		fmt.Printf("%s: logged %4.1f%% of %d instructions, overhead %6.1f%%, max queue %d, stalls %d\n",
			mode, 100*float64(st.Enqueued)/float64(st.Instructions),
			st.Instructions, 100*st.Overhead(), st.MaxQueueDepth,
			metrics.Snapshot().QueueStalls)
	}

	fmt.Println()
	fmt.Println("--- deferred detection of a control-flow hijack ---")
	sys, err := cosim.NewParallel(cosim.DefaultParallelConfig(), latch.DefaultPolicy())
	if err != nil {
		panic(err)
	}
	sys.Machine.Env.FileData = append(make([]byte, 16), 0x00, 0x10, 0x00, 0x00)
	src, err := workload.ProgramSource("overflow")
	if err != nil {
		panic(err)
	}
	if _, err := sys.Run(context.Background(), src, 2_000); err != nil {
		fmt.Printf("machine stopped: %v\n", err)
	}
	for _, v := range sys.Violations() {
		fmt.Printf("monitor detected %v\n", v.Violation)
		fmt.Printf("  issued at instruction %d, detected at %d (lag %d instructions)\n",
			v.IssuedAt, v.DetectedAt, v.Lag())
	}
	// Output:
	// --- checksum kernel on two cores ---
	// baseline LBA (ship everything): logged 100.0% of 379 instructions, overhead  212.1%, max queue 64, stalls 204
	// P-LATCH (coarse-filtered log)  : logged 48.5% of 379 instructions, overhead   60.9%, max queue 64, stalls 13
	//
	// --- deferred detection of a control-flow hijack ---
	// machine stopped: vm: fault at pc=0x2f0c: step limit reached
	// monitor detected dift: control-flow violation at pc=0x30 addr=0x0 tag=0x01
	//   issued at instruction 12, detected at 18 (lag 6 instructions)
}

// Example_webserver is the paper's apache scenario. A server handles a mix
// of trusted (local) and untrusted (remote) connections; the DIFT policy
// taints only untrusted requests (§3.1's apache-25/50/75 policies). It
// shows both halves of the story:
//
//  1. end-to-end on the VM: per-connection trust controls which request
//     buffers become tainted, and
//  2. at scale with the S-LATCH model: the more requests are trusted, the
//     longer the taint-free epochs and the larger the speedup over
//     continuous software DIFT (up to ~3x for apache-75, §6.1.1).
func Example_webserver() {
	fmt.Println("--- end-to-end: per-connection taint policy on the VM ---")
	pol := latch.DefaultPolicy()
	// Half of the connections are "local" and trusted — the declarative
	// apache-50-style rule. Which connection ids land in the trusted
	// half is a deterministic, seed-stable sampler decision, so reruns
	// taint exactly the same requests.
	pol.TrustFraction = 0.5
	sys, err := latch.New(latch.WithPolicy(pol))
	if err != nil {
		panic(err)
	}
	sys.Machine.Env.Requests = [][]byte{
		[]byte("GET /status"), // conns 0..3: trusted or tainted per the
		[]byte("GET /login"),  // TrustFraction sampler — about half of
		[]byte("GET /health"), // all accepted connections are exempted
		[]byte("GET /admin"),  // from tainting
	}
	src, err := workload.ProgramSource("server")
	if err != nil {
		panic(err)
	}
	if _, err := sys.Run(context.Background(), src, 1_000_000); err != nil {
		panic(err)
	}
	fmt.Printf("served %d requests, responses: %q\n", 4, sys.Machine.Env.Output.String())
	fmt.Printf("tainted instructions under this policy: %d of %d\n",
		sys.Engine.InstructionsTainted(), sys.Engine.InstructionsTotal())

	fmt.Println()
	fmt.Println("--- at scale: S-LATCH acceleration vs. trust policy ---")
	cfg := slatch.DefaultConfig()
	cfg.Events = 1_500_000
	fmt.Printf("%-10s %8s %10s %12s %10s\n",
		"policy", "taint %", "switches", "overhead", "speedup")
	for _, name := range []string{"apache", "apache-25", "apache-50", "apache-75"} {
		p := workload.MustGet(name)
		r, err := slatch.Run(p, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %7.2f%% %10d %11.1f%% %9.2fx\n",
			name, p.TaintPct, r.Switches, 100*r.Overhead(), r.SpeedupVsLibdft())
	}
	fmt.Println("\n(trusting more connections lengthens taint-free epochs,")
	fmt.Println(" so LATCH keeps the server in hardware mode longer)")
	// Output:
	// --- end-to-end: per-connection taint policy on the VM ---
	// served 4 requests, responses: "OK!\nOK!\nOK!\nOK!\n"
	// tainted instructions under this policy: 20 of 363
	//
	// --- at scale: S-LATCH acceleration vs. trust policy ---
	// policy      taint %   switches     overhead    speedup
	// apache        1.94%         64       314.2%      1.21x
	// apache-25     1.49%        268       250.7%      1.43x
	// apache-50     0.95%        102       141.3%      2.07x
	// apache-75     0.45%         29        20.9%      4.14x
	//
	// (trusting more connections lengthens taint-free epochs,
	//  so LATCH keeps the server in hardware mode longer)
}

// Example_customworkload is the adoption path for characterizing your own
// application the way the paper characterized SPEC and the network apps:
// define a profile (taint percentage, epoch structure, footprint, locality
// knobs) and pass it straight to the same H-LATCH / S-LATCH / P-LATCH
// machinery the paper's tables use.
func Example_customworkload() {
	// An imaginary message broker: ~0.6% of instructions touch untrusted
	// payloads, bursts arrive between medium-length idle stretches, and
	// payload buffers sit in ~60 of 2000 pages.
	profile := workload.Profile{
		Name:        "message-broker",
		Suite:       workload.SuiteNetwork,
		TaintPct:    0.6,
		ActiveShare: 0.015,
		Epochs: []workload.EpochClass{
			{Len: 100_000, Share: 0.3},
			{Len: 10_000, Share: 0.5},
			{Len: 1_000, Share: 0.2},
		},
		PagesAccessed: 2000, PagesTainted: 60,
		RunLen: 64, GapLen: 192,
		MemFraction: 0.4, HotFraction: 0.9,
		CleanNearTaint: 0.002, BurstNearTaint: 0.1,
		NearTaintRandom: 0.1, JumpProb: 0.002,
		TaintReuse: 32, ChurnProb: 0.25,
		LibdftSlowdown: 6, CodeCacheLat: 1000,
		Seed: 7,
	}
	const events = 1_500_000

	// One telemetry registry observes all three integrations; the summary
	// at the end aggregates everything the profile put through the module.
	metrics := latch.NewMetrics()

	hlCfg := hlatch.DefaultConfig()
	hlCfg.Events = events
	hlCfg.Observer = metrics
	hl, err := hlatch.Run(profile, hlCfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("--- H-LATCH: how would the hardware integration behave? ---")
	fmt.Printf("combined miss rate %.4f%% (unfiltered taint cache: %.2f%%)\n",
		hl.CombinedMissPct, hl.BaselineMissPct)
	fmt.Printf("accesses resolved: TLB %.1f%%, CTC %.1f%%, t-cache %.1f%%\n",
		100*hl.ShareTLB, 100*hl.ShareCTC, 100*hl.SharePrecise)

	slCfg := slatch.DefaultConfig()
	slCfg.Events = events
	slCfg.Observer = metrics
	sl, err := slatch.Run(profile, slCfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n--- S-LATCH: accelerated software DIFT on one core ---")
	fmt.Printf("overhead %.1f%% over native (continuous DIFT: %.0f%%), %.2fx speedup\n",
		100*sl.Overhead(), 100*sl.LibdftOverhead(), sl.SpeedupVsLibdft())
	fmt.Printf("%d mode switches, %d coarse false positives dismissed\n",
		sl.Switches, sl.FalsePositives)

	plCfg := platch.DefaultConfig()
	plCfg.Events = events
	plCfg.Observer = metrics
	pl, err := platch.Run(profile, plCfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n--- P-LATCH: filtered two-core monitoring ---")
	fmt.Printf("active windows %.1f%%, overhead %.1f%% (unfiltered LBA: %.0f%%)\n",
		100*pl.ActiveWindowFraction, 100*pl.OverheadSimple, 100*pl.QueueBaselineSimple)
	fmt.Printf("log carries %.2f%% of instructions\n", 100*pl.EnqueuedFraction)

	s := metrics.Snapshot()
	fmt.Println("\n--- telemetry: one registry across all three integrations ---")
	fmt.Printf("coarse checks %d: %.1f%% TLB, %.1f%% CTC, %.1f%% precise\n",
		s.CoarseChecks,
		100*float64(s.ResolvedTLB)/float64(s.CoarseChecks),
		100*float64(s.ResolvedCTC)/float64(s.CoarseChecks),
		100*float64(s.ResolvedPrecise)/float64(s.CoarseChecks))
	fmt.Printf("%d CTC evictions (%d with pending clears), %d epoch transitions, %d queue stalls\n",
		s.CTCEvictions, s.CTCEvictionsPendingClear, s.SwitchesToSoftware, s.QueueStalls)
	// Output:
	// --- H-LATCH: how would the hardware integration behave? ---
	// combined miss rate 0.0807% (unfiltered taint cache: 10.14%)
	// accesses resolved: TLB 98.2%, CTC 0.3%, t-cache 1.5%
	//
	// --- S-LATCH: accelerated software DIFT on one core ---
	// overhead 175.4% over native (continuous DIFT: 500%), 2.18x speedup
	// 343 mode switches, 27 coarse false positives dismissed
	//
	// --- P-LATCH: filtered two-core monitoring ---
	// active windows 24.2%, overhead 57.6% (unfiltered LBA: 238%)
	// log carries 0.60% of instructions
	//
	// --- telemetry: one registry across all three integrations ---
	// coarse checks 1664461: 98.6% TLB, 0.3% CTC, 1.1% precise
	// 381 CTC evictions (0 with pending clears), 343 epoch transitions, 0 queue stalls
}
