package latch

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"latch/internal/cache"
	"latch/internal/mem"
	"latch/internal/shadow"
	"latch/internal/workload"
)

// The SetRange fuzzer drives shadows through the same op tape: one of each
// pair writes every range with SetRange (whose byte watcher sees
// within-domain spans), the other byte by byte with Set. There is one
// pair per clear mode — each shadow watched by its own LazyClear or
// EagerClear module — and the coarse state of a pair must come out
// identical.

const (
	fuzzOpBytes = 5       // kind, offset (2 bytes LE), length (2 bytes LE)
	fuzzMaxOps  = 256     // tape cap
	fuzzBudget  = 1 << 16 // range bytes per tape; keeps one execution fast
	fuzzBase    = 1 << 20 // window base; low, so the dense tables stay small
	fuzzWindow  = 1 << 15 // offsets address 8 pages; lengths may run past
	fuzzMaxLen  = 8192    // lengths are taken modulo this: up to two pages
)

// Op kinds (the kind byte modulo fuzzKinds; higher bits pick the label).
const (
	fuzzTaint = iota // range write of a label
	fuzzClear        // range write of the clean tag
	fuzzSet          // one byte, clean or a label
	fuzzCheck        // CheckMem on every module
	fuzzScan         // ScanResidentClears on every module
	fuzzKinds
)

var fuzzDomainSizes = []uint32{8, 16, 32, 64, 128, 256}

// fuzzOp appends one encoded op to tape.
func fuzzOp(tape []byte, kind byte, off, n uint16) []byte {
	return append(tape, kind, byte(off), byte(off>>8), byte(n), byte(n>>8))
}

// newFuzzModule builds a module of the given clear mode over a fresh shadow.
func newFuzzModule(t *testing.T, ds uint32, clear ClearPolicy) *Module {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DomainSize = ds
	cfg.Clear = clear
	cfg.AddressSpan = 0
	m, err := New(cfg, shadow.MustNew(ds))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fuzzState is everything the equivalence compares for one module.
type fuzzState struct {
	CTTWords   []uint32
	CTTSet     int
	CTTNonzero int
	PageBits   []uint32
	CTCLines   []string
	CTC        cache.Stats
	TLB        cache.Stats
	Stats      Stats
}

func captureModule(m *Module) fuzzState {
	st := fuzzState{
		CTTWords:   append([]uint32(nil), m.ctt.words...),
		CTTSet:     m.ctt.TaintedDomains(),
		CTTNonzero: m.ctt.WordsAllocated(),
		CTC:        m.ctc.Stats(),
		TLB:        m.TLBStats(),
		Stats:      m.Stats(),
	}
	firstPage := mem.PageNumber(fuzzBase)
	for pn := firstPage; pn <= mem.PageNumber(fuzzBase+fuzzWindow+fuzzMaxLen); pn++ {
		st.PageBits = append(st.PageBits, m.PageTaintBits(pn))
	}
	m.ctc.ForEach(func(addr uint32, l *cache.Line) {
		st.CTCLines = append(st.CTCLines, fmt.Sprintf("%#x data=%#x aux=%#x", addr, l.Data, l.Aux))
	})
	return st
}

// shadowState summarizes a shadow's counters, ever-tainted set and tags.
type shadowState struct {
	Tainted     uint64
	EverPages   []uint32
	EverCount   int
	CurPages    int
	Allocated   int
	DomainBytes []int
	Tags        []shadow.Tag
}

func captureShadow(sh *shadow.Shadow) shadowState {
	st := shadowState{
		Tainted:   sh.TaintedBytes(),
		EverPages: sh.EverTaintedPageNumbers(),
		EverCount: sh.EverTaintedPages(),
		CurPages:  sh.CurrentTaintedPages(),
		Allocated: sh.PagesAllocated(),
	}
	end := uint32(fuzzBase + fuzzWindow + fuzzMaxLen)
	for a := uint32(fuzzBase); a < end; a += sh.DomainSize() {
		st.DomainBytes = append(st.DomainBytes, sh.DomainTaintedBytes(sh.DomainIndex(a)))
	}
	for a := uint32(fuzzBase); a < end; a++ {
		st.Tags = append(st.Tags, sh.Get(a))
	}
	return st
}

// firstDiff names the first field in which two captures (SetRange side
// first) differ, or returns "" when they are equal.
func firstDiff[T any](ranged, bytewise T) string {
	a, b := reflect.ValueOf(ranged), reflect.ValueOf(bytewise)
	for i := 0; i < a.NumField(); i++ {
		x, y := a.Field(i).Interface(), b.Field(i).Interface()
		if !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("%s:\nSetRange %s\nSet      %s", a.Type().Field(i).Name, clip(x), clip(y))
		}
	}
	return ""
}

// clip formats v, cut to a readable length.
func clip(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 400 {
		s = s[:400] + "..."
	}
	return s
}

func FuzzSetRangeWatched(f *testing.F) {
	for _, tape := range materializationTapes(f) {
		f.Add(tape.ds, tape.ops)
	}
	// Hand-written shapes: a page-straddling taint, a partial clear inside
	// it, a relabel, and a re-taint over a half-tainted domain.
	var tape []byte
	tape = fuzzOp(tape, fuzzTaint, 4000, 200)
	tape = fuzzOp(tape, fuzzClear, 4090, 3)
	tape = fuzzOp(tape, fuzzTaint|1<<3, 3990, 40)
	tape = fuzzOp(tape, fuzzCheck, 4091, 2)
	tape = fuzzOp(tape, fuzzSet, 4092, 0)
	tape = fuzzOp(tape, fuzzScan, 0, 0)
	tape = fuzzOp(tape, fuzzTaint, 4088, 16)
	f.Add(uint8(0), tape)
	// Eviction during a bulk fill (8-byte domains, 256-byte CTT words): a
	// cleared domain's clear bit sits in the least recently used CTC line
	// when a clean-span fill touching that domain starts one word below.
	// The first domain's write-allocate evicts the line, and its clear scan
	// must see the later domain still clean, as the per-byte order does.
	tape = fuzzOp(nil, fuzzTaint, 256, 8)
	tape = fuzzOp(tape, fuzzClear, 256, 8)
	for w := uint16(2); w <= 16; w++ {
		tape = fuzzOp(tape, fuzzTaint, w*256, 1)
	}
	tape = fuzzOp(tape, fuzzTaint, 248, 16)
	f.Add(uint8(0), tape)

	f.Fuzz(checkSetRangeTape)
}

// checkSetRangeTape runs one op tape (see FuzzSetRangeWatched).
func checkSetRangeTape(t *testing.T, dsSel uint8, ops []byte) {
	ds := fuzzDomainSizes[int(dsSel)%len(fuzzDomainSizes)]
	modes := []ClearPolicy{LazyClear, EagerClear}
	// ranged[i] and bytewise[i] run modes[i].
	var ranged, bytewise, all []*Module
	for _, mode := range modes {
		r, b := newFuzzModule(t, ds, mode), newFuzzModule(t, ds, mode)
		ranged, bytewise = append(ranged, r), append(bytewise, b)
		all = append(all, r, b)
	}
	if len(ops) > fuzzMaxOps*fuzzOpBytes {
		ops = ops[:fuzzMaxOps*fuzzOpBytes]
	}
	budget := fuzzBudget
	for ; len(ops) >= fuzzOpBytes; ops = ops[fuzzOpBytes:] {
		kind := ops[0] % fuzzKinds
		label := shadow.MustLabel(int(ops[0]>>3) % 8)
		addr := fuzzBase + uint32(binary.LittleEndian.Uint16(ops[1:]))%fuzzWindow
		n := int(binary.LittleEndian.Uint16(ops[3:])) % fuzzMaxLen
		switch kind {
		case fuzzTaint, fuzzClear:
			if n = min(n, budget); n == 0 {
				continue
			}
			budget -= n
			tag := label
			if kind == fuzzClear {
				tag = shadow.TagClean
			}
			for i := range modes {
				ranged[i].Shadow.SetRange(addr, n, tag)
				for b := 0; b < n; b++ {
					bytewise[i].Shadow.Set(addr+uint32(b), tag)
				}
			}
		case fuzzSet:
			tag := label
			if n%2 == 0 {
				tag = shadow.TagClean
			}
			for _, m := range all {
				m.Shadow.Set(addr, tag)
			}
		case fuzzCheck:
			for _, m := range all {
				m.CheckMem(addr, 1+n%4)
			}
		case fuzzScan:
			for _, m := range all {
				m.ScanResidentClears()
			}
		}
	}
	compare := func(phase string) {
		t.Helper()
		for i, mode := range modes {
			if f := firstDiff(captureShadow(ranged[i].Shadow), captureShadow(bytewise[i].Shadow)); f != "" {
				t.Fatalf("ds=%d %s %s: shadow state diverged: %s", ds, mode, phase, f)
			}
			if f := firstDiff(captureModule(ranged[i]), captureModule(bytewise[i])); f != "" {
				t.Fatalf("ds=%d %s %s: coarse state diverged: %s", ds, mode, phase, f)
			}
		}
	}
	compare("after the tape")
	// LRU order is not directly visible; a sweep of checks over every
	// CTT word of the window makes it visible through the evictions and
	// clear scans it causes.
	for _, m := range all {
		cov := m.Config().WordCoverage()
		for a := uint32(fuzzBase); a < fuzzBase+fuzzWindow+fuzzMaxLen; a += cov {
			m.CheckMem(a, 1)
		}
	}
	compare("after the LRU sweep")
}

// materializationTape is one seed: a domain-size selector and an op tape.
type materializationTape struct {
	ds  uint8
	ops []byte
}

// materializationTapes seeds the fuzzer from real layouts: for each of six
// calibrated profiles at domain sizes 8, 64 and 256, the taint runs of the
// first two pages its generator materializes, replayed as range writes into
// two adjacent window pages, followed by a churn-shaped tail (clear the
// first runs, check them, scan, re-taint).
func materializationTapes(tb testing.TB) []materializationTape {
	var out []materializationTape
	for _, name := range []string{"lbm", "gcc", "perlbench", "mysql", "sphinx3", "astar"} {
		p, err := workload.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, ds := range []uint32{8, 64, 256} {
			g, err := workload.NewGenerator(p, ds)
			if err != nil {
				tb.Fatal(err)
			}
			sh := g.Shadow()
			var ops []byte
			var runs [][2]uint16
			for wp, pn := range sh.EverTaintedPageNumbers()[:min(2, sh.EverTaintedPages())] {
				base := pn << mem.PageShift
				for off := uint32(0); off < mem.PageSize; {
					if sh.Get(base+off) == shadow.TagClean {
						off++
						continue
					}
					start := off
					for off < mem.PageSize && sh.Get(base+off) != shadow.TagClean {
						off++
					}
					r := [2]uint16{uint16(uint32(wp)*mem.PageSize + start), uint16(off - start)}
					runs = append(runs, r)
					ops = fuzzOp(ops, fuzzTaint, r[0], r[1])
				}
			}
			for _, r := range runs[:min(3, len(runs))] {
				ops = fuzzOp(ops, fuzzClear, r[0], r[1])
				ops = fuzzOp(ops, fuzzCheck, r[0], 3)
			}
			ops = fuzzOp(ops, fuzzScan, 0, 0)
			if len(runs) > 0 {
				ops = fuzzOp(ops, fuzzTaint, runs[0][0], runs[0][1]+1)
			}
			sel := uint8(0)
			for i, d := range fuzzDomainSizes {
				if d == ds {
					sel = uint8(i)
				}
			}
			out = append(out, materializationTape{ds: sel, ops: ops})
		}
	}
	return out
}
