package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// source places its labels so that name order and address order differ.
const source = `
_start:
	movi r1, 3
zloop:
	addi r1, r1, -1
	bne  r1, r0, zloop
	halt
alpha:
	.word 0xCAFEBABE
`

// runAsm runs latch-asm in-process.
func runAsm(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestAssembleDisassembleRoundTrip assembles a source to an object and
// checks that disassembling the object prints what disassembling the
// source prints.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.s")
	if err := os.WriteFile(src, []byte(source), 0o644); err != nil {
		t.Fatal(err)
	}
	obj := filepath.Join(dir, "prog.lobj")
	code, out, errOut := runAsm(src)
	if code != 0 || out != obj+": 20 bytes, 3 symbols, entry 0x0\n" {
		t.Fatalf("assemble: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	code, fromSource, errOut := runAsm("-d", src)
	if code != 0 {
		t.Fatalf("-d source: exit %d: %s", code, errOut)
	}
	code, fromObject, errOut := runAsm("-d", obj)
	if code != 0 {
		t.Fatalf("-d object: exit %d: %s", code, errOut)
	}
	if fromObject != fromSource || !strings.Contains(fromSource, "halt") {
		t.Errorf("object disassembly:\n%s\nsource disassembly:\n%s", fromObject, fromSource)
	}

	code, syms, errOut := runAsm("-syms", obj)
	if code != 0 {
		t.Fatalf("-syms: exit %d: %s", code, errOut)
	}
	if want := "00000000  _start\n00000004  zloop\n00000010  alpha\n"; syms != want {
		t.Errorf("-syms:\n%s\nwant (address order):\n%s", syms, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"a.s", "b.s"}, {"-nope", "a.s"}} {
		code, out, errOut := runAsm(args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2 with usage on stderr", args, code, out, errOut)
		}
	}
	code, _, errOut := runAsm(filepath.Join(t.TempDir(), "missing.s"))
	if code != 1 || !strings.Contains(errOut, "missing.s") {
		t.Errorf("missing input: exit %d, stderr %q", code, errOut)
	}
}
