// Command latch-asm is the LA32 assembler toolchain front end: it
// assembles source to object files, disassembles objects or sources, and
// dumps symbol tables.
//
// Usage:
//
//	latch-asm prog.s                 # assemble to prog.lobj
//	latch-asm -o out.lobj prog.s
//	latch-asm -d prog.lobj           # disassemble an object
//	latch-asm -d prog.s              # assemble + disassemble source
//	latch-asm -syms prog.lobj        # dump the symbol table
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"latch/internal/isa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status: 2 for a usage
// error, 1 for a failed assembly, read or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latch-asm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out    = fs.String("o", "", "output object path (default: input with .lobj)")
		disasm = fs.Bool("d", false, "disassemble instead of assembling")
		syms   = fs.Bool("syms", false, "dump the symbol table")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: latch-asm [-o out.lobj] [-d] [-syms] <input>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	input := fs.Arg(0)
	data, err := os.ReadFile(input)
	if err != nil {
		return fail(err)
	}
	prog, err := isa.Load(string(data))
	if err != nil {
		return fail(err)
	}

	switch {
	case *syms:
		names := make([]string, 0, len(prog.Labels))
		for name := range prog.Labels {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			return prog.Labels[names[i]] < prog.Labels[names[j]]
		})
		for _, name := range names {
			fmt.Fprintf(stdout, "%08x  %s\n", prog.Labels[name], name)
		}
	case *disasm:
		fmt.Fprint(stdout, isa.Disassemble(prog))
	default:
		path := *out
		if path == "" {
			path = strings.TrimSuffix(input, ".s") + ".lobj"
		}
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		err = isa.WriteObject(f, prog)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: %d bytes, %d symbols, entry %#x\n",
			path, len(prog.Image), len(prog.Labels), prog.Entry)
	}
	return 0
}
