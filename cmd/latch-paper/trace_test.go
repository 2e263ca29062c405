package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// runTrace runs `latch-paper trace` in-process.
func runTrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = cmdTrace(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestTraceBench(t *testing.T) {
	code, out, errOut := runTrace("-bench", "astar", "-events", "20000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	checkGolden(t, "trace-astar.golden", out)
}

// TestTraceDumpReplay records a stream, replays the file, and pins the
// file's bytes: the replay recomputes the generating run's epoch table
// from the records alone.
func TestTraceDumpReplay(t *testing.T) {
	astar, err := os.ReadFile(filepath.Join("testdata", "trace-astar.golden"))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := os.ReadFile(filepath.Join("testdata", "trace-replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// The goldens name the trace file by its base name.
	path := filepath.Join(t.TempDir(), "trace.trc")

	code, out, errOut := runTrace("-bench", "astar", "-events", "20000", "-dump", path)
	if code != 0 {
		t.Fatalf("dump: exit %d: %s", code, errOut)
	}
	if out, want := strings.ReplaceAll(out, path, "trace.trc"), string(astar)+"dumped 20000 events to trace.trc\n"; out != want {
		t.Errorf("dump output:\n%s\nwant:\n%s", out, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "8728718fd1e9c24d26519004dedb80d3c532a3455e87230fdfd81f07c708ed83"
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != wantSum {
		t.Errorf("trace file sha256 %s, want %s", sum, wantSum)
	}

	code, out, errOut = runTrace("-replay", path)
	if code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errOut)
	}
	if out := strings.ReplaceAll(out, path, "trace.trc"); out != string(replay) {
		t.Errorf("replay output:\n%s\nwant:\n%s", out, replay)
	}
}

// TestTraceProfile characterizes a custom profile read back from the JSON
// that workload.WriteProfile writes.
func TestTraceProfile(t *testing.T) {
	p := workload.MustGet("astar")
	p.Name, p.Seed = "my-app", 11
	var buf bytes.Buffer
	if err := workload.WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "my-app.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTrace("-profile", path, "-events", "20000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	checkGolden(t, "trace-profile.golden", out)
}

func TestTraceUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no stream", nil, "-bench or -profile is required"},
		{"unknown benchmark", []string{"-bench", "nope"}, "unknown benchmark"},
		{"missing profile", []string{"-profile", filepath.Join(t.TempDir(), "none.json")}, "none.json"},
		{"unknown flag", []string{"-nope"}, "-nope"},
		{"replay and profile", []string{"-replay", "a.trc", "-profile", "p.json"}, "exclusive"},
		{"replay and bench", []string{"-replay", "a.trc", "-bench", "astar"}, "exclusive"},
		{"profile and bench", []string{"-profile", "p.json", "-bench", "astar"}, "exclusive"},
		{"all three sources", []string{"-replay", "a.trc", "-profile", "p.json", "-bench", "astar"}, "exclusive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := runTrace(c.args...)
			if code != 2 || out != "" {
				t.Fatalf("exit %d, stdout %q; want 2 and none", code, out)
			}
			if !strings.Contains(errOut, c.want) {
				t.Errorf("stderr %q does not mention %q", errOut, c.want)
			}
		})
	}
}
