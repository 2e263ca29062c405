package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"latch/internal/experiments"
)

// runTables runs `latch-paper tables` in-process.
func runTables(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = cmdTables(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestTablesList(t *testing.T) {
	code, out, _ := runTables("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(experiments.Catalog) {
		t.Fatalf("listed %d experiments, catalog has %d", len(lines), len(experiments.Catalog))
	}
	for i, e := range experiments.Catalog {
		if !strings.HasPrefix(lines[i], e.ID+" ") || !strings.HasSuffix(lines[i], e.Title) {
			t.Errorf("line %d = %q, want %s ... %s", i, lines[i], e.ID, e.Title)
		}
	}
}

// TestTablesFormats renders one experiment in each output format and
// checks it against the table the runner builds directly.
func TestTablesFormats(t *testing.T) {
	want, err := experiments.NewRunner(experiments.DefaultOptions()).Complexity()
	if err != nil {
		t.Fatal(err)
	}

	code, out, _ := runTables("-exp", "complexity")
	if code != 0 {
		t.Fatalf("text: exit %d", code)
	}
	if !strings.HasPrefix(out, want.String()+"\n[complexity regenerated in ") {
		t.Errorf("text output:\n%s", out)
	}

	code, out, _ = runTables("-exp", "complexity", "-format", "markdown")
	if code != 0 || out != want.Markdown()+"\n" {
		t.Errorf("markdown: exit %d, output:\n%s", code, out)
	}

	code, out, _ = runTables("-exp", "complexity", "-format", "json")
	if code != 0 {
		t.Fatalf("json: exit %d", code)
	}
	var rec struct {
		ID    string          `json:"id"`
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	wantJSON, _ := json.Marshal(want)
	if rec.ID != "complexity" || !bytes.Equal(rec.Table, wantJSON) {
		t.Errorf("json record %s %s, want complexity %s", rec.ID, rec.Table, wantJSON)
	}
}

func TestTablesUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "nope"}, "unknown id"},
		{"seed without sampler", []string{"-exp", "complexity", "-sample-seed", "7"}, "needs a sampler"},
		{"unknown format", []string{"-format", "nope"}, "unknown format"},
		// -shards is gone (one monitor core): any use is an unknown flag.
		{"negative shards", []string{"-shards", "-1"}, "-shards"},
		{"unknown flag", []string{"-nope"}, "-nope"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := runTables(c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if out != "" {
				t.Errorf("usage error wrote stdout: %q", out)
			}
			if !strings.Contains(errOut, c.want) {
				t.Errorf("stderr %q does not mention %q", errOut, c.want)
			}
		})
	}
}
