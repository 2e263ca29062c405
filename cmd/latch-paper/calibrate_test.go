package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"latch/internal/workload"
)

// runCalibrate runs `latch-paper calibrate` in-process.
func runCalibrate(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = cmdCalibrate(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCalibrateMatchesTables runs the audit at the golden lengths and
// checks that every measured value it prints is the cell `tables` prints
// for the same benchmark at the same options: the audit reads the passes
// behind Tables 1–4, 6 and 7, so it cannot disagree with them.
func TestCalibrateMatchesTables(t *testing.T) {
	lengths := []string{"-events", "60000", "-epoch-events", "400000"}
	code, out, errOut := runCalibrate(lengths...)
	if code != 0 && code != 1 {
		t.Fatalf("calibrate: exit %d: %s", code, errOut)
	}
	if flagged := strings.Contains(out, "outside the 3x tolerance"); flagged != (code == 1) {
		t.Errorf("exit %d does not match the verdict:\n%s", code, out)
	}
	// measured[benchmark][metric] as calibrate prints it.
	measured := map[string]map[string]string{}
	var bench string
	for _, line := range strings.Split(out, "\n") {
		if name, _, ok := strings.Cut(line, " ("); ok && !strings.HasPrefix(line, " ") {
			bench = name
			measured[bench] = map[string]string{}
			continue
		}
		metric, rest, ok := strings.Cut(strings.TrimSpace(line), " measured ")
		if ok {
			measured[bench][strings.TrimSpace(metric)] = strings.Fields(rest)[0]
		}
	}

	code, out, errOut = runTables(append(lengths, "-exp", "table1,table2,table3,table4,table6,table7", "-format", "json")...)
	if code != 0 {
		t.Fatalf("tables: exit %d: %s", code, errOut)
	}
	// Column of each audited metric, per table id; Tables 6 and 7 print
	// "measured | paper".
	columns := map[string]map[string]int{
		"table1": {"taint %": 1}, "table2": {"taint %": 1},
		"table3": {"tainted pgs": 2}, "table4": {"tainted pgs": 2},
		"table6": {"CTC miss %": 1, "t$ miss %": 2, "baseline %": 4, "avoided %": 5},
		"table7": {"CTC miss %": 1, "t$ miss %": 2, "baseline %": 4, "avoided %": 5},
	}
	checked := 0
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var rec struct {
			ID    string `json:"id"`
			Table struct {
				Rows [][]string `json:"rows"`
			} `json:"table"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		for _, row := range rec.Table.Rows {
			for metric, col := range columns[rec.ID] {
				want, _, _ := strings.Cut(row[col], " | ")
				if got := measured[row[0]][metric]; got != want {
					t.Errorf("%s %s %s: calibrate measured %q, table cell %q", rec.ID, row[0], metric, got, want)
				}
				checked++
			}
		}
	}
	if want := 6 * len(workload.Names()); checked != want {
		t.Errorf("compared %d cells, want %d", checked, want)
	}
}

func TestCalibrateUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"tolerance below one", []string{"-tol", "0"}, "-tol must be at least 1"},
		{"tolerance not a number", []string{"-tol", "NaN"}, "-tol must be at least 1"},
		{"unknown benchmark", []string{"-bench", "nope"}, "unknown benchmark"},
		{"unknown flag", []string{"-nope"}, "-nope"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := runCalibrate(c.args...)
			if code != 2 || out != "" {
				t.Fatalf("exit %d, stdout %q; want 2 and none", code, out)
			}
			if !strings.Contains(errOut, c.want) {
				t.Errorf("stderr %q does not mention %q", errOut, c.want)
			}
		})
	}
}

// TestCalibrateHelp keeps the flag usage text literal: flag help is not a
// format string, so a doubled percent sign would print as is.
func TestCalibrateHelp(t *testing.T) {
	code, _, errOut := runCalibrate("-h")
	if code != 0 || !strings.Contains(errOut, "taint-% pass") || strings.Contains(errOut, "%%") {
		t.Errorf("exit %d, usage:\n%s", code, errOut)
	}
}
