package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"latch/internal/paperrun"
)

// TestSmokeGridValid keeps the embedded smoke grid loadable — a broken
// smoke grid would otherwise only surface inside `make verify`.
func TestSmokeGridValid(t *testing.T) {
	g, hash, err := paperrun.LoadGrid([]byte(smokeGrid))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "paper-smoke" || g.Repeats != 2 || len(g.Cells) != 2 || len(hash) != 64 {
		t.Fatalf("unexpected smoke grid: %+v", g)
	}
}

// TestDefaultGridValid keeps the checked-in experiments.json loadable, so
// `make paper` cannot be broken by a stale backend, workload, or axis
// name in the default grid.
func TestDefaultGridValid(t *testing.T) {
	raw, err := os.ReadFile("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := paperrun.LoadGrid(raw)
	if err != nil {
		t.Fatal(err)
	}
	if g.Repeats < 2 {
		t.Fatalf("default grid has %d repeats; dispersion statistics need at least 2", g.Repeats)
	}
	if len(g.Cells) < 5 {
		t.Fatalf("default grid has only %d cells", len(g.Cells))
	}
}

// FuzzLoadGrid feeds arbitrary bytes to the grid loader. It must never
// panic, and every grid it accepts must marshal back to a file that loads
// to an equal grid. Equal means equal encodings: omitempty writes an empty
// list and an absent one alike, and the pipeline reads them alike (it only
// takes their length), so `"shards": []` and no shards are the same grid.
// Run with
//
//	go test -run='^$' -fuzz=FuzzLoadGrid ./cmd/latch-paper/
func FuzzLoadGrid(f *testing.F) {
	raw, err := os.ReadFile("../../experiments.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(smokeGrid))
	f.Add([]byte(`{"name":"g","repeats":1,"cells":[{"id":"a","kind":"experiment","experiments":["table2"],"shards":[]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, _, err := paperrun.LoadGrid(raw)
		if err != nil {
			return
		}
		again, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not marshal: %v", err)
		}
		got, _, err := paperrun.LoadGrid(again)
		if err != nil {
			t.Fatalf("re-marshaled grid rejected: %v\n%s", err, again)
		}
		if final, err := json.Marshal(got); err != nil || !bytes.Equal(final, again) {
			t.Fatalf("round trip changed the grid:\n got %s\nwant %s", final, again)
		}
	})
}
