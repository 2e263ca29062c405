package diffcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseRepro feeds arbitrary text to the reproducer parser. It must
// never panic, and every case it accepts must survive WriteRepro and a
// re-parse unchanged. Run with
//
//	go test -run='^$' -fuzz=FuzzParseRepro ./internal/diffcheck/
func FuzzParseRepro(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/diffcheck/*.repro")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no checked-in reproducers to seed from")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := parseRepro(bytes.NewReader(raw), "fuzz")
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "case.repro")
		if err := WriteRepro(path, c, nil); err != nil {
			t.Fatalf("accepted case does not write back: %v", err)
		}
		got, err := ReadRepro(path)
		if err != nil {
			t.Fatalf("written case does not parse: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip changed the case:\n got %+v\nwant %+v", got, c)
		}
	})
}
