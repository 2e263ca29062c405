package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	p := MustGet("gcc")
	p.Name = "my-app"
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "my-app" || q.TaintPct != p.TaintPct || q.TaintReuse != p.TaintReuse {
		t.Fatalf("round trip lost fields: %+v", q)
	}
	if len(q.Epochs) != len(p.Epochs) {
		t.Fatalf("epochs lost: %d vs %d", len(q.Epochs), len(p.Epochs))
	}
	// The restored profile drives a generator like any built-in.
	g, err := NewGenerator(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shadow().EverTaintedPages() != q.PagesTainted {
		t.Fatal("restored profile does not materialize")
	}
}

func TestReadProfileRejections(t *testing.T) {
	cases := []string{
		`{`,                          // malformed
		`{"Name":"x","Bogus":1}`,     // unknown field
		`{"Name":"gcc"}`,             // collides with a built-in (and invalid anyway)
		`{"Name":"y","TaintPct":-1}`, // fails validation
	}
	for i, src := range cases {
		if _, err := ReadProfile(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A valid custom profile with a built-in name is rejected explicitly.
	p := MustGet("gcc")
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfile(&buf); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Errorf("built-in name collision not flagged: %v", err)
	}
}
