package policy

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultMatchesHistoricalPolicy(t *testing.T) {
	p := Default()
	want := Policy{
		TaintFile:        true,
		TaintNet:         true,
		CheckControlFlow: true,
		CheckLeak:        false,
		FailFast:         true,
	}
	if p != want {
		t.Fatalf("Default() = %+v, want %+v", p, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestPropagation(t *testing.T) {
	if got := Propagation("").String(); got != "classical" {
		t.Errorf("zero Propagation String() = %q, want classical", got)
	}
	if got := PropagationPIFT.String(); got != "pift" {
		t.Errorf("pift String() = %q", got)
	}
	for _, m := range []Propagation{"", PropagationClassical, PropagationPIFT} {
		if !m.Valid() {
			t.Errorf("%q should be valid", m)
		}
	}
	if Propagation("quantum").Valid() {
		t.Error("unknown mode should be invalid")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"zero", Policy{}, true},
		{"default", Default(), true},
		{"bad propagation", Policy{Propagation: "quantum"}, false},
		{"trust low", Policy{TrustFraction: -0.1}, false},
		{"trust high", Policy{TrustFraction: 1.5}, false},
		{"trust nan", Policy{TrustFraction: math.NaN()}, false},
		{"sample low", Policy{Sampling: Sampling{SampleFraction: -1}}, false},
		{"sample high", Policy{Sampling: Sampling{SampleFraction: 2}}, false},
		{"sample nan", Policy{Sampling: Sampling{SampleFraction: math.NaN()}}, false},
		{"sample ok", Policy{Sampling: Sampling{SampleFraction: 0.25, SampleSeed: 7}}, true},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSamplingEnabled(t *testing.T) {
	if (Sampling{}).Enabled() {
		t.Error("zero Sampling must be disabled")
	}
	if (Sampling{SampleFraction: 1}).Enabled() {
		t.Error("fraction 1.0 must be an exact no-op")
	}
	if !(Sampling{SampleFraction: 0.5}).Enabled() {
		t.Error("fraction 0.5 must be enabled")
	}
}

// Disabled sampling and fraction 1.0 must both pass every event — the
// byte-identity guarantee for unsampled policies.
func TestSamplerNoOpFractions(t *testing.T) {
	for _, s := range []Sampling{{}, {SampleFraction: 1}, {SampleFraction: 1, SampleSeed: 99}} {
		sp := NewSampler(s)
		for kind := KindFile; kind <= KindLayout; kind++ {
			for ord := uint64(0); ord < 4096; ord++ {
				if !sp.Sample(kind, ord) {
					t.Fatalf("spec %+v dropped (kind=%d, ord=%d)", s, kind, ord)
				}
			}
		}
	}
}

// The same (seed, kind, ordinal) always yields the same decision, and
// independently constructed samplers agree.
func TestSamplerDeterministic(t *testing.T) {
	spec := Sampling{SampleFraction: 0.3, SampleSeed: 42}
	a, b := NewSampler(spec), NewSampler(spec)
	for ord := uint64(0); ord < 10000; ord++ {
		for kind := KindFile; kind <= KindLayout; kind++ {
			if a.Sample(kind, ord) != b.Sample(kind, ord) {
				t.Fatalf("samplers diverge at (kind=%d, ord=%d)", kind, ord)
			}
		}
	}
}

// Nested thresholds: with a fixed seed, the sampled set at a lower
// fraction is a subset of the sampled set at any higher fraction. This
// is the property that makes the frontier experiment's detection rate
// and taint footprint mechanically monotone.
func TestSamplerNested(t *testing.T) {
	fractions := []float64{0.01, 0.1, 0.25, 0.5, 1.0}
	for seed := uint64(0); seed < 8; seed++ {
		samplers := make([]Sampler, len(fractions))
		for i, f := range fractions {
			samplers[i] = NewSampler(Sampling{SampleFraction: f, SampleSeed: seed})
		}
		for ord := uint64(0); ord < 20000; ord++ {
			for i := 0; i+1 < len(fractions); i++ {
				if samplers[i].Sample(KindLayout, ord) && !samplers[i+1].Sample(KindLayout, ord) {
					t.Fatalf("seed %d ord %d: sampled at %v but not at %v",
						seed, ord, fractions[i], fractions[i+1])
				}
			}
		}
	}
}

// The empirical acceptance rate tracks the requested fraction.
func TestSamplerFractionAccuracy(t *testing.T) {
	const n = 100000
	for _, f := range []float64{0.01, 0.1, 0.25, 0.5, 0.9} {
		sp := NewSampler(Sampling{SampleFraction: f, SampleSeed: 1})
		hits := 0
		for ord := uint64(0); ord < n; ord++ {
			if sp.Sample(KindFile, ord) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-f) > 0.01 {
			t.Errorf("fraction %v: empirical rate %v off by more than 1%%", f, got)
		}
	}
}

// Different kinds decorrelate: the file and net decisions at the same
// ordinal must not be the same bit pattern.
func TestSamplerKindsIndependent(t *testing.T) {
	sp := NewSampler(Sampling{SampleFraction: 0.5, SampleSeed: 3})
	same := 0
	const n = 10000
	for ord := uint64(0); ord < n; ord++ {
		if sp.Sample(KindFile, ord) == sp.Sample(KindNet, ord) {
			same++
		}
	}
	if same == n || same == 0 {
		t.Fatalf("file and net decisions perfectly correlated (%d/%d agree)", same, n)
	}
}

func TestTrust(t *testing.T) {
	sp := NewSampler(Sampling{SampleSeed: 11})
	if sp.Trust(0, 5) {
		t.Error("fraction 0 must trust nothing")
	}
	if sp.Trust(1, -1) {
		t.Error("negative conn must never be trusted")
	}
	if !sp.Trust(1, 5) {
		t.Error("fraction 1 must trust every conn")
	}
	// Determinism and seed-stability at a partial fraction.
	other := NewSampler(Sampling{SampleFraction: 0.25, SampleSeed: 11})
	trusted := 0
	for conn := 0; conn < 1000; conn++ {
		a, b := sp.Trust(0.5, conn), other.Trust(0.5, conn)
		if a != b {
			t.Fatalf("trust decision for conn %d depends on SampleFraction", conn)
		}
		if a {
			trusted++
		}
	}
	if trusted < 400 || trusted > 600 {
		t.Errorf("trust rate %d/1000 far from 0.5", trusted)
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	p := Policy{
		Propagation:      PropagationPIFT,
		TaintFile:        true,
		TrustFraction:    0.75,
		CheckControlFlow: true,
		CheckLeak:        true,
		Sampling:         Sampling{SampleFraction: 0.1, SampleSeed: 123456789},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Policy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip: got %+v, want %+v", back, p)
	}
}

// A JSON object overlays onto Default() without clobbering unmentioned
// fields — the pattern the -policy CLI flag and serve bodies rely on.
func TestPolicyJSONOverlay(t *testing.T) {
	p := Default()
	if err := json.Unmarshal([]byte(`{"check_leak": true, "sampling": {"sample_fraction": 0.5}}`), &p); err != nil {
		t.Fatal(err)
	}
	if !p.CheckLeak || !p.TaintFile || !p.CheckControlFlow || p.Sampling.SampleFraction != 0.5 {
		t.Fatalf("overlay produced %+v", p)
	}
}

func TestPolicySamplerAccessor(t *testing.T) {
	p := Default()
	p.Sampling = Sampling{SampleFraction: 0.5, SampleSeed: 9}
	if p.Sampler() != NewSampler(p.Sampling) {
		t.Fatal("Policy.Sampler() disagrees with NewSampler")
	}
}

func TestFromFlags(t *testing.T) {
	pol, given, err := FromFlags("", -1, 0)
	if err != nil || given || pol != Default() {
		t.Fatalf("no flags: %+v given=%v err=%v, want the default, not given", pol, given, err)
	}
	pol, given, err = FromFlags("", 0.25, 7)
	if err != nil || !given || pol.Sampling.SampleFraction != 0.25 || pol.Sampling.SampleSeed != 7 {
		t.Fatalf("-sample 0.25 -sample-seed 7: %+v given=%v err=%v", pol, given, err)
	}
	if _, _, err := FromFlags("", -1, 7); err == nil || !strings.Contains(err.Error(), "needs a sampler") {
		t.Fatalf("-sample-seed alone: err %v, want a needs-a-sampler error", err)
	}
	if _, _, err := FromFlags("", 1.5, 0); err == nil {
		t.Fatal("-sample 1.5 accepted")
	}

	dir := t.TempDir()
	file := filepath.Join(dir, "pol.json")
	if err := os.WriteFile(file, []byte(`{"check_leak":true,"sampling":{"sample_fraction":0.5,"sample_seed":3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The file overlays the default; -sample-seed overrides the file's seed.
	pol, given, err = FromFlags(file, -1, 9)
	if err != nil || !given || !pol.CheckLeak || !pol.CheckControlFlow ||
		pol.Sampling.SampleFraction != 0.5 || pol.Sampling.SampleSeed != 9 {
		t.Fatalf("policy file: %+v given=%v err=%v", pol, given, err)
	}
	if _, _, err := FromFlags(filepath.Join(dir, "missing.json"), -1, 0); err == nil {
		t.Fatal("missing policy file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromFlags(bad, -1, 0); err == nil || !strings.Contains(err.Error(), "bad -policy file") {
		t.Fatalf("malformed policy file: err %v", err)
	}
}
