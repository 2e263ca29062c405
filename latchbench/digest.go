package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"latch/internal/engine"
	"latch/internal/platch"
)

// resultDigest hashes the deterministic fields of a backend result: the
// benchmark, EventCount, CheckCount and Columns, and for the concurrent
// P-LATCH backend every field except the scheduling-dependent Ring stats.
func resultDigest(res engine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d\n", res.BenchmarkName(), res.EventCount(), res.CheckCount())
	for _, c := range res.Columns() {
		fmt.Fprintf(h, "%s=%v\n", c.Label, c.Value)
	}
	var cr *platch.ConcurrentResult
	switch r := res.(type) {
	case platch.ConcurrentResult:
		cr = &r
	case *platch.ConcurrentResult:
		c := *r
		cr = &c
	}
	if cr != nil {
		cr.Ring = platch.RingStats{}
		b, err := json.Marshal(cr)
		if err != nil {
			panic(err) // a plain struct of numbers always marshals
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// bytesDigest hashes an arbitrary canonical encoding.
func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

// digestFile is where the digests recorded at the default seed live,
// relative to the repository root.
const digestFile = "latchbench/testdata/digests.json"

// checker verifies op outputs. A key with a recorded digest must match it;
// any other key must match the first output seen for it in this run, so
// that every op with the same inputs produced identical output.
type checker struct {
	mu       sync.Mutex
	recorded map[string]string
	seen     map[string]string
	failures []string
}

func newChecker(recorded map[string]string) *checker {
	return &checker{recorded: recorded, seen: make(map[string]string)}
}

// check reports whether got is the right output for key, recording a
// failure message when it is not.
func (c *checker) check(key, got string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.recorded[key]; ok {
		if got != want {
			c.failures = append(c.failures, fmt.Sprintf("%s: digest %s, recorded %s", key, got, want))
			return false
		}
		return true
	}
	if want, ok := c.seen[key]; ok && got != want {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %s, earlier op gave %s", key, got, want))
		return false
	}
	c.seen[key] = got
	return true
}

// fail records a failure that is not a digest mismatch.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// requireRecorded fails unless key has a recorded digest: at the default
// seed every op must be checked against this commit's outputs, never only
// against itself.
func (c *checker) requireRecorded(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.recorded[key]; !ok {
		c.failures = append(c.failures, fmt.Sprintf("%s: no recorded digest in %s", key, digestFile))
		return false
	}
	return true
}

func (c *checker) failureList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.failures...)
}

func loadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func saveDigests(path string, m map[string]string) error {
	// encoding/json sorts map keys, so the file is stable.
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
