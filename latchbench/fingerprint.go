package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host a result was measured on, plus the code
// it measured. Only the host fields decide whether two results may be
// compared; the revision fields say what was measured.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	GitRev    string `json:"git_rev"`    // "none" outside a git checkout
	SourceSHA string `json:"source_sha"` // hash of the tree's Go sources
}

// hostFingerprint reads the current host and the tree at root.
func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(root),
		SourceSHA:  sourceSHA(root),
	}
}

// sameHost reports why two fingerprints name different hosts, or "" when
// their results may be compared.
func sameHost(a, b fingerprint) string {
	var diffs []string
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu model %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, "; ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD by reading .git directly, so no git process runs.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceSHA hashes every Go source and go.mod under root, skipping hidden
// directories (the build directory, .git).
func sourceSHA(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's full result, written by -out and read by compare.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Result      resultLine  `json:"result"`
	Details     details     `json:"details"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints head against base metric by metric. It refuses
// results from different hosts or of different workloads: a ratio across
// machines measures the machines, not the code.
func compareRecords(w io.Writer, base, head record) error {
	if why := sameHost(base.Fingerprint, head.Fingerprint); why != "" {
		return fmt.Errorf("refusing to compare results from different hosts: %s", why)
	}
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return fmt.Errorf("refusing to compare workload %s (trace %v) with %s (trace %v)",
			base.Workload, base.Trace, head.Workload, head.Trace)
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for n := range base.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "metric", "base", "head", "change")
	for _, n := range names {
		b := base.Result.Metrics[n]
		h, ok := head.Result.Metrics[n]
		if !ok {
			return fmt.Errorf("head result lacks metric %s", n)
		}
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(h.Value-b.Value)/b.Value)
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %9s %s\n", n, b.Value, h.Value, change, b.Unit)
	}
	return nil
}
