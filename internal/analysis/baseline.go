package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Baseline is the set of grandfathered findings CI tolerates, as
// fingerprint -> accepted count. The gate reports only findings beyond
// the baseline, so a new invariant can land with its existing debt
// recorded while every NEW violation still fails the build.
type Baseline map[string]int

// BaselineEntry is one accepted finding class in the serialized file;
// the triple mirrors Fingerprint.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

// baselineFile is the on-disk shape, versioned so a future format
// change can be detected instead of silently filtering nothing.
type baselineFile struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

const baselineVersion = 1

// Fingerprint identifies a finding class stably across unrelated edits:
// analyzer, root-relative file and message — deliberately not the line
// or column, so inserting code above a grandfathered finding does not
// resurface it, while moving it to another file (or changing what the
// analyzer says about it) does.
func Fingerprint(f Finding, root string) string {
	return f.Analyzer + "\x00" + relToRoot(root, f.Pos.Filename) + "\x00" + f.Message
}

func relToRoot(root, filename string) string {
	if root == "" {
		return filepath.ToSlash(filename)
	}
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// NewBaseline folds findings into a baseline keyed by fingerprint.
func NewBaseline(findings []Finding, root string) Baseline {
	b := Baseline{}
	for _, f := range findings {
		b[Fingerprint(f, root)]++
	}
	return b
}

// Filter returns the findings not covered by the baseline: each
// fingerprint consumes up to its accepted count in encounter order, and
// everything beyond that count survives as a new finding.
func (b Baseline) Filter(findings []Finding, root string) []Finding {
	used := map[string]int{}
	var out []Finding
	for _, f := range findings {
		fp := Fingerprint(f, root)
		if used[fp] < b[fp] {
			used[fp]++
			continue
		}
		out = append(out, f)
	}
	return out
}

// LoadBaseline reads a baseline file written by WriteBaseline. A
// missing file is not an error: it is the empty baseline, so a repo
// without recorded debt gates on every finding.
func LoadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Baseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("analysis: parsing baseline %s: %v", path, err)
	}
	if bf.Version != baselineVersion {
		return nil, fmt.Errorf("analysis: baseline %s has version %d, want %d; regenerate it",
			path, bf.Version, baselineVersion)
	}
	b := Baseline{}
	for _, e := range bf.Entries {
		b[e.Analyzer+"\x00"+e.File+"\x00"+e.Message] += e.Count
	}
	return b, nil
}

// WriteBaseline records the findings as the new accepted debt, sorted
// for stable diffs.
func WriteBaseline(path string, findings []Finding, root string) error {
	bf := baselineFile{Version: baselineVersion, Entries: []BaselineEntry{}}
	for fp, n := range NewBaseline(findings, root) {
		parts := strings.SplitN(fp, "\x00", 3)
		bf.Entries = append(bf.Entries, BaselineEntry{
			Analyzer: parts[0], File: parts[1], Message: parts[2], Count: n,
		})
	}
	sort.Slice(bf.Entries, func(i, j int) bool {
		a, b := bf.Entries[i], bf.Entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
