package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Fixtures under testdata/src are loaded once (type-checking pulls in the
// standard library through the source importer, which dominates the cost)
// and shared across the analyzer tests.
var (
	fixOnce sync.Once
	fixPkgs map[string]*Package
	fixErr  error
)

var fixtureNames = []string{
	"looprange", "errcheck", "floatcmp", "paniclib", "shapeguard", "suppress",
	"goroutinepool", "determinism", "metricdiscipline", "metricdup",
	"lockdiscipline", "hotpath", "hotpathdep", "stale",
}

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	fixOnce.Do(func() {
		var pats []string
		for _, n := range fixtureNames {
			pats = append(pats, filepath.Join("testdata", "src", n))
		}
		pkgs, err := Load(".", pats)
		if err != nil {
			fixErr = err
			return
		}
		fixPkgs = map[string]*Package{}
		for _, p := range pkgs {
			fixPkgs[p.ImportPath[strings.LastIndex(p.ImportPath, "/")+1:]] = p
		}
	})
	if fixErr != nil {
		t.Fatalf("loading fixtures: %v", fixErr)
	}
	p, ok := fixPkgs[name]
	if !ok {
		t.Fatalf("fixture %q not loaded", name)
	}
	return p
}

func runFixture(t *testing.T, name string, a *Analyzer) []Finding {
	t.Helper()
	p := fixture(t, name)
	return RunPackages([]*Package{p}, []*Analyzer{a}, RunOptions{})
}

// checkMarkers compares findings against the fixture's `// want: <substr>`
// markers: every marker line must produce exactly one finding on that line
// whose message contains the substring, and no unmarked findings may
// survive.
func checkMarkers(t *testing.T, name string, findings []Finding) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	type want struct {
		file   string
		line   int
		substr string
	}
	var wants []want
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "// want: "
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if idx := strings.Index(line, marker); idx >= 0 {
				wants = append(wants, want{
					file:   e.Name(),
					line:   i + 1,
					substr: strings.TrimSpace(line[idx+len(marker):]),
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want markers", name)
	}

	remaining := append([]Finding(nil), findings...)
outer:
	for _, w := range wants {
		for i, f := range remaining {
			if filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == w.line &&
				strings.Contains(f.Message, w.substr) {
				remaining = append(remaining[:i], remaining[i+1:]...)
				continue outer
			}
		}
		t.Errorf("missing finding at %s:%d containing %q", w.file, w.line, w.substr)
	}
	for _, f := range remaining {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestLoopRangeCaptureFixture(t *testing.T) {
	checkMarkers(t, "looprange", runFixture(t, "looprange", LoopRangeCapture))
}

func TestUncheckedErrorFixture(t *testing.T) {
	checkMarkers(t, "errcheck", runFixture(t, "errcheck", UncheckedError))
}

func TestFloatCompareFixture(t *testing.T) {
	checkMarkers(t, "floatcmp", runFixture(t, "floatcmp", FloatCompare))
}

func TestPanicInLibraryFixture(t *testing.T) {
	checkMarkers(t, "paniclib", runFixture(t, "paniclib", PanicInLibrary))
}

func TestShapeGuardFixture(t *testing.T) {
	orig := ShapeGuardPackages
	ShapeGuardPackages = append(append([]string(nil), orig...), "testdata/src/shapeguard")
	defer func() { ShapeGuardPackages = orig }()
	checkMarkers(t, "shapeguard", runFixture(t, "shapeguard", ShapeGuard))
}

func TestGoroutinePoolFixture(t *testing.T) {
	checkMarkers(t, "goroutinepool", runFixture(t, "goroutinepool", GoroutinePool))
}

func TestDeterminismFixture(t *testing.T) {
	orig := DeterminismPackages
	DeterminismPackages = append(append([]string(nil), orig...), "testdata/src/determinism")
	defer func() { DeterminismPackages = orig }()
	checkMarkers(t, "determinism", runFixture(t, "determinism", Determinism))
}

func TestMetricDisciplineFixture(t *testing.T) {
	checkMarkers(t, "metricdiscipline", runFixture(t, "metricdiscipline", MetricDiscipline))
}

func TestLockDisciplineFixture(t *testing.T) {
	checkMarkers(t, "lockdiscipline", runFixture(t, "lockdiscipline", LockDiscipline))
}

// TestHotpathFixture runs the dependency package and its importer in one
// multi-package pass: the hotpathdep annotations land in the shared fact
// store first, so the importer's calls resolve cross-package. The
// dependency itself must stay finding-free — checkMarkers rejects any
// finding outside the hotpath fixture's marker set.
func TestHotpathFixture(t *testing.T) {
	dep, imp := fixture(t, "hotpathdep"), fixture(t, "hotpath")
	findings := RunPackages([]*Package{dep, imp}, []*Analyzer{Hotpath}, RunOptions{})
	checkMarkers(t, "hotpath", findings)
}

// TestMetricDupCrossPackage checks that a series name registered in two
// packages is reported at the second registration site, which only a
// shared-facts run can see: each package is clean in isolation.
func TestMetricDupCrossPackage(t *testing.T) {
	first, second := fixture(t, "metricdiscipline"), fixture(t, "metricdup")
	if fs := RunPackages([]*Package{second}, []*Analyzer{MetricDiscipline}, RunOptions{}); len(fs) != 0 {
		t.Fatalf("metricdup should be clean in isolation, got %v", fs)
	}
	findings := RunPackages([]*Package{first, second}, []*Analyzer{MetricDiscipline}, RunOptions{})
	var dups []Finding
	for _, f := range findings {
		if strings.Contains(filepath.Base(f.Pos.Filename), "metricdup") {
			dups = append(dups, f)
		}
	}
	if len(dups) != 1 || !strings.Contains(dups[0].Message, "already registered") {
		t.Errorf("want exactly one cross-package duplicate finding in metricdup, got %v", dups)
	}
}

// TestDeadExportFixture loads the deadexport fixture, a module of its
// own, whole. Dead funcs, methods, types, vars and consts are reported,
// including one whose only caller is a test and one referenced only by
// itself; symbols another package uses, methods that satisfy an interface
// (one declared in the module, one in fmt) and main-package names are
// not, and the suppressed oracle's directive is not stale.
func TestDeadExportFixture(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "deadexport"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings := RunPackages(pkgs, []*Analyzer{DeadExport}, RunOptions{ReportStale: true})
	checkMarkers(t, filepath.Join("deadexport", "lib"), findings)
}

// TestDeadExportPartialLoad loads the fixture's library without the
// command that calls it. The load no longer covers the module, so the
// analyzer reports nothing, and its directives are not reported stale.
func TestDeadExportPartialLoad(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "deadexport"), []string{"./lib"})
	if err != nil {
		t.Fatal(err)
	}
	if fs := RunPackages(pkgs, []*Analyzer{DeadExport}, RunOptions{ReportStale: true}); len(fs) != 0 {
		t.Errorf("partial load reported %d finding(s), want none: %v", len(fs), fs)
	}
}

// TestStaleDirective runs the full analyzer set with stale reporting on:
// the directive that still suppresses a float compare stays silent, the
// one whose guarded code drifted to an int compare is reported.
func TestStaleDirective(t *testing.T) {
	p := fixture(t, "stale")
	findings := RunPackages([]*Package{p}, All(), RunOptions{ReportStale: true})
	checkMarkers(t, "stale", findings)
}

// TestSuppression checks that well-formed directives (line above, trailing
// same-line, and the "all" wildcard) silence findings, while a reason-less
// directive is itself reported and suppresses nothing.
func TestSuppression(t *testing.T) {
	findings := runFixture(t, "suppress", FloatCompare)
	var malformed, floatcmp []Finding
	for _, f := range findings {
		switch f.Analyzer {
		case "lint-ignore":
			malformed = append(malformed, f)
		case "float-compare":
			floatcmp = append(floatcmp, f)
		default:
			t.Errorf("finding from unexpected analyzer: %s", f)
		}
	}
	if len(malformed) != 1 {
		t.Errorf("got %d malformed-directive findings, want 1: %v", len(malformed), malformed)
	}
	if len(floatcmp) != 2 {
		t.Errorf("got %d surviving float-compare findings, want 2 (Unsuppressed and Malformed): %v",
			len(floatcmp), floatcmp)
	}
	for _, f := range floatcmp {
		if f.Pos.Line < 24 {
			t.Errorf("finding in the suppressed region survived: %s", f)
		}
	}
}

// TestAllRegistered pins the analyzer roster: adding one without wiring it
// into All() would silently drop it from the driver.
func TestAllRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"looprange-capture", "unchecked-error", "float-compare",
		"panic-in-library", "shape-guard", "goroutinepool", "determinism",
		"metricdiscipline", "lockdiscipline", "hotpath", "deadexport",
	} {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
