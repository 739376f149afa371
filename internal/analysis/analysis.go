// Package analysis implements pimdl-lint, a project-specific static
// analyzer for the PIM-DL codebase. It is built purely on the standard
// library's go/ast, go/parser and go/types packages (the module stays
// zero-dependency) and enforces the invariants the simulator's
// correctness and performance claims rest on — per package: race-free
// goroutine fan-outs, no silently dropped errors, no exact float
// comparisons in model code, no panics in library packages that loaders
// can reach, shape validation at every dimension-taking entry point;
// and across packages, via a shared fact store threaded through a
// dependency-ordered multi-package run (RunPackages): all parallelism
// routed through the internal/parallel pool, no wall-clock or global-RNG
// or map-order dependence in simulator results, metric registration
// discipline (unique series, §10 naming), no copied or held-across-wait
// locks, and zero allocation in //pimdl:hotpath functions (DESIGN.md
// §7 and §11).
//
// Findings can be suppressed at the reporting site with a directive
// comment, either on the same line or the line immediately above:
//
//	//pimdl:lint-ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported,
// and on full-roster runs a directive that suppresses nothing is
// reported as stale. The baseline gate (Baseline, LoadBaseline,
// WriteBaseline) lets the driver fail only on findings not recorded in
// a committed baseline file.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one report from one analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Analyzer is a single named check run over one type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Prepare, when set, runs once over every loaded package before the
	// per-package loop, recording whole-program facts. It returns false
	// when the analyzer cannot judge this load; the analyzer is then
	// skipped and its suppression directives are not reported stale.
	Prepare func(*Facts, []*Package) bool
}

// Facts carries analyzer-computed information across packages. A run
// over multiple packages (RunPackages) shares one Facts value and visits
// packages in dependency order, so facts recorded while analyzing a
// package are visible to every package that imports it — the mechanism
// behind the cross-package hotpath and duplicate-registration checks.
type Facts struct {
	// Hotpath holds every function annotated //pimdl:hotpath, recorded
	// by the hotpath analyzer before it checks bodies so that intra- and
	// cross-package calls resolve against the same set.
	Hotpath map[*types.Func]bool
	// MetricSeries maps each metric series name registered with a
	// string literal to its first registration site.
	MetricSeries map[string]token.Position
	// Referenced holds every package-level object and method that a
	// loaded (non-test) file mentions outside the object's own
	// declaration, recorded by deadexport's Prepare.
	Referenced map[types.Object]bool
	// IfaceMethods indexes the interfaces visible to the loaded packages
	// (declared in them or anything they import, plus error) by method
	// name, so deadexport can keep interface-satisfying methods.
	IfaceMethods map[string][]*types.Interface
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{
		Hotpath:      map[*types.Func]bool{},
		MetricSeries: map[string]token.Position{},
	}
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info
	Facts    *Facts

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The repo loader excludes test files up front, but analyzers running on
// ad-hoc file sets (fixtures, future editor integration) still need the
// check.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns every analyzer in the order they run.
func All() []*Analyzer {
	return []*Analyzer{
		LoopRangeCapture,
		UncheckedError,
		FloatCompare,
		PanicInLibrary,
		ShapeGuard,
		GoroutinePool,
		Determinism,
		MetricDiscipline,
		LockDiscipline,
		Hotpath,
		DeadExport,
	}
}

// ignoreDirective is one parsed //pimdl:lint-ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

const ignorePrefix = "pimdl:lint-ignore"

// collectDirectives extracts suppression directives from the comments of
// the given files, keyed by "filename:line". Malformed directives
// (missing analyzer or reason) are returned as findings so they cannot
// silently suppress nothing.
func collectDirectives(fset *token.FileSet, files []*ast.File) (map[string]*ignoreDirective, []Finding) {
	dirs := map[string]*ignoreDirective{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "lint-ignore",
						Pos:      pos,
						Message:  "malformed suppression: want //pimdl:lint-ignore <analyzer> <reason>",
					})
					continue
				}
				d := &ignoreDirective{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
				}
				dirs[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = d
			}
		}
	}
	return dirs, bad
}

// applySuppressions filters findings covered by a directive on the same
// line or the line above, marking the directives used.
func applySuppressions(findings []Finding, dirs map[string]*ignoreDirective) []Finding {
	var out []Finding
	for _, f := range findings {
		suppressed := false
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			d, ok := dirs[fmt.Sprintf("%s:%d", f.Pos.Filename, line)]
			if ok && (d.analyzer == f.Analyzer || d.analyzer == "all") {
				d.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunOptions configures a multi-package analysis run.
type RunOptions struct {
	// ReportStale reports suppression directives that silenced no
	// finding, as "lint-ignore" findings. Only meaningful when the full
	// analyzer set runs: a directive for an unselected analyzer would
	// otherwise be falsely stale, so partial (-only) runs leave it off.
	ReportStale bool
}

// RunPackages runs the analyzers over every package, in the dependency
// order Load returns, sharing one Facts store so cross-package
// invariants (hotpath call closure, unique metric registration) resolve
// against facts recorded while analyzing the packages' dependencies.
// Findings are suppressed and sorted per package, then concatenated in
// package order.
func RunPackages(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) []Finding {
	facts := NewFacts()
	var active []*Analyzer
	inactive := map[string]bool{}
	for _, a := range analyzers {
		if a.Prepare != nil && !a.Prepare(facts, pkgs) {
			inactive[a.Name] = true
			continue
		}
		active = append(active, a)
	}
	var all []Finding
	for _, pkg := range pkgs {
		var findings []Finding
		for _, a := range active {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.ImportPath,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Facts:    facts,
				findings: &findings,
			}
			a.Run(pass)
		}
		dirs, bad := collectDirectives(pkg.Fset, pkg.Files)
		findings = applySuppressions(findings, dirs)
		findings = append(findings, bad...)
		if opt.ReportStale {
			findings = append(findings, staleDirectives(dirs, inactive)...)
		}
		sortFindings(findings)
		all = append(all, findings...)
	}
	return all
}

// staleDirectives reports directives that suppressed nothing: a stale
// directive means the code it guarded changed (or the finding never
// existed) and the suppression now silently blesses future regressions
// at that site. Directives for analyzers that sat this load out are
// exempt: they had nothing to suppress.
func staleDirectives(dirs map[string]*ignoreDirective, inactive map[string]bool) []Finding {
	var out []Finding
	for _, d := range dirs {
		if !d.used && !inactive[d.analyzer] {
			out = append(out, Finding{
				Analyzer: "lint-ignore",
				Pos:      d.pos,
				Message:  fmt.Sprintf("stale suppression: no %s finding here anymore; delete the directive", d.analyzer),
			})
		}
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}
