// Package lint is MCFS's domain-specific static-analysis framework: a
// stdlib-only (go/ast + go/types) analogue of golang.org/x/tools/go/analysis,
// purpose-built to prove the invariants the model checker depends on.
//
// The checker's soundness rests on two properties that ordinary Go tooling
// cannot see: every checkpoint image must be paired with a restore-or-discard
// (or backtracking leaks state, the bug class fixed in the swarm PR), and no
// nondeterminism — map iteration order, wall-clock time, unseeded randomness —
// may leak into state hashing or the flight-recorder journal (the bug class
// behind the extfs journal-replay flake). Both invariants have regressed in
// this repo's history; the analyzers in this package check them on every
// build, SquirrelFS-style: correctness rules enforced before any run.
//
// The suite (see Analyzers):
//
//   - checkpointleak: a checkpoint key must reach Restore or Discard on
//     every return path of the function that created it.
//   - maporder: iteration over a map must not feed order-sensitive sinks
//     (hashes, the journal, serialization, device writes, unsorted appends).
//   - walltime: time.Now / time.Since / math/rand are forbidden outside
//     the simulation clock — wall time breaks replay determinism.
//   - errnodrop: error and Errno results of kernel/vfs/fs operations must
//     not be discarded.
//   - nilobs: the methods of the configured obs, journal, stream and
//     governor types must keep their documented nil-receiver safety.
//   - locks: a lock is held over a lexical region — from x.Lock() to a
//     deferred unlock as the next statement, or to an x.Unlock() later
//     in the same block with no return, goto, break or continue leaving
//     in between. On the regions enclosing a node, fields annotated
//     `// guarded by <field>` are accessed only under that instance's
//     lock (write lock for writes), and the lock-order graph over lock
//     types stays acyclic.
//   - atomicplain: no sync/atomic function is called; a shared field is
//     a typed atomic (atomic.Int64, ...), reached only through its
//     methods, so no plain access can race with an atomic one.
//   - structure: the module's structural invariants, one typed row
//     each — what stays deleted, and where a go statement, a channel, a
//     whole-image copy, a kernel cache map, a lock or a state walk may
//     appear. Its findings cannot be suppressed.
//
// locks reads the whole module through module.go: every function
// declaration, a type-resolved static call graph with interface
// widening, and the guard annotations.
//
// walltime, atomicplain and structure are rule tables (structure.go) of
// one engine (rules.go). A row reads: within these scopes — a package, a
// subtree ("mcfs/internal/fs/..."), a file or a function
// ("mcfs/internal/kernel.Kernel.Mount") — at most max nodes match.
//
// Diagnostics can be suppressed with a justified comment on the flagged
// line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; an ignore without one is inert. A justified
// ignore that suppresses nothing is itself reported (unusedignore), so
// stale suppressions cannot accumulate.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col display and
// machine consumption (-json).
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer proves.
	Doc string
	// NeedsModule requests the whole-tree Module view (functions, call
	// graph, guard annotations) on the pass. Run builds it once and
	// shares it across analyzers.
	NeedsModule bool
	// Unsuppressible findings ignore lint:ignore directives.
	Unsuppressible bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Module is the whole-tree view (functions, call graph, guard
	// annotations); nil unless the analyzer sets NeedsModule.
	Module *Module

	pkg      *Package
	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ignoreKey addresses one (file, line) pair in the suppression index.
type ignoreKey struct {
	file string
	line int
}

// directive is one justified //lint:ignore comment, tracked so unused
// suppressions — a directive whose analyzer never fired on its lines —
// are themselves reported (the unusedignore check). Directives are
// kept in a slice in scan order so reporting is deterministic without
// ranging over the index map.
type directive struct {
	file string
	line int // the directive's own line
	name string
	used bool
}

// ignoreIndex maps source lines to the directives covering them. A
// directive covers its own line (trailing comment) and the line
// directly below it (comment above the flagged statement).
type ignoreIndex struct {
	byLine map[ignoreKey][]*directive
	all    []*directive
}

// buildIgnoreIndex scans a package's comments for lint:ignore directives.
// Directives without a reason are inert — suppressions must be justified —
// and inert directives are not tracked for unusedignore either.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File, idx *ignoreIndex) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					// No analyzer name or no reason: inert.
					continue
				}
				pos := fset.Position(c.Pos())
				d := &directive{file: pos.Filename, line: pos.Line, name: fields[0]}
				idx.all = append(idx.all, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := ignoreKey{file: pos.Filename, line: line}
					idx.byLine[key] = append(idx.byLine[key], d)
				}
			}
		}
	}
}

// suppressed reports whether a matching directive covers d, marking
// every matching directive used. With explicit, only a directive naming
// d's analyzer matches: unusedignore's own findings ask for that, as a
// wildcard "all" must not hide its own staleness.
func (idx *ignoreIndex) suppressed(d Diagnostic, explicit bool) bool {
	hit := false
	for _, dir := range idx.byLine[ignoreKey{file: d.File, line: d.Line}] {
		if dir.name == d.Analyzer || dir.name == "all" && !explicit {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// unusedFindings reports directives that suppressed nothing. Only
// directives naming an analyzer that actually ran (or "all") are
// eligible: golden tests run analyzer subsets, and a directive for an
// analyzer outside the subset is not stale, just out of scope.
func (idx *ignoreIndex) unusedFindings(running map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range idx.all {
		if dir.used {
			continue
		}
		if dir.name != "all" && !running[dir.name] {
			continue
		}
		msg := fmt.Sprintf("unused lint:ignore directive: no %s finding on this line", dir.name)
		if dir.name == "all" {
			msg = "unused lint:ignore directive: no finding on this line"
		}
		out = append(out, Diagnostic{
			Analyzer: "unusedignore",
			File:     dir.file,
			Line:     dir.line,
			Col:      1,
			Message:  msg,
		})
	}
	return out
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Suppressed findings are dropped; a
// justified suppression that suppressed nothing becomes an unusedignore
// finding of its own.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ignores := &ignoreIndex{byLine: map[ignoreKey][]*directive{}}
	for _, pkg := range pkgs {
		buildIgnoreIndex(pkg.Fset, pkg.Files, ignores)
	}
	var module *Module
	running, strict := map[string]bool{}, map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
		strict[a.Name] = a.Unsuppressible
		if a.NeedsModule && module == nil {
			module = NewModule(pkgs)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pkg:      pkg,
				analyzer: a,
				sink:     &diags,
			}
			if a.NeedsModule {
				pass.Module = module
			}
			a.Run(pass)
		}
	}
	kept := diags[:0]
	seen := map[Diagnostic]bool{}
	for _, d := range diags {
		if !strict[d.Analyzer] && ignores.suppressed(d, false) || seen[d] {
			continue
		}
		seen[d] = true
		kept = append(kept, d)
	}
	// Stale suppressions are findings too — suppressible only by a
	// directive explicitly naming unusedignore, never by a wildcard.
	for _, d := range ignores.unusedFindings(running) {
		if ignores.suppressed(d, true) || seen[d] {
			continue
		}
		seen[d] = true
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// WriteJSON renders diagnostics as an indented JSON array (empty array,
// not null, when there are none) for machine consumption.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// Report is the -json envelope: which analyzers ran, and what they
// found. CI greps Analyzers to assert the whole suite is registered.
type Report struct {
	Analyzers []string     `json:"analyzers"`
	Findings  []Diagnostic `json:"findings"`
}

// WriteReport renders the envelope form of -json output.
func WriteReport(w io.Writer, analyzers []*Analyzer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Analyzers: names, Findings: diags})
}

// Analyzers returns the production suite configured for this module's
// package layout. Golden tests construct analyzers with fixture-specific
// configurations instead.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewCheckpointLeak(),
		NewMapOrder(),
		NewWalltime(),
		NewErrnoDrop(ErrnoDropConfig{
			ErrorCallPkgPrefixes: []string{"mcfs/internal/", "mcfs"},
		}),
		NewNilObs(NilObsConfig{
			Targets: map[string][]string{
				"mcfs/internal/obs":         {"Hub", "Counter", "Gauge", "Histogram"},
				"mcfs/internal/obs/journal": {"Writer", "Recorder"},
				"mcfs/internal/obs/stream":  {"Bus", "Subscriber"},
				// The engine calls the governor unconditionally on its
				// visit hot path; a nil governor must stay inert.
				"mcfs/internal/mc/visited": {"Governor"},
			},
		}),
		// Locks are lexical regions: balance, guarded fields and the
		// lock order over the whole module.
		NewLocks(),
		NewAtomicPlain(),
		// The module's structural invariants, one typed row each.
		NewStructure(),
	}
}
