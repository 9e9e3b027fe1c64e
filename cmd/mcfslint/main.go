// Command mcfslint runs MCFS's domain-specific static-analysis suite —
// the invariants the model checker depends on, proven before any run:
//
//	checkpointleak  every checkpoint key reaches Restore or Discard
//	maporder        map iteration order never feeds hashes/journal/serialization
//	walltime        no time.Now/time.Since/math/rand outside internal/simclock
//	errnodrop       kernel/vfs/fs error and Errno results are never discarded
//	nilobs          configured obs/journal/stream types keep their nil-receiver safety
//	locks           a lock is held over a lexical region: balanced, guarding
//	                its `// guarded by <field>` fields, in one acyclic order
//	atomicplain     no sync/atomic function calls: shared fields are typed atomics
//	structure       the module's structure: what stays deleted, and where a
//	                goroutine, a channel, an image copy, a cache map, a
//	                lock or a state walk may appear (one typed row each)
//
// walltime, atomicplain and structure are rule tables of one engine
// (internal/lint/rules.go); structure's findings cannot be suppressed.
//
// Usage:
//
//	mcfslint [-json] [./...]
//	mcfslint [-json] dir [dir...]
//	mcfslint -list
//
// With no arguments (or the conventional "./..."), the whole enclosing
// module is analyzed. Explicit directory arguments restrict *reporting*
// to packages under those directories; the full module is still loaded so
// cross-package types resolve. -list prints the registered suite and
// exits.
//
// -json emits an envelope {"analyzers": [...], "findings": [...]} naming
// every analyzer that ran — CI asserts the full suite is registered —
// with the findings array in the same shape as before.
//
// Findings can be suppressed with a justified comment on the flagged line
// or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// A justified suppression that suppresses nothing is itself reported
// (unusedignore), so stale ignores cannot accumulate.
//
// Exit status: 0 no findings, 1 findings reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mcfs/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit an {analyzers, findings} JSON envelope")
	listOnly := flag.Bool("list", false, "print the registered analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mcfslint [-json] [./... | dir...]\n       mcfslint -list\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.LoadModule(cwd)
	if err != nil {
		fatal(err)
	}

	// Directory filters: "./..." (or nothing) means everything.
	var roots []string
	for _, arg := range flag.Args() {
		if arg == "./..." || arg == "..." {
			roots = nil
			break
		}
		abs, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
		if err != nil {
			fatal(err)
		}
		roots = append(roots, abs)
	}
	if roots != nil {
		var kept []*lint.Package
		for _, pkg := range pkgs {
			for _, root := range roots {
				if pkg.Dir == root || strings.HasPrefix(pkg.Dir, root+string(filepath.Separator)) {
					kept = append(kept, pkg)
					break
				}
			}
		}
		pkgs = kept
	}

	analyzers := lint.Analyzers()
	diags := lint.Run(pkgs, analyzers)

	// Report file paths relative to the working directory when possible.
	for i, d := range diags {
		if rel, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		if err := lint.WriteReport(os.Stdout, analyzers, diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mcfslint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfslint:", err)
	os.Exit(2)
}

// firstLine trims an analyzer doc to its summary sentence for -list.
func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		doc = doc[:i]
	}
	return strings.TrimSpace(doc)
}
