// Command m3vet runs m3's repo-specific static analyzers over Go
// package patterns and reports contract violations the stock
// toolchain cannot see: unpolled iteration loops, unended spans,
// unreleased pooled resources, map-order dependence in deterministic
// reduce code, exact float comparisons, and exported internal
// identifiers that only tests call.
//
// The testonly analyzer is whole-program: m3vet also loads the rest
// of the module and every nested module (benchmark/) as callers, which
// the other analyzers do not analyse.
//
// Usage:
//
//	go run ./tools/cmd/m3vet ./...
//	go run ./tools/cmd/m3vet -list
//
// Exit status is 1 when any diagnostic is reported, 2 on load or
// internal errors. Suppress an individual finding with a
// "//m3vet:allow <analyzer> -- <reason>" comment on (or just above)
// the offending line.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"m3/tools/analyzers/analysis"
	"m3/tools/analyzers/ctxpoll"
	"m3/tools/analyzers/floateq"
	"m3/tools/analyzers/load"
	"m3/tools/analyzers/maporder"
	"m3/tools/analyzers/pairedrelease"
	"m3/tools/analyzers/spanend"
	"m3/tools/analyzers/testonly"
)

var analyzers = []*analysis.Analyzer{
	ctxpoll.Analyzer,
	floateq.Analyzer,
	maporder.Analyzer,
	pairedrelease.Analyzer,
	spanend.Analyzer,
	testonly.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	passes, err := load.Program(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3vet: %v\n", err)
		os.Exit(2)
	}

	type located struct {
		pos  string
		line int
		diag analysis.Diagnostic
	}
	var found []located
	for _, a := range analyzers {
		perPass, err := analysis.Run(a, passes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3vet: %v\n", err)
			os.Exit(2)
		}
		for i, diags := range perPass {
			for _, d := range diags {
				p := passes[i].Fset.Position(d.Pos)
				found = append(found, located{pos: p.String(), line: p.Line, diag: d})
			}
		}
	}

	sort.Slice(found, func(i, j int) bool {
		if found[i].pos != found[j].pos {
			return found[i].pos < found[j].pos
		}
		return found[i].diag.Analyzer < found[j].diag.Analyzer
	})
	for _, f := range found {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.diag.Analyzer, f.diag.Message)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "m3vet: %d finding(s)\n", len(found))
		os.Exit(1)
	}
}
