// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface that m3's repo-specific
// vet passes are written against. The build environment for this repo
// is fully offline (the main module is deliberately zero-dependency),
// so instead of vendoring x/tools the tools module carries just the
// slice of the framework the m3vet analyzers need: an Analyzer is a
// named Run function over a type-checked package (or a RunAll function
// over the whole loaded program), diagnostics carry a position and a
// message, and a driver (cmd/m3vet, or the analysistest harness) owns
// loading, filtering and reporting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker. It sets exactly one of Run
// and RunAll.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //m3vet:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant, shown by
	// m3vet -list.
	Doc string
	// Run checks one package and reports findings through the pass.
	// It is called once for each pass that is not CallerOnly.
	Run func(*Pass) error
	// RunAll checks the whole program in one call: it sees every
	// loaded pass, CallerOnly ones included, and reports through the
	// pass a finding belongs to.
	RunAll func([]*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// CallerOnly marks a package loaded only for the references it
	// makes (the rest of the module when the patterns named less, and
	// nested modules such as benchmark/). Run never sees it, and
	// RunAll reports nothing in it.
	CallerOnly bool

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes a over the loaded program and returns each pass's
// findings (out[i] belongs to passes[i]), already filtered through the
// //m3vet:allow directives in that pass's files and sorted by
// position.
func Run(a *Analyzer, passes []*Pass) ([][]Diagnostic, error) {
	for _, p := range passes {
		p.Analyzer = a
		p.diags = nil
	}
	if a.RunAll != nil {
		if err := a.RunAll(passes); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	} else {
		for _, p := range passes {
			if p.CallerOnly {
				continue
			}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, p.Pkg.Path(), err)
			}
		}
	}
	out := make([][]Diagnostic, len(passes))
	for k, p := range passes {
		diags := Filter(p.Fset, p.Files, p.diags)
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		out[k] = diags
	}
	return out, nil
}
