// Package analysistest runs an analyzer over a golden testdata module
// and compares its diagnostics against `// want` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the offline
// framework in the sibling analysis package.
//
// Each analyzer's testdata directory is a small self-contained Go
// module named `m3`, so stub packages placed under internal/ carry
// exactly the import paths (m3/internal/obs, m3/internal/exec, ...)
// the analyzers match on, and the internal-package visibility rules
// are satisfied. A line expecting diagnostics carries one trailing
// comment per expectation:
//
//	for k := range m {} // want `maporder: range over map`
//
// The quoted text is a regular expression matched against the
// diagnostic message. Diagnostics suppressed by //m3vet:allow
// directives are filtered before matching, so the escape hatch itself
// is testable: an allowed line simply carries no want comment.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"m3/tools/analyzers/analysis"
	"m3/tools/analyzers/load"
)

// expectation is one `// want` entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

// parseWants extracts expectations from every comment in files.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// Run loads the module rooted at dir (with its nested modules as
// callers), applies a to every package matching patterns (default
// ./...), and fails t unless the filtered diagnostics exactly match
// the // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	passes, err := load.Program(dir, patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(passes) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	perPass, err := analysis.Run(a, passes)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range passes {
		wants := parseWants(t, p.Fset, p.Files)
		for _, d := range perPass[i] {
			pos := p.Fset.Position(d.Pos)
			if !claim(wants, pos, d) {
				t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
			}
		}
	}
}

// claim marks the first unmatched expectation on the diagnostic's
// line whose pattern matches, returning false when there is none.
func claim(wants []*expectation, pos token.Position, d analysis.Diagnostic) bool {
	msg := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
