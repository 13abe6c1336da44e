// Package linttest runs an analyzer over fixture packages and checks its
// diagnostics against // want "regex" comments, in the style of
// golang.org/x/tools/go/analysis/analysistest. Fixture packages live
// under the analyzer's testdata/src/<name>/ directory — go tooling
// ignores testdata trees, so deliberate violations never reach the
// repo-wide pacevet run or `go vet ./...`, but `go list` still resolves
// them when addressed directly, which keeps fixtures fully type-checked
// against the real repro packages they import.
//
//pace:allow-unreached shared test infrastructure: only the analyzers' tests call it
package linttest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// expectation is one // want "regex" at a (file, line).
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the named fixture packages from testdata/src and applies the
// analyzer (whole-program analyzers see all fixtures in one call). Every
// diagnostic must match a want expectation on its line, and every
// expectation must be matched exactly once.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	patterns := make([]string, len(fixtures))
	for i, fx := range fixtures {
		patterns[i] = "./" + filepath.ToSlash(filepath.Join("testdata", "src", fx))
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}

	var diags []analysis.Diagnostic
	var passes []*analysis.Pass
	for _, pkg := range pkgs {
		passes = append(passes, &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		})
	}
	switch {
	case a.RunProgram != nil:
		if err := a.RunProgram(passes); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	case a.Run != nil:
		for _, p := range passes {
			if err := a.Run(p); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
		}
	default:
		t.Fatalf("analyzer %s has neither Run nor RunProgram", a.Name)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			wants = append(wants, collectWants(t, pkg, f)...)
		}
	}

	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		var hit *expectation
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		hit.matched = true
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses // want "re" ["re"...] comments in one file.
func collectWants(t *testing.T, pkg *load.Package, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			rest := strings.TrimSpace(text[i+len("// want "):])
			pos := pkg.Fset.Position(c.Pos())
			for rest != "" {
				if rest[0] != '"' {
					t.Fatalf("%s: malformed want comment (expected quoted regexp): %s", pos, text)
				}
				q, tail, err := cutQuoted(rest)
				if err != nil {
					t.Fatalf("%s: malformed want comment: %v", pos, err)
				}
				re, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: q})
				rest = strings.TrimSpace(tail)
			}
		}
	}
	return out
}

// cutQuoted splits a leading Go-quoted string off rest.
func cutQuoted(rest string) (string, string, error) {
	for i := 1; i < len(rest); i++ {
		if rest[i] == '\\' {
			i++
			continue
		}
		if rest[i] == '"' {
			q, err := strconv.Unquote(rest[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("unquoting %s: %v", rest[:i+1], err)
			}
			return q, rest[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", rest)
}
