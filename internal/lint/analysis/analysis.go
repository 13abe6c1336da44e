// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis API, shaped so the pacevet analyzers
// (hotpathalloc, atomicfield, staterstate) could migrate to the
// real framework mechanically if the dependency ever becomes available.
// The build environment is hermetic — no module proxy — so the suite
// carries its own Pass/Analyzer/Diagnostic surface and a loader
// (internal/lint/load) built on `go list -export` plus the standard
// library's gc importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check. Exactly one of Run or RunProgram
// must be set: Run is invoked once per loaded package; RunProgram is
// invoked once with every loaded package's pass, for whole-program
// invariants (atomicfield must see every access to a field, not just the
// accesses in the field's own package).
type Analyzer struct {
	// Name is the analyzer's identifier, reported with each diagnostic.
	Name string
	// Doc states the invariant the analyzer mechanizes, first line short.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
	// RunProgram analyzes all loaded packages together.
	RunProgram func([]*Pass) error
}

// Pass carries one type-checked package to an analyzer, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic; set by the driver.
	Report func(Diagnostic)

	dirs *Directives // lazily built //pace: directive index
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Directives returns the pass's //pace: directive index, built on first use.
func (p *Pass) Directives() *Directives {
	if p.dirs == nil {
		p.dirs = CollectDirectives(p.Fset, p.Files)
	}
	return p.dirs
}
