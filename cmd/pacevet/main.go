// Command pacevet is the engine's invariant checker: a multichecker that
// runs the four internal/lint analyzers over Go package patterns:
//
//	hotpathalloc  //pace:hotpath functions do not allocate
//	atomicfield   a field accessed via sync/atomic is atomic everywhere
//	staterstate   a stateful operator implements snapshot.Stater
//	surface       exported internal/ surface is reached by non-test code
//
// It exits non-zero when any analyzer reports a finding, so CI treats
// invariant drift like a compile error.
//
// Usage:
//
//	go run ./cmd/pacevet [-json] [packages]
//
// With no packages it checks ./... . surface counts every package of the
// module, and of each module in the repository that requires it (bench/),
// as a caller, so run it over the whole module. -json replaces the vet-style text
// output with a machine-readable array (one object per finding) for the
// chaos-fuzz nightly's artifact upload; the exit status is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicfield"
	"repro/internal/lint/hotpathalloc"
	"repro/internal/lint/load"
	"repro/internal/lint/staterstate"
	"repro/internal/lint/surface"
)

// analyzers is the suite, in report-grouping order.
var analyzers = []*analysis.Analyzer{
	hotpathalloc.Analyzer,
	atomicfield.Analyzer,
	staterstate.Analyzer,
	surface.Analyzer,
}

// finding is one diagnostic resolved to a position, the unit of both
// output formats.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (for CI artifact upload)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pacevet [-json] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	findings, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacevet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "pacevet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func run(patterns []string) ([]finding, error) {
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		return nil, err
	}
	cwd, _ := os.Getwd()

	var findings []finding
	for _, a := range analyzers {
		var passes []*analysis.Pass
		for _, pkg := range pkgs {
			passes = append(passes, &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					file := pos.Filename
					if cwd != "" {
						if rel, err := filepath.Rel(cwd, file); err == nil {
							file = rel
						}
					}
					findings = append(findings, finding{
						File: file, Line: pos.Line, Col: pos.Column,
						Message: d.Message, Analyzer: d.Analyzer,
					})
				},
			})
		}
		switch {
		case a.RunProgram != nil:
			if err := a.RunProgram(passes); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
		default:
			for _, p := range passes {
				if err := a.Run(p); err != nil {
					return nil, fmt.Errorf("%s: %v", a.Name, err)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
