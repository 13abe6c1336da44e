// Package atomicfield mechanizes the DESIGN.md §11 scrape-safety split.
// A struct field shared with another goroutine is a sync/atomic type
// (atomic.Int64 and kin): every access to it is then atomic, and a plain
// c.n++ beside an atomic load of the same counter — a data race the -race
// detector only catches when a scrape happens to land mid-increment — does
// not compile. So the analyzer reports any sync/atomic function given a
// struct field's address (atomic.AddInt64(&c.n, 1)): the field should be
// of the sync/atomic type instead.
//
// The analyzer also guards the other half of the split: a telemetry.Var
// whose Value is a func literal runs on the scrape goroutine, so the
// closure must not read plain numeric fields — plain counters are
// node-goroutine-only snapshot state, readable from a scrape only after
// the §11 serialization handoff. Deliberate exceptions (a field guarded
// by a mutex held on both sides, for example) carry a
// //pace:allow-nonatomic <reason> waiver on the access line.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces typed atomics for shared fields and atomic scrape reads.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "a field shared through sync/atomic is of a sync/atomic type (DESIGN.md §11)",
	Run:  run,
}

const waiver = "allow-nonatomic"

func run(p *analysis.Pass) error {
	checkAtomicCalls(p)
	checkScrapeClosures(p)
	return nil
}

// checkAtomicCalls flags a sync/atomic function given a struct field's
// address: with the field's own type atomic, no access to it can be plain.
func checkAtomicCalls(p *analysis.Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(p.TypesInfo, call) {
				return true
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj, ok := fieldOf(p.TypesInfo, sel); ok && !p.Directives().AllowedAt(sel.Pos(), waiver) {
					p.Reportf(sel.Pos(), "sync/atomic function on field %s: use the sync/atomic type, so no access to it can be plain", obj.Name())
				}
			}
			return true
		})
	}
}

// checkScrapeClosures flags plain-field reads inside func-literal Values
// of telemetry.Var composite literals.
func checkScrapeClosures(p *analysis.Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || !isTelemetryVar(p.TypesInfo.TypeOf(cl)) {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Value" {
					continue
				}
				fl, ok := ast.Unparen(kv.Value).(*ast.FuncLit)
				if !ok {
					continue // method values like c.n.Load are atomic by construction
				}
				ast.Inspect(fl.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					obj, ok := fieldOf(p.TypesInfo, sel)
					if !ok || !isPlainNumeric(obj.Type()) {
						return true
					}
					if p.Directives().AllowedAt(sel.Pos(), waiver) {
						return true
					}
					p.Reportf(sel.Pos(), "scrape closure reads plain field %s; scrape-side counters must be sync/atomic (plain counters are snapshot state, node goroutine only)", obj.Name())
					return true
				})
			}
			return true
		})
	}
}

// fieldOf resolves a selector to the struct field it selects, if any.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) (*types.Var, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, false
	}
	v, ok := s.Obj().(*types.Var)
	return v, ok
}

// isSyncAtomicCall reports whether call invokes a package-level function
// of sync/atomic (the function-style API; typed atomics are methods and
// are race-free by construction).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := info.Uses[id].(*types.PkgName)
	return isPkg
}

// isTelemetryVar reports whether t is repro/internal/telemetry.Var.
func isTelemetryVar(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Var" && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/telemetry"
}

// isPlainNumeric reports whether t is a non-atomic numeric type (the kind
// of field the §11 split reserves for the node goroutine).
func isPlainNumeric(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			return false
		}
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}
