// Package dirtynote mechanizes the delta-snapshot changelog contract from
// DESIGN.md §6.3/§7: inside a snapshot.DeltaStater implementation, every
// mutation of a tracked state map must be paired with a changelog note in
// the same function — noteDirty for writes, noteDead for deletes. A
// missed note is invisible to every test that restores from a full
// snapshot and only corrupts state when a delta chain replays across the
// unnoted key, which is exactly the class of bug static analysis beats
// testing at.
//
// Tracked maps are declared, not inferred: the operator marks its
// changelog-covered fields with //pace:tracked in the struct definition
// (Join.leftTable/rightTable). The analyzer then follows
// the codebase's aliasing idioms — a local assigned from a receiver-rooted
// expression of a tracked map type (table := j.table(side)) is treated as
// the map; a pointer local obtained by indexing or ranging a tracked map
// (g := b.state[k]) is treated as an element, so writes through it also
// demand a noteDirty. Whole-map assignment (j.leftTable = make(...)) is a
// reset, not an entry mutation, and is exempt.
//
// Waivers: //pace:allow-nonote <reason> on the mutation line, in the
// function doc (restore paths rebuild the changelog wholesale), or in the
// type doc for DeltaStaters whose delta encoding does not use a changelog
// at all (Collector's append-suffix deltas). A DeltaStater with no
// tracked fields and no type-level waiver is itself reported: either its
// state maps are unmarked, or the exemption is undocumented.
package dirtynote

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer enforces changelog notes on tracked-map mutations.
var Analyzer = &analysis.Analyzer{
	Name: "dirtynote",
	Doc:  "tracked-map mutations in DeltaStaters must pair with noteDirty/noteDead (DESIGN.md §6.3)",
	Run:  run,
}

const waiver = "allow-nonote"

func run(pass *analysis.Pass) error {
	snapPkg := lintutil.FindImport(pass.Pkg, "repro/internal/snapshot")
	delta := lintutil.InterfaceOf(snapPkg, "DeltaStater")
	if delta == nil {
		return nil
	}
	methods := lintutil.Methods(pass.Files)
	lintutil.TypeSpecs(pass.Files, func(spec *ast.TypeSpec, doc *ast.CommentGroup) {
		obj := pass.TypesInfo.Defs[spec.Name]
		if obj == nil || !lintutil.Implements(obj.Type(), delta) {
			return
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			return
		}
		_, typeWaived := analysis.HasDirective(doc, waiver)
		tracked := trackedFields(pass, st)
		if len(tracked) == 0 {
			if !typeWaived {
				pass.Reportf(spec.Name.Pos(), "DeltaStater %s declares no //pace:tracked state maps; mark its changelog-covered fields or waive the type with //pace:allow-nonote <reason>", spec.Name.Name)
			}
			return
		}
		if typeWaived {
			return
		}
		for _, fd := range methods[spec.Name.Name] {
			if _, ok := analysis.HasDirective(fd.Doc, waiver); ok {
				continue // e.g. restore paths: changelog rebuilt wholesale
			}
			checkMethod(pass, fd, tracked)
		}
	})
	return nil
}

// trackedFields collects //pace:tracked fields of the struct, keyed by
// name, validating they are maps.
func trackedFields(pass *analysis.Pass, st *ast.StructType) map[string]types.Type {
	out := map[string]types.Type{}
	for _, fld := range st.Fields.List {
		_, inDoc := analysis.HasDirective(fld.Doc, "tracked")
		_, inLine := analysis.HasDirective(fld.Comment, "tracked")
		if !inDoc && !inLine {
			continue
		}
		for _, name := range fld.Names {
			t := pass.TypesInfo.Defs[name].Type()
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				pass.Reportf(name.Pos(), "//pace:tracked field %s is not a map; the changelog contract only covers keyed state", name.Name)
				continue
			}
			out[name.Name] = t
		}
	}
	return out
}

// checkMethod verifies every tracked-map mutation in fd is covered by the
// matching note call somewhere in the same function.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, tracked map[string]types.Type) {
	if fd.Body == nil {
		return
	}
	recv, _, _ := lintutil.RecvName(fd)
	if recv == "" {
		return
	}
	c := &checker{pass: pass, recv: recv, tracked: tracked,
		aliases: map[types.Object]bool{}, elems: map[types.Object]bool{}}
	c.collectAliases(fd.Body)
	c.scanNotes(fd.Body)
	c.scanMutations(fd.Body)
}

type checker struct {
	pass    *analysis.Pass
	recv    string
	tracked map[string]types.Type
	// aliases are locals that refer to a tracked map itself; elems are
	// pointer locals referring to a tracked map's element.
	aliases           map[types.Object]bool
	elems             map[types.Object]bool
	hasDirty, hasDead bool
}

// collectAliases finds map aliases and element aliases, iterating to a
// fixpoint so chained assignments resolve.
func (c *checker) collectAliases(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	for changed := true; changed; {
		changed = false
		bind := func(lhs, rhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return
			}
			if !c.aliases[obj] && c.isTrackedMap(rhs) {
				c.aliases[obj] = true
				changed = true
			}
			if !c.elems[obj] && c.isElemSource(rhs) {
				c.elems[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				}
				// v, ok := m[k] over a tracked map.
				if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
					bind(n.Lhs[0], n.Rhs[0])
				}
			case *ast.RangeStmt:
				if n.Value != nil && c.isTrackedMapExpr(n.X) {
					if id, ok := n.Value.(*ast.Ident); ok {
						obj := info.Defs[id]
						if obj != nil && !c.elems[obj] && isPointer(obj.Type()) {
							c.elems[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

// isTrackedMapExpr: the expression denotes a tracked map — a receiver
// field marked //pace:tracked, or an existing alias local.
func (c *checker) isTrackedMapExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && id.Name == c.recv {
			_, tracked := c.tracked[x.Sel.Name]
			return tracked
		}
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[x]
		return obj != nil && c.aliases[obj]
	}
	return false
}

// isTrackedMap: the RHS yields a tracked map. Beyond direct references,
// a receiver-rooted call whose result type matches a tracked field's map
// type is an accessor returning tracked state (table := j.table(side)).
func (c *checker) isTrackedMap(rhs ast.Expr) bool {
	rhs = ast.Unparen(rhs)
	if c.isTrackedMapExpr(rhs) {
		return true
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || id.Name != c.recv {
		return false
	}
	rt := c.pass.TypesInfo.TypeOf(rhs)
	for _, t := range c.tracked {
		if rt != nil && types.Identical(rt, t) {
			return true
		}
	}
	return false
}

// isElemSource: the RHS yields a pointer element of a tracked map
// (indexing it, or an alias of it).
func (c *checker) isElemSource(rhs ast.Expr) bool {
	ix, ok := ast.Unparen(rhs).(*ast.IndexExpr)
	if !ok || !c.isTrackedMapExpr(ix.X) {
		return false
	}
	return isPointer(c.pass.TypesInfo.TypeOf(rhs))
}

// scanNotes records whether the function calls the receiver's noteDirty /
// noteDead changelog helpers anywhere.
func (c *checker) scanNotes(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || id.Name != c.recv {
			return true
		}
		switch sel.Sel.Name {
		case "noteDirty":
			c.hasDirty = true
		case "noteDead":
			c.hasDead = true
		}
		return true
	})
}

// scanMutations reports uncovered writes and deletes.
func (c *checker) scanMutations(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWriteTarget(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWriteTarget(n.X)
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || id.Name != "delete" || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if c.isTrackedMapExpr(n.Args[0]) && !c.hasDead {
				c.report(n.Pos(), "delete from tracked map without a noteDead in this function; the delta snapshot will resurrect the key on replay")
			}
		}
		return true
	})
}

// checkWriteTarget flags entry writes into tracked maps and writes
// through element aliases. Assigning the whole map is a reset and exempt.
func (c *checker) checkWriteTarget(lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok && c.isTrackedMapExpr(ix.X) {
		if !c.hasDirty {
			c.report(lhs.Pos(), "write to tracked map entry without a noteDirty in this function; the delta snapshot will miss this key")
		}
		return
	}
	// g.count = ... / g.count++ through an element alias.
	root := lhs
	depth := 0
	for {
		if sel, ok := ast.Unparen(root).(*ast.SelectorExpr); ok {
			root = sel.X
			depth++
			continue
		}
		break
	}
	if depth == 0 {
		return
	}
	if id, ok := ast.Unparen(root).(*ast.Ident); ok {
		obj := c.pass.TypesInfo.Uses[id]
		if obj != nil && c.elems[obj] && !c.hasDirty {
			c.report(lhs.Pos(), "write through tracked-map element %s without a noteDirty in this function; the delta snapshot will miss its key", id.Name)
		}
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Directives().AllowedAt(pos, waiver) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
