// Package surface mechanises the surface audit (DESIGN.md §12.4): every
// exported identifier of an internal/ package must be reached by non-test
// code, and every exported field of an exported internal/ struct must be
// set by it, and not to one constant everywhere. An identifier only tests
// reach is API the engine does not use, and a field nothing sets, or sets
// to one constant everywhere, is an option with one setting: each is one
// more configuration for the tests and the benchmark to cover.
//
// What counts as reached:
//
//   - a function, type, variable or constant: any use in non-test code,
//     its own package included;
//   - a method: a direct call or method value, or that its type (or a
//     type that embeds it) implements an interface whose method of that
//     name non-test code calls. Asserting a value to an interface calls
//     all its methods (a marker interface is never called), and so does
//     every interface of a package outside the module, whose callers are
//     not loaded;
//   - a field: set in a composite literal, by assignment or increment, or
//     by taking its address (a pointer method called on it included).
//
// A field is "set to one constant everywhere" when at least two sites
// choose its value and every value it gets is the same constant: a
// literal that leaves the field out gives it its zero value, and a
// default filled in (`if c.N == 0 { c.N = 9 }`) gives it a value but is
// no site's choice. A field set at one site is that caller's choice.
//
// Callers are the analysed packages plus every package of each module in
// the repository that requires this one (load.Dependents: bench/), so
// run it over the whole module (./...). A run over testdata fixtures
// alone loads no dependents: they call the module, not the fixtures. Test files are never loaded, so a
// use from a _test.go file does not count.
//
// A finding is fixed, or waived with //pace:allow-unreached <reason> on
// the declaration: in its doc comment, on the line above or trailing it.
// A waiver on a type covers its methods and fields; one in a package
// comment covers the package. A waiver with no reason, or one that
// suppresses nothing, is itself a finding.
package surface

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzer reports exported internal/ surface that non-test code does
// not reach, and exported fields with one setting.
var Analyzer = &analysis.Analyzer{
	Name:       "surface",
	Doc:        "exported internal/ identifiers are reached by non-test code, which sets each exported field, and not to one constant (DESIGN.md §12.4)",
	RunProgram: run,
}

const waiver = "allow-unreached"

// unit is one type-checked package, analysed or caller-only.
type unit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// sets records the values non-test code gives one field.
type sets struct {
	consts   map[string]bool
	varied   bool
	assigned bool // set by name, not only left out of a literal
	sites    int  // sets that choose a value: not a default filled in
}

// usage is what every caller does with the program's identifiers, keyed
// by name (see key) because each package type-checks its imports from
// export data, so one identifier is many objects.
type usage struct {
	used   map[string]bool
	fields map[string]*sets
	// ifaces holds each interface whose methods non-test code calls: its
	// method set by name and signature, and the names called on it.
	ifaces map[string]*iface
}

type iface struct {
	methods map[string][]string
	called  map[string]bool
}

func run(passes []*analysis.Pass) error {
	if len(passes) == 0 {
		return nil
	}
	units := make([]unit, 0, len(passes))
	for _, p := range passes {
		units = append(units, unit{p.Files, p.Pkg, p.TypesInfo})
	}
	if !fixtures(passes) {
		dir := filepath.Dir(passes[0].Fset.Position(passes[0].Files[0].Pos()).Filename)
		deps, err := load.Dependents(dir)
		if err != nil {
			return err
		}
		for _, pkg := range deps {
			units = append(units, unit{pkg.Syntax, pkg.Types, pkg.TypesInfo})
		}
	}

	u := &usage{used: map[string]bool{}, fields: map[string]*sets{}, ifaces: map[string]*iface{}}
	for _, x := range units {
		u.scan(x)
	}
	u.external(units)
	u.dispatch(units)

	for _, p := range passes {
		if strings.Contains("/"+p.Pkg.Path()+"/", "/internal/") {
			check(p, u)
		}
	}
	return nil
}

// fixtures reports whether every analysed package is a testdata fixture:
// a program of its own, which no dependent module calls.
func fixtures(passes []*analysis.Pass) bool {
	for _, p := range passes {
		if !strings.Contains("/"+p.Pkg.Path()+"/", "/testdata/") {
			return false
		}
	}
	return true
}

// key names an object across type-checks: "pkg.Name" at package level,
// "pkg.Type.Name" for a method; "" for anything else.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			n := named(recv.Type())
			if n == nil {
				return ""
			}
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// named strips pointers and aliases down to a named type, or nil.
func named(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// scan records x's uses, field sets and interface calls.
func (u *usage) scan(x unit) {
	for _, obj := range x.info.Uses {
		if k := key(obj); k != "" {
			u.used[k] = true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if it, ok := recv.Type().Underlying().(*types.Interface); ok {
			name, _ := methodID(fn)
			u.iface(it).called[name] = true
		}
	}
	for _, f := range x.files {
		defaults := u.defaults(x.info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				u.literal(x.info, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					u.setField(x.info, lhs, rhs, !defaults[n])
				}
			case *ast.IncDecStmt:
				u.setField(x.info, n.X, nil, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					u.setField(x.info, n.X, nil, true)
				}
			case *ast.TypeAssertExpr:
				// Asserting an interface uses its whole method set, as a
				// marker interface is never called.
				if n.Type != nil {
					u.asserted(x.info.TypeOf(n.Type))
				}
			case *ast.TypeSwitchStmt:
				for _, cc := range n.Body.List {
					for _, e := range cc.(*ast.CaseClause).List {
						u.asserted(x.info.TypeOf(e))
					}
				}
			case *ast.SelectorExpr:
				// A pointer method called on a field takes its address.
				if s, ok := x.info.Selections[n]; ok && s.Kind() == types.MethodVal && !s.Indirect() {
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						u.setField(x.info, n.X, nil, true)
					}
				}
			}
			return true
		})
	}
}

// defaults finds the assignments in f that fill in a default, as in
// `if c.N <= 0 { c.N = 9 }`: a constant assigned to a field the if
// statement's condition reads. A default is the value a caller gets by
// not choosing: it sets the field, but it is not a site that chooses.
func (u *usage) defaults(info *types.Info, f *ast.File) map[*ast.AssignStmt]bool {
	out := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		is, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		read := map[types.Object]bool{}
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					read[s.Obj()] = true
				}
			}
			return true
		})
		for _, st := range is.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || info.Types[as.Rhs[0]].Value == nil {
				continue
			}
			if sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && read[s.Obj()] {
					out[as] = true
				}
			}
		}
		return true
	})
	return out
}

// iface returns the record of interface it, keyed by its method set.
func (u *usage) iface(it *types.Interface) *iface {
	methods := map[string][]string{}
	var names []string
	for i := 0; i < it.NumMethods(); i++ {
		name, sig := methodID(it.Method(i))
		methods[name] = sig
		names = append(names, name+strings.Join(sig, " "))
	}
	sort.Strings(names)
	k := strings.Join(names, ";")
	r := u.ifaces[k]
	if r == nil {
		r = &iface{methods: methods, called: map[string]bool{}}
		u.ifaces[k] = r
	}
	return r
}

// methodID names a method and spells its signature, one element per
// parameter and result, independently of which type-check produced it. An
// unexported name is qualified by its package; a type parameter (or a
// pointer to or slice of one) is spelled "?" and matches any type (see
// implements).
func methodID(m *types.Func) (string, []string) {
	name := m.Name()
	if !m.Exported() && m.Pkg() != nil {
		name = m.Pkg().Path() + "." + name
	}
	sig := m.Type().(*types.Signature)
	spell := []string{}
	for _, t := range [...]*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < t.Len(); i++ {
			s := types.TypeString(t.At(i).Type(), func(p *types.Package) string { return p.Path() })
			if generic(t.At(i).Type()) {
				s = "?"
			}
			spell = append(spell, s)
		}
		spell = append(spell, "|")
	}
	if sig.Variadic() {
		spell = append(spell, "...")
	}
	return name, spell
}

// generic reports whether t is a type parameter, or a pointer to or slice
// of one.
func generic(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return generic(t.Elem())
	case *types.Slice:
		return generic(t.Elem())
	}
	return false
}

// literal records the fields a struct composite literal sets.
func (u *usage) literal(info *types.Info, cl *ast.CompositeLit) {
	n := named(info.TypeOf(cl))
	if n == nil {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	given := map[string]bool{}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				given[id.Name] = true
				u.set(fieldKey(n, id.Name), info, kv.Value, true)
			}
		} else if i < st.NumFields() {
			given[st.Field(i).Name()] = true
			u.set(fieldKey(n, st.Field(i).Name()), info, elt, true)
		}
	}
	// A field the literal leaves out is set to its zero value.
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !given[f.Name()] {
			u.record(fieldKey(n, f.Name())).consts[zero(f.Type())] = true
		}
	}
}

// zero spells the zero value of t as set spells a constant.
func zero(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Info()&types.IsNumeric != 0:
			return "0"
		}
	case *types.Struct, *types.Array:
		return "{}"
	}
	return "nil"
}

// setField records e as a set of the field it selects, if it selects
// one; a nil value means a value that is not one constant.
func (u *usage) setField(info *types.Info, e, value ast.Expr, chosen bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	t := s.Recv()
	idx := s.Index()
	for i, j := range idx {
		n := named(t)
		var st *types.Struct
		if n != nil {
			st, _ = n.Underlying().(*types.Struct)
		}
		if st == nil {
			return
		}
		if i == len(idx)-1 {
			u.set(fieldKey(n, st.Field(j).Name()), info, value, chosen)
			return
		}
		t = st.Field(j).Type()
	}
}

func fieldKey(n *types.Named, field string) string {
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field
}

func (u *usage) record(k string) *sets {
	s := u.fields[k]
	if s == nil {
		s = &sets{consts: map[string]bool{}}
		u.fields[k] = s
	}
	return s
}

// set records one set of field k to value; chosen is false for a
// default filled in.
func (u *usage) set(k string, info *types.Info, value ast.Expr, chosen bool) {
	s := u.record(k)
	s.assigned = true
	if chosen {
		s.sites++
	}
	if value == nil {
		s.varied = true
		return
	}
	tv := info.Types[value]
	switch {
	case tv.Value != nil:
		s.consts[tv.Value.ExactString()] = true
	case tv.IsNil():
		s.consts["nil"] = true
	default:
		s.varied = true
	}
}

// external counts every method of every interface declared by a package
// outside the module (the error interface included) as called: fmt calls
// String, sort calls Len, and those callers are not loaded.
func (u *usage) external(units []unit) {
	root := strings.SplitN(units[0].pkg.Path(), "/", 2)[0]
	inModule := func(p *types.Package) bool {
		return p.Path() == root || strings.HasPrefix(p.Path(), root+"/")
	}
	seen := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		if !inModule(p) {
			for _, name := range p.Scope().Names() {
				obj := p.Scope().Lookup(name)
				if _, ok := obj.(*types.TypeName); !ok || !obj.Exported() {
					continue
				}
				if it, ok := obj.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					u.callAll(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, x := range units {
		visit(x.pkg)
	}
	u.callAll(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

func (u *usage) asserted(t types.Type) {
	if t != nil {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			u.callAll(it)
		}
	}
}

func (u *usage) callAll(it *types.Interface) {
	r := u.iface(it)
	for name := range r.methods {
		r.called[name] = true
	}
}

// dispatch marks reached every method some named type supplies to an
// interface whose method of that name is called.
func (u *usage) dispatch(units []unit) {
	for _, x := range units {
		for _, name := range x.pkg.Scope().Names() {
			tn, ok := x.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := map[string][]string{}
			for i := 0; i < ms.Len(); i++ {
				id, sig := methodID(ms.At(i).Obj().(*types.Func))
				have[id] = sig
			}
			for _, r := range u.ifaces {
				if !implements(have, r.methods) {
					continue
				}
				for i := 0; i < ms.Len(); i++ {
					m := ms.At(i).Obj()
					if id, _ := methodID(m.(*types.Func)); r.called[id] {
						u.used[key(m)] = true
					}
				}
			}
		}
	}
}

// implements reports whether a method set supplies every method of an
// interface; "?" on either side matches any type, so a generic type's
// methods meet an instance of an interface (Setter[int]) as well as a
// generic one.
func implements(have, want map[string][]string) bool {
	for name, w := range want {
		h, ok := have[name]
		if !ok || len(h) != len(w) {
			return false
		}
		for i := range w {
			if w[i] != "?" && h[i] != "?" && w[i] != h[i] {
				return false
			}
		}
	}
	return true
}

// check reports p's exported surface that u does not reach.
func check(p *analysis.Pass, u *usage) {
	var pkgDoc []*ast.CommentGroup
	for _, f := range p.Files {
		if f.Doc != nil {
			pkgDoc = append(pkgDoc, f.Doc)
		}
	}
	w := &waivers{pass: p, used: map[token.Pos]bool{}}
	typeDocs := map[string]*ast.CommentGroup{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					typeDocs[ts.Name.Name] = docOf(ts.Doc, gd)
				}
			}
		}
	}
	report := func(id *ast.Ident, scope []*ast.CommentGroup, format string, args ...any) {
		if w.waived(id, scope...) {
			return
		}
		p.Reportf(id.Pos(), format, args...)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				obj := p.TypesInfo.Defs[d.Name]
				if u.used[key(obj)] || key(obj) == "" {
					continue
				}
				scope := append([]*ast.CommentGroup{d.Doc}, pkgDoc...)
				name := d.Name.Name
				if d.Recv != nil {
					n := named(obj.(*types.Func).Type().(*types.Signature).Recv().Type())
					if n == nil || !n.Obj().Exported() {
						continue
					}
					name = n.Obj().Name() + "." + name
					scope = append(scope, typeDocs[n.Obj().Name()])
				}
				report(d.Name, scope, "%s is exported but no non-test code reaches it", name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						scope := append([]*ast.CommentGroup{docOf(s.Doc, d)}, pkgDoc...)
						if s.Name.IsExported() && !u.used[key(p.TypesInfo.Defs[s.Name])] {
							report(s.Name, scope, "%s is exported but no non-test code reaches it", s.Name.Name)
						}
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							checkFields(s.Name.Name, st, scope, u, p, report)
						}
					case *ast.ValueSpec:
						scope := append([]*ast.CommentGroup{docOf(s.Doc, d)}, pkgDoc...)
						for _, id := range s.Names {
							if id.IsExported() && !u.used[key(p.TypesInfo.Defs[id])] {
								report(id, scope, "%s is exported but no non-test code reaches it", id.Name)
							}
						}
					}
				}
			}
		}
	}
	w.finish()
}

func checkFields(typ string, st *ast.StructType, scope []*ast.CommentGroup, u *usage, p *analysis.Pass,
	report func(*ast.Ident, []*ast.CommentGroup, string, ...any)) {
	prefix := p.Pkg.Path() + "." + typ + "."
	for _, field := range st.Fields.List {
		scope := append([]*ast.CommentGroup{field.Doc}, scope...)
		for _, id := range field.Names {
			if !id.IsExported() {
				continue
			}
			s := u.fields[prefix+id.Name]
			switch {
			case s == nil || !s.assigned:
				report(id, scope, "field %s.%s is never set by non-test code", typ, id.Name)
			case s.sites > 1 && !s.varied && len(s.consts) == 1:
				for v := range s.consts {
					report(id, scope, "field %s.%s is set to %s by every non-test assignment", typ, id.Name, v)
				}
			}
		}
	}
}

// docOf is a spec's own doc comment, else its declaration's.
func docOf(doc *ast.CommentGroup, gd *ast.GenDecl) *ast.CommentGroup {
	if doc != nil {
		return doc
	}
	return gd.Doc
}

// waivers finds the waiver covering a finding and, at the end, reports
// the waivers that have no reason or that covered nothing.
type waivers struct {
	pass *analysis.Pass
	used map[token.Pos]bool
}

func (w *waivers) waived(id *ast.Ident, scope ...*ast.CommentGroup) bool {
	d, ok := w.pass.Directives().At(id.Pos(), waiver)
	for _, cg := range scope {
		if !ok {
			d, ok = analysis.HasDirective(cg, waiver)
		}
	}
	if !ok {
		return false
	}
	if d.Reason == "" && !w.used[d.Pos] {
		w.pass.Reportf(id.Pos(), "//pace:%s on %s needs a reason: say what reaches it, or which change retires it", waiver, id.Name)
	}
	w.used[d.Pos] = true
	return true
}

func (w *waivers) finish() {
	for _, f := range w.pass.Files {
		for _, cg := range f.Comments {
			if d, ok := analysis.HasDirective(cg, waiver); ok && !w.used[d.Pos] {
				w.pass.Reportf(d.Pos, "//pace:%s covers nothing that is unreached; delete it", waiver)
			}
		}
	}
}
