package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The engine's lint directives all share the //pace: prefix, in the style
// of //go: and //lint: comments:
//
//	//pace:hotpath                — function doc: the body must not allocate
//	//pace:stateless <reason>     — type doc: operator deliberately opts out
//	                                of snapshot.Stater
//	//pace:allow-alloc <reason>   — line waiver for hotpathalloc
//	//pace:allow-nonatomic <r>    — line waiver for atomicfield
//	//pace:allow-unreached <r>    — declaration waiver for surface
//
// A line waiver suppresses findings on its own line and, when it stands
// alone, on the line directly below it. Reasons are free text; the
// analyzers require one so every suppression documents its justification.
const prefix = "//pace:"

// Directive is one parsed //pace: comment.
type Directive struct {
	Name   string // e.g. "hotpath", "allow-alloc"
	Reason string // trailing free text, trimmed
	Pos    token.Pos
	alone  bool // no code precedes it on its line
}

// parseDirective extracts a directive from one comment, or ok=false.
func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	rest := c.Text[len(prefix):]
	name, reason, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// HasDirective reports whether the comment group carries the named
// directive, returning it.
func HasDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Directives indexes every //pace: comment of a package by file and line,
// for line-scoped waivers.
type Directives struct {
	fset  *token.FileSet
	lines map[lineKey][]Directive
}

type lineKey struct {
	file string
	line int
}

// CollectDirectives scans all comments of the given files.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, lines: map[lineKey][]Directive{}}
	for _, f := range files {
		code := firstCode(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				first, ok := code[p.Line]
				dir.alone = !ok || first > c.Pos()
				k := lineKey{file: p.Filename, line: p.Line}
				d.lines[k] = append(d.lines[k], dir)
			}
		}
	}
	return d
}

// firstCode maps each line of f that holds code to the position of its
// first code character; comments are not code.
func firstCode(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	first := map[int]token.Pos{}
	note := func(pos token.Pos) {
		line := fset.Position(pos).Line
		if p, ok := first[line]; !ok || pos < p {
			first[line] = pos
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		note(n.Pos())
		note(n.End() - 1)
		return true
	})
	return first
}

// AllowedAt reports whether a waiver with the given name covers pos: the
// directive sits on the same line (trailing comment) or stands alone on
// the line directly above.
func (d *Directives) AllowedAt(pos token.Pos, name string) bool {
	_, ok := d.At(pos, name)
	return ok
}

// At returns the waiver with the given name that covers pos, as AllowedAt
// decides it.
func (d *Directives) At(pos token.Pos, name string) (Directive, bool) {
	p := d.fset.Position(pos)
	for _, dir := range d.lines[lineKey{file: p.Filename, line: p.Line}] {
		if dir.Name == name {
			return dir, true
		}
	}
	for _, dir := range d.lines[lineKey{file: p.Filename, line: p.Line - 1}] {
		if dir.Name == name && dir.alone {
			return dir, true
		}
	}
	return Directive{}, false
}
