package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const waived = `package p

//pace:allow-alloc standing alone
var a = 1
var b = 2 //pace:allow-alloc trailing b
var c = 3
func f() { //pace:allow-alloc trailing the brace
	_ = 4
}
`

// A line waiver covers its own line, and the line below only when it
// stands alone.
func TestDirectiveLines(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", waived, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := CollectDirectives(fset, []*ast.File{f})
	file := fset.File(f.Pos())
	for _, c := range []struct {
		line   int
		name   string
		reason string // "" when nothing covers the line
	}{
		{4, "allow-alloc", "standing alone"},
		{4, "allow-nonatomic", ""},
		{5, "allow-alloc", "trailing b"},
		{6, "allow-alloc", ""},
		{7, "allow-alloc", "trailing the brace"},
		{8, "allow-alloc", ""},
	} {
		t.Run(fmt.Sprintf("line%d/%s", c.line, c.name), func(t *testing.T) {
			dir, ok := d.At(file.LineStart(c.line), c.name)
			if ok != (c.reason != "") || dir.Reason != c.reason {
				t.Errorf("covered=%v by %q, want %q", ok, dir.Reason, c.reason)
			}
		})
	}
}
