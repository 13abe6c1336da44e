package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stream"
)

var twoInt = stream.MustSchema(stream.F("v", stream.KindInt), stream.F("w", stream.KindInt))

// shaped is a forwarding operator of any shape: a replacement that does not
// fit.
type shaped struct {
	Base
	name      string
	ins, outs []stream.Schema
}

func (s *shaped) Name() string                { return s.name }
func (s *shaped) InSchemas() []stream.Schema  { return s.ins }
func (s *shaped) OutSchemas() []stream.Schema { return s.outs }
func (s *shaped) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.Emit(t)
	return nil
}

// rewriteFixture is the plan every row starts from. x is a node of another
// branch added between the chain's nodes, so renumbering shows; b and x are
// sources that cut at their own barriers; four edges carry labels, one of them interior
// to the chain p1→p2→p3.
//
//	a → p1 → p2 → p3 → m → q → sink      x → xsink
//	               b ──↗
type rewriteFixture struct {
	g                               *Graph
	a, b, p1, x, p2, p3, m, q, sink NodeID
	got                             *Collector
}

func newRewriteFixture(tapP2 bool) rewriteFixture {
	f := rewriteFixture{g: NewGraph()}
	g := f.g
	f.a = g.AddSource(NewSliceSource("a", oneInt, intTuple(1), intTuple(2)))
	f.b = g.AddSource(ownCuts{NewSliceSource("b", oneInt, intTuple(3))})
	f.p1 = g.Add(&passthrough{name: "p1"}, From(f.a))
	f.x = g.AddSource(ownCuts{NewSliceSource("x", oneInt)})
	f.p2 = g.Add(&passthrough{name: "p2"}, From(f.p1))
	f.p3 = g.Add(&passthrough{name: "p3"}, From(f.p2))
	f.m = g.Add(&mergeTwo{name: "m"}, From(f.p3), From(f.b))
	f.q = g.Add(&passthrough{name: "q"}, From(f.m))
	f.got = NewCollector("sink", oneInt)
	f.sink = g.Add(f.got, From(f.q))
	g.Add(NewCollector("xsink", oneInt), From(f.x))
	if tapP2 {
		g.Add(NewCollector("tap", oneInt), From(f.p2))
	}
	g.LabelEdge(From(f.a), "in")
	g.LabelEdge(From(f.p2), "interior")
	g.LabelEdge(From(f.m), "out")
	g.LabelEdge(From(f.x), "other")
	return f
}

// describe renders what a rewrite may touch: node order and ids, input
// wiring, which sources cut at their own barriers, and edge labels.
func describe(g *Graph) string {
	var sb strings.Builder
	labels := 0
	for pos, n := range g.nodes {
		if int(n.id) != pos {
			fmt.Fprintf(&sb, "(node at %d carries id %d) ", pos, n.id)
		}
		fmt.Fprintf(&sb, "%d:%s", pos, n.name())
		for _, p := range n.inputs {
			fmt.Fprintf(&sb, " <%d.%d", p.Node, p.Out)
		}
		if _, own := n.src.(BarrierSource); own {
			sb.WriteString(" wire")
		}
		for out := 0; out < n.numOutputs(); out++ {
			if l, ok := g.labels[edgeKey{n.id, out}]; ok {
				fmt.Fprintf(&sb, " %q", l)
				labels++
			}
		}
		sb.WriteByte('\n')
	}
	if labels != len(g.labels) {
		fmt.Fprintf(&sb, "labels on no node's output: %v\n", g.labels)
	}
	return sb.String()
}

// TestRewriteAbsorbChains drives the one graph rewrite directly: every way a
// rewrite is refused leaves the graph as it was, and the two shapes the plan
// compiler asks for — chains folded into a multi-input consumer, a chain
// collapsed into its own last node — keep node order, wiring, labels and
// sources where the unrewritten plan had them.
func TestRewriteAbsorbChains(t *testing.T) {
	const untouched = `0:a "in"
1:b wire
2:p1 <0.0
3:x wire "other"
4:p2 <2.0 "interior"
5:p3 <4.0
6:m <5.0 <1.0 "out"
7:q <6.0
8:sink <7.0
9:xsink <3.0
`
	merged := func(name string) Operator { return &mergeTwo{name: name} }
	for _, tc := range []struct {
		name    string
		tapP2   bool
		arrange func(f rewriteFixture) (into NodeID, chains map[int][]NodeID, with Operator)
		wantErr string // "" = the rewrite succeeds
		want    string // the graph afterwards; "" = untouched
	}{
		{
			name: "three-node chain on one input of a two-input target",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}}, merged("p1+p2+p3=>m")
			},
			want: `0:a "in"
1:b wire
2:x wire "other"
3:p1+p2+p3=>m <0.0 <1.0 "out"
4:q <3.0
5:sink <4.0
6:xsink <2.0
`,
		},
		{
			name: "chain replaced by a 1-in/1-out operator",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.p3, map[int][]NodeID{0: {f.p1, f.p2}}, &passthrough{name: "p1+p2+p3"}
			},
			want: `0:a "in"
1:b wire
2:x wire "other"
3:p1+p2+p3 <0.0
4:m <3.0 <1.0 "out"
5:q <4.0
6:sink <5.0
7:xsink <2.0
`,
		},
		{
			name: "broken link",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p3}}, merged("bad")
			},
			wantErr: `chain broken: "p3" does not consume "p1"`,
		},
		{
			name: "chain tail does not feed the named input",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{1: {f.p1, f.p2, f.p3}}, merged("bad")
			},
			wantErr: `input 1 of "m" is not fed by chain tail "p3"`,
		},
		{
			name:  "interior node with an outside consumer",
			tapP2: true,
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}}, merged("bad")
			},
			wantErr: `chain node "p2" also consumed by "tap"`,
			want:    untouched + "10:tap <4.0\n",
		},
		{
			name: "chain containing a source",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{1: {f.b}}, merged("bad")
			},
			wantErr: `chain includes source "b"`,
		},
		{
			name: "chain containing the target",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.p3, map[int][]NodeID{0: {f.p2, f.p3}}, &passthrough{name: "bad"}
			},
			wantErr: `chain includes the target "p3"`,
		},
		{
			name: "chain node that is not 1-in/1-out",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.sink, map[int][]NodeID{0: {f.m, f.q}}, NewCollector("bad", oneInt)
			},
			wantErr: `chain node "m" is not 1-in/1-out`,
		},
		{
			name: "target is a source",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.a, map[int][]NodeID{0: {f.p1}}, merged("bad")
			},
			wantErr: "is not an operator node",
		},
		{
			name: "arity mismatch",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}}, &passthrough{name: "narrow"}
			},
			wantErr: `replacement "narrow" arity mismatch with "m"`,
		},
		{
			name: "input schema mismatch",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}},
					&shaped{name: "wide", ins: []stream.Schema{twoInt, oneInt}, outs: []stream.Schema{oneInt}}
			},
			wantErr: `replacement "wide" input 0 schema`,
		},
		{
			name: "output schema mismatch",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}},
					&shaped{name: "wide", ins: []stream.Schema{oneInt, oneInt}, outs: []stream.Schema{twoInt}}
			},
			wantErr: `replacement "wide" output 0 schema`,
		},
		{
			name: "after prepare",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				if err := f.g.prepare(); err != nil {
					t.Fatal(err)
				}
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}}, merged("late")
			},
			wantErr: "rewrite after graph already run",
		},
		{
			name: "after a staged restore",
			arrange: func(f rewriteFixture) (NodeID, map[int][]NodeID, Operator) {
				f.g.staged = map[NodeID][]byte{}
				return f.m, map[int][]NodeID{0: {f.p1, f.p2, f.p3}}, merged("late")
			},
			wantErr: "rewrite after Restore",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newRewriteFixture(tc.tapP2)
			into, chains, with := tc.arrange(f)
			err := f.g.AbsorbChains(into, chains, with)
			want := tc.want
			if want == "" {
				want = untouched
			}
			if got := describe(f.g); got != want {
				t.Errorf("graph afterwards:\n%swant:\n%s", got, want)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("AbsorbChains = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := f.g.Run(); err != nil {
				t.Fatalf("rewritten plan: %v", err)
			}
			if n := f.got.Count(); n != 3 {
				t.Errorf("rewritten plan delivered %d tuples, want a's two and b's one", n)
			}
		})
	}
}
