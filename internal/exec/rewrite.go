package exec

import "fmt"

// Plan-rewrite support: read-only graph accessors plus AbsorbChains, the one
// way a graph is rewritten: the plan compiler (internal/fuse) uses it to fold
// chains of single-input/single-output operator nodes into the node they
// feed. A rewrite is only legal on an assembled, not-yet-prepared graph with
// no staged restore state — a checkpoint names every node, so the restored
// shape must be the shape that was compiled, not an intermediate.

// NumNodes returns the number of nodes added so far.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// OperatorAt returns the operator at id, or nil when id is out of range or
// names a source node.
func (g *Graph) OperatorAt(id NodeID) Operator {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id].op
}

// IsSource reports whether id names a source node.
func (g *Graph) IsSource(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(g.nodes) && g.nodes[id].src != nil
}

// NameAt returns the node's name ("" when id is out of range).
func (g *Graph) NameAt(id NodeID) string {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return ""
	}
	return g.nodes[id].name()
}

// NumOutputsAt returns the node's output-port count (0 when out of range).
func (g *Graph) NumOutputsAt(id NodeID) int {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return 0
	}
	return g.nodes[id].numOutputs()
}

// InputsOf returns a copy of the upstream ports feeding node id, in input
// order (nil for sources and out-of-range ids).
func (g *Graph) InputsOf(id NodeID) []Port {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return append([]Port(nil), g.nodes[id].inputs...)
}

// AbsorbChains folds upstream operator chains into the node they feed: for
// each entry input→chain, the chain (node ids upstream→downstream, each
// 1-in/1-out, linked through output 0, consumed by nothing outside the chain,
// with the tail feeding exactly the given input of into) is deleted and that
// input rewires to the chain head's upstream port; into's operator is replaced
// by with — a prefix-kernel wrapper around the original, or, when into is
// itself the last node of a stateless chain, the one kernel that runs the
// whole chain. into keeps its position in node order, its output wiring and
// its output labels, which keeps a stateful node's checkpoint identity
// stable; later node ids shift down to stay dense, and edge labels follow
// their nodes (labels on absorbed edges vanish with the edges). with must
// present the chain heads' input schemas on absorbed ports, the original
// input schemas elsewhere, and the original output schemas.
func (g *Graph) AbsorbChains(into NodeID, chains map[int][]NodeID, with Operator) error {
	if g.prepared {
		return fmt.Errorf("exec: rewrite after graph already run")
	}
	if g.err != nil {
		return g.err
	}
	if g.staged != nil {
		return fmt.Errorf("exec: rewrite after Restore (compile the plan before staging a checkpoint)")
	}
	if int(into) < 0 || int(into) >= len(g.nodes) || g.nodes[into].op == nil {
		return fmt.Errorf("exec: absorb target %d is not an operator node", into)
	}
	if len(chains) == 0 {
		return fmt.Errorf("exec: absorb with no chains")
	}
	target := g.nodes[into]
	// chainOf: chain node → the one consumer edge it may legally feed.
	type expect struct {
		consumer NodeID
		input    int
	}
	expected := make(map[NodeID]expect)
	for input, chain := range chains {
		if input < 0 || input >= len(target.inputs) {
			return fmt.Errorf("exec: absorb input %d out of range for %q", input, target.name())
		}
		if len(chain) == 0 {
			return fmt.Errorf("exec: absorb input %d: empty chain", input)
		}
		for i, id := range chain {
			if int(id) < 0 || int(id) >= len(g.nodes) {
				return fmt.Errorf("exec: absorb chain names unknown node %d", id)
			}
			n := g.nodes[id]
			if n.op == nil {
				return fmt.Errorf("exec: absorb chain includes source %q", n.name())
			}
			if id == into {
				return fmt.Errorf("exec: absorb chain includes the target %q", n.name())
			}
			if len(n.inputs) != 1 || n.numOutputs() != 1 {
				return fmt.Errorf("exec: absorb chain node %q is not 1-in/1-out", n.name())
			}
			if _, dup := expected[id]; dup {
				return fmt.Errorf("exec: absorb chain repeats node %q", n.name())
			}
			if i > 0 && n.inputs[0] != (Port{Node: chain[i-1], Out: 0}) {
				return fmt.Errorf("exec: absorb chain broken: %q does not consume %q",
					n.name(), g.nodes[chain[i-1]].name())
			}
			if i+1 < len(chain) {
				expected[id] = expect{consumer: chain[i+1], input: 0}
			} else {
				expected[id] = expect{consumer: into, input: input}
			}
		}
		tail := chain[len(chain)-1]
		if target.inputs[input] != (Port{Node: tail, Out: 0}) {
			return fmt.Errorf("exec: absorb input %d of %q is not fed by chain tail %q",
				input, target.name(), g.nodes[tail].name())
		}
	}
	// Every consumption of a chain node must be the one link the chain
	// declares — no external consumers, no second tap by the target itself.
	for _, n := range g.nodes {
		for i, p := range n.inputs {
			want, isChain := expected[p.Node]
			if !isChain {
				continue
			}
			if n.id != want.consumer || i != want.input {
				return fmt.Errorf("exec: absorb chain node %q also consumed by %q input %d",
					g.nodes[p.Node].name(), n.name(), i)
			}
		}
	}
	if len(with.InSchemas()) != len(target.inputs) || len(with.OutSchemas()) != len(target.op.OutSchemas()) {
		return fmt.Errorf("exec: absorb replacement %q arity mismatch with %q", with.Name(), target.name())
	}
	for i := range target.inputs {
		wantIn := target.op.InSchemas()[i]
		if chain, ok := chains[i]; ok {
			wantIn = g.nodes[chain[0]].op.InSchemas()[0]
		}
		if !with.InSchemas()[i].Equal(wantIn) {
			return fmt.Errorf("exec: absorb replacement %q input %d schema %s != %s",
				with.Name(), i, with.InSchemas()[i], wantIn)
		}
	}
	for i, s := range target.op.OutSchemas() {
		if !with.OutSchemas()[i].Equal(s) {
			return fmt.Errorf("exec: absorb replacement %q output %d schema %s != %s",
				with.Name(), i, with.OutSchemas()[i], s)
		}
	}

	target.op = with
	for input, chain := range chains {
		target.inputs[input] = g.nodes[chain[0]].inputs[0]
	}

	remap := make([]NodeID, len(g.nodes)) // old id → new id (-1 = removed)
	kept := g.nodes[:0]
	for _, n := range g.nodes {
		if _, gone := expected[n.id]; gone {
			remap[n.id] = -1
			continue
		}
		remap[n.id] = NodeID(len(kept))
		kept = append(kept, n)
	}
	g.nodes = kept
	for _, n := range g.nodes {
		for i, p := range n.inputs {
			n.inputs[i] = Port{Node: remap[p.Node], Out: p.Out}
		}
		n.id = remap[n.id]
	}
	if g.labels != nil {
		relabeled := make(map[edgeKey]string, len(g.labels))
		for k, v := range g.labels {
			if remap[k.node] < 0 {
				continue // label on an absorbed edge: gone with the fusion
			}
			relabeled[edgeKey{remap[k.node], k.out}] = v
		}
		g.labels = relabeled
	}
	return nil
}
