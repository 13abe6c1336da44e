package fuse

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/snapshot"
)

// Fusion records one applied rewrite: the fused node's name and the
// constituent operator names in chain order (input by input for a prefixed
// consumer). Consumer names the operator a prefix kernel was absorbed into;
// a standalone kernel leaves it empty.
type Fusion struct {
	Name     string
	Steps    []string
	Consumer string
}

// Rewrite compiles an assembled, not-yet-run graph in one scan. Every
// operator that is not itself fusible anchors the chains that end at it: on
// each of its inputs, the maximal run of fusible operators (Select and Map,
// projections included), each the sole consumer of the one before. An absorb target
// (Aggregate, Join, Impute, Pace, exchange Split) takes all its chains, of any
// length, as per-input prefix kernels (Prefixed): the prefix evaluates inside
// the consumer's page loop and survivors take the batched stateful apply
// path. In front of any other anchor (Merge, Duplicate, sinks, remote edges,
// an already-compiled node) a chain of two or more collapses into one
// standalone Fused node and a lone operator is left alone. A chain stops at:
//
//   - sources and any operator that is not a Select or a Map;
//   - any snapshot.Stater (stateful operators checkpoint per node, so their
//     node identity must survive compilation);
//   - nodes that are not 1-in/1-out (fan-in and fan-out);
//   - multi-consumer and unconsumed outputs (only possible mid-construction:
//     prepare rejects both, and fan-out goes through explicit Duplicate
//     operators, which are not fusible).
//
// Compiled nodes are neither fusible nor absorb targets, so a second call
// finds nothing to do. Returns the applied fusions in the order performed
// (anchor order).
func Rewrite(g *exec.Graph) ([]Fusion, error) {
	// How many inputs each fusible operator's output feeds. Counted once, by
	// operator: a rewrite renumbers nodes but leaves every surviving output
	// with the consumers it had.
	consumers := make(map[exec.Operator]int)
	for id := 0; id < g.NumNodes(); id++ {
		for _, p := range g.InputsOf(exec.NodeID(id)) {
			if fusible(g, p.Node) {
				consumers[g.OperatorAt(p.Node)]++
			}
		}
	}
	// chainInto gathers the maximal fusible chain feeding port p,
	// upstream→downstream.
	chainInto := func(p exec.Port) []exec.NodeID {
		var chain []exec.NodeID
		for fusible(g, p.Node) && consumers[g.OperatorAt(p.Node)] == 1 {
			chain = append(chain, p.Node)
			p = g.InputsOf(p.Node)[0]
		}
		slices.Reverse(chain)
		return chain
	}
	kernelOf := func(chain []exec.NodeID) (*Fused, error) {
		ops := make([]exec.Operator, len(chain))
		for i, id := range chain {
			ops[i] = g.OperatorAt(id)
		}
		return New(ops)
	}

	var fusions []Fusion
	// Chains lie upstream of their anchor, so at lower ids: a rewrite moves
	// the anchor down by the nodes it removed and the scan resumes after it.
	for id := exec.NodeID(0); int(id) < g.NumNodes(); id++ {
		anchor := g.OperatorAt(id)
		if anchor == nil || fusible(g, id) {
			continue
		}
		if !absorbTarget(anchor) {
			for i := range g.InputsOf(id) {
				chain := chainInto(g.InputsOf(id)[i])
				if len(chain) < 2 {
					continue
				}
				kernel, err := kernelOf(chain)
				if err != nil {
					return fusions, err
				}
				last := len(chain) - 1
				if err := g.AbsorbChains(chain[last], map[int][]exec.NodeID{0: chain[:last]}, kernel); err != nil {
					return fusions, err
				}
				fusions = append(fusions, Fusion{Name: kernel.Name(), Steps: kernel.stepNames()})
				id -= exec.NodeID(last)
			}
			continue
		}
		ins := g.InputsOf(id)
		chains := make(map[int][]exec.NodeID)
		kernels := make([]*Fused, len(ins))
		var steps []string
		removed := 0
		for i, up := range ins {
			chain := chainInto(up)
			if len(chain) == 0 {
				continue
			}
			kernel, err := kernelOf(chain)
			if err != nil {
				return fusions, err
			}
			chains[i], kernels[i] = chain, kernel
			steps = append(steps, kernel.stepNames()...)
			removed += len(chain)
		}
		if len(chains) == 0 {
			continue
		}
		prefixed, err := NewPrefixed(anchor, kernels)
		if err != nil {
			return fusions, err
		}
		if err := g.AbsorbChains(id, chains, prefixed); err != nil {
			return fusions, err
		}
		fusions = append(fusions, Fusion{Name: prefixed.Name(), Steps: steps, Consumer: anchor.Name()})
		id -= exec.NodeID(removed)
	}
	return fusions, nil
}

// absorbTarget reports whether the operator is a stateful consumer (or
// exchange Split) whose input ports may gain prefix kernels. Merge stays
// out: it is the plan's punctuation-alignment point and consumes per-input
// watermarks the kernel must not get between.
func absorbTarget(o exec.Operator) bool {
	switch o.(type) {
	case *op.Aggregate, *op.Join, *op.Impute, *op.Pace, *op.Split:
		return true
	}
	return false
}

// fusible reports whether the node can participate in a fused chain.
func fusible(g *exec.Graph, id exec.NodeID) bool {
	o := g.OperatorAt(id)
	if o == nil {
		return false
	}
	if _, stateful := o.(snapshot.Stater); stateful {
		return false
	}
	if _, err := constituentOf(o); err != nil {
		return false // not Select or a mapping, or misconfigured: prepare/Open reports it
	}
	return len(o.InSchemas()) == 1 && g.NumOutputsAt(id) == 1
}
