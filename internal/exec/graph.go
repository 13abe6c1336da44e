package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// NodeID identifies a node added to a Graph.
type NodeID int

// Port names one output port of a node, for wiring.
type Port struct {
	Node NodeID
	Out  int
}

// From is shorthand for a node's output port 0.
func From(id NodeID) Port { return Port{Node: id} }

// FromPort names an explicit output port.
func FromPort(id NodeID, out int) Port { return Port{Node: id, Out: out} }

type node struct {
	id     NodeID
	op     Operator // nil for sources
	src    Source   // nil for operators
	inputs []Port   // upstream ports feeding each input, in order

	// Wired during prepare():
	inConns  []*queue.Conn // consumer side
	outConns []*queue.Conn // producer side
	// chained marks a node that runs on its producer's goroutine: its one
	// input edge is direct (Graph.Chained).
	chained bool
	// r is the node's runtime state and Context (runner.go).
	r *nodeRunner
	// wake is where the node's chain goroutine parks, shared by every node of
	// the chain: the head's input rings, every output ring and every output
	// edge's control queue signal it.
	wake *queue.Wake
	// aliases names the slabs the tuples the node is emitting may alias — its
	// input page's and the one it last drew (Slab); every output page filled
	// meanwhile adopts them. The node moves it from activation to activation
	// (runner.go).
	aliases queue.Aliases

	// nm holds the node's hot-path telemetry counters; nil unless a
	// telemetry sink is attached (telemetry.go).
	nm *telemetry.NodeMetrics
}

func (n *node) name() string {
	if n.src != nil {
		return n.src.Name()
	}
	return n.op.Name()
}

func (n *node) numOutputs() int {
	if n.src != nil {
		return len(n.src.OutSchemas())
	}
	return len(n.op.OutSchemas())
}

// edgeKey identifies the edge leaving one output port.
type edgeKey struct {
	node NodeID
	out  int
}

// consumerRef locates the single consumer of an edge.
type consumerRef struct {
	node  *node
	input int
}

// Graph is a query plan: a DAG of sources and operators. Build it with
// AddSource/Add, then execute with Run.
type Graph struct {
	nodes    []*node
	opts     queue.Options
	prepared bool
	err      error // first wiring error, surfaced by Run

	// consumers maps each wired edge to its (unique) consumer; built once
	// during prepare so Edges needs no per-edge node rescans.
	consumers map[edgeKey]consumerRef
	// labels annotates edges (e.g. "part=2/4" on partition edges); set any
	// time before Run via LabelEdge.
	labels map[edgeKey]string

	// tel is the optional telemetry sink (telemetry.go); set before Run.
	tel *telemetry.Telemetry

	// Checkpoint coordination (checkpoint.go). chkMu guards the rare
	// lifecycle events — checkpoint creation, node acks, node exits; the
	// steady state pays only the pendingChk atomic load in source loops.
	chkMu       sync.Mutex
	running     bool
	failCh      chan struct{} // Run's abort channel (closed on error/Kill)
	killFn      func(error)
	chkEpoch    int64
	activeChk   *inflight
	pendingChk  atomic.Pointer[inflight]
	liveNodes   map[NodeID]bool
	exitClean   map[NodeID]bool
	staged      map[NodeID]stagedState // Restore: per-node base+delta blobs
	stagedNames map[NodeID]string      // Restore: node names for drift checks
	// wireBarrier marks sources whose cut is driven by in-band wire
	// barriers (dist.go): the runner must not cut them at an arbitrary
	// poll position. Written before Run (NewDistFollower), read-only after.
	wireBarrier map[NodeID]bool

	// Two-phase checkpointing (checkpoint.go): encode/persist run on
	// background goroutines after the barrier releases. chkWG tracks them;
	// lastFinish chains them so chain writes land in epoch order.
	chkWG         sync.WaitGroup
	lastFinish    chan struct{}
	lastCapEpoch  int64 // newest epoch whose captures completed (delta parent)
	lastDoneEpoch int64 // newest fully assembled epoch
	chainBroken   bool  // a capture set was lost; next delta upgrades to full
	statuses      []CheckpointStatus
}

// NewGraph creates an empty plan with default queue options.
func NewGraph() *Graph { return &Graph{opts: queue.DefaultOptions()} }

// markWireBarrier registers a source as wire-barrier-driven; must be
// called before Run.
func (g *Graph) markWireBarrier(id NodeID) {
	if g.wireBarrier == nil {
		g.wireBarrier = make(map[NodeID]bool)
	}
	g.wireBarrier[id] = true
}

// SetQueueOptions overrides the inter-operator connection configuration for
// edges wired afterwards (tests and examples shrink the page so that short
// streams cross it).
func (g *Graph) SetQueueOptions(opts queue.Options) { g.opts = opts }

// AddSource adds a self-driving source node.
func (g *Graph) AddSource(src Source) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, &node{id: id, src: src})
	return id
}

// Add adds an operator node fed by the given upstream ports (one per input
// port, in order). Wiring errors are deferred to Run.
func (g *Graph) Add(op Operator, inputs ...Port) NodeID {
	id := NodeID(len(g.nodes))
	n := &node{id: id, op: op, inputs: inputs}
	g.nodes = append(g.nodes, n)
	if g.err == nil {
		g.err = g.checkAdd(n)
	}
	return id
}

func (g *Graph) checkAdd(n *node) error {
	want := len(n.op.InSchemas())
	if len(n.inputs) != want {
		return fmt.Errorf("exec: operator %q wants %d inputs, wired %d", n.op.Name(), want, len(n.inputs))
	}
	for i, p := range n.inputs {
		if int(p.Node) < 0 || int(p.Node) >= len(g.nodes)-1 {
			return fmt.Errorf("exec: operator %q input %d wired to unknown node %d", n.op.Name(), i, p.Node)
		}
		up := g.nodes[p.Node]
		if p.Out < 0 || p.Out >= up.numOutputs() {
			return fmt.Errorf("exec: operator %q input %d wired to %q output %d, which has %d outputs",
				n.op.Name(), i, up.name(), p.Out, up.numOutputs())
		}
		var upSchemas = up.outSchemas()
		if !upSchemas[p.Out].Equal(n.op.InSchemas()[i]) {
			return fmt.Errorf("exec: schema mismatch: %q output %d is %s but %q input %d wants %s",
				up.name(), p.Out, upSchemas[p.Out], n.op.Name(), i, n.op.InSchemas()[i])
		}
	}
	return nil
}

func (n *node) outSchemas() []stream.Schema {
	if n.src != nil {
		return n.src.OutSchemas()
	}
	return n.op.OutSchemas()
}

// prepare wires connections: one Conn per (producer output port → consumer
// input port) edge, direct where the consumer is chained to its producer, a
// ring elsewhere. Every output port must be consumed exactly once; explicit
// DUPLICATE operators provide fan-out.
func (g *Graph) prepare() error {
	if g.prepared {
		return fmt.Errorf("exec: graph already run")
	}
	if g.err != nil {
		return g.err
	}
	if err := g.checkStaged(); err != nil {
		return err
	}
	g.prepared = true
	conns := map[edgeKey]*queue.Conn{}
	g.consumers = make(map[edgeKey]consumerRef)
	// Inputs name earlier nodes only, so a chained node's producer has its
	// wake by the time the node shares it.
	for _, n := range g.nodes {
		n.outConns = make([]*queue.Conn, n.numOutputs())
		n.r = &nodeRunner{node: n, graph: g}
		n.chained = g.Chained(n.id)
		if n.chained {
			n.wake = g.nodes[n.inputs[0].Node].wake
		} else {
			n.wake = queue.NewWake()
		}
	}
	for _, n := range g.nodes {
		n.inConns = make([]*queue.Conn, len(n.inputs))
		for i, p := range n.inputs {
			k := edgeKey{p.Node, p.Out}
			if conns[k] != nil {
				return fmt.Errorf("exec: output %d of %q consumed twice (insert a DUPLICATE operator for fan-out)",
					p.Out, g.nodes[p.Node].name())
			}
			c := queue.New(g.opts)
			if n.chained {
				c.BindDirect(n.wake, n.r.deliver)
			} else {
				c.Bind(n.wake, g.nodes[p.Node].wake)
			}
			c.BindAliases(&g.nodes[p.Node].aliases)
			conns[k] = c
			g.consumers[k] = consumerRef{node: n, input: i}
			n.inConns[i] = c
			g.nodes[p.Node].outConns[p.Out] = c
		}
	}
	for _, n := range g.nodes {
		for out, c := range n.outConns {
			if c == nil {
				return fmt.Errorf("exec: output %d of %q is not consumed (add a sink)", out, n.name())
			}
		}
	}
	return nil
}

// Chained reports whether node id runs on its producer's goroutine: it has
// one input, and that input is the only output of an operator — a source
// keeps its own goroutine. The plan's shape decides, compiled or not; a chain
// is a head that is not chained and every node chained behind it.
func (g *Graph) Chained(id NodeID) bool {
	if int(id) < 0 || int(id) >= len(g.nodes) || len(g.nodes[id].inputs) != 1 {
		return false
	}
	up := g.nodes[g.nodes[id].inputs[0].Node]
	return up.op != nil && up.numOutputs() == 1
}

// chain returns the runners of head's chain, head first, each next one the
// chained consumer of the one before.
func (g *Graph) chain(head *node) []*nodeRunner {
	rs := []*nodeRunner{head.r}
	for n := head; len(n.outConns) == 1; {
		n = g.consumers[edgeKey{n.id, 0}].node
		if !n.chained {
			break
		}
		rs = append(rs, n.r)
	}
	return rs
}

// LabelEdge annotates the edge leaving the given output port (partitioned
// plans label split→replica and replica→merge edges with their partition
// index). Call any time before or after Run; Edges surfaces the label.
func (g *Graph) LabelEdge(p Port, label string) {
	if g.labels == nil {
		g.labels = make(map[edgeKey]string)
	}
	g.labels[edgeKey{p.Node, p.Out}] = label
}

// EdgeInfo describes one wired edge of the plan: producer output port,
// consumer input port, optional label, and the queue's own traffic counters.
// What the consumer did with the traffic (suppressed, dropped) is the
// consumer's to report: its Stats and its pace_op_* telemetry vars.
type EdgeInfo struct {
	Producer string
	Out      int
	Consumer string
	Input    int
	Label    string
	Stats    queue.Stats
	// Depth is the number of pages currently buffered in the edge queue, a
	// point-in-time backpressure gauge.
	Depth int
	// Direct marks a chained edge: its consumer processes each page on the
	// producer's goroutine as it is published, so Depth and the Stats park
	// and yield counts do not apply to it.
	Direct bool
}

// Edges returns every wired edge with its traffic counters, in node order.
// Valid after Run (nil before prepare; counters all-zero before Run ends).
func (g *Graph) Edges() []EdgeInfo {
	var out []EdgeInfo
	for _, n := range g.nodes {
		for o, c := range n.outConns {
			if c == nil {
				continue
			}
			k := edgeKey{n.id, o}
			e := EdgeInfo{Producer: n.name(), Out: o, Label: g.labels[k], Stats: c.Stats(), Depth: c.Depth(), Direct: c.Direct()}
			if ref, ok := g.consumers[k]; ok {
				e.Consumer = ref.node.name()
				e.Input = ref.input
			} else {
				e.Consumer = "?"
			}
			out = append(out, e)
		}
	}
	return out
}
