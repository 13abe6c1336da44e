package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// VarKind distinguishes monotone counters from point-in-time gauges in the
// Prometheus exposition.
type VarKind int

const (
	Counter VarKind = iota
	Gauge
)

// String renders the Prometheus TYPE keyword.
func (k VarKind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// Var is one exported counter: a name, help text, optional extra labels,
// and a pull function evaluated at scrape time. The closure must only read
// atomics — scrapes run concurrently with the plan.
type Var struct {
	Name   string
	Help   string
	Labels map[string]string
	Value  func() int64
}

// VarExporter is implemented by operators (op.Select, fuse.Fused,
// remote.Sink, ...) that expose their own metrics; the runtime discovers
// it by type assertion at registration time and adds node/op identity
// labels to every Var.
type VarExporter interface {
	TelemetryVars() []Var
}

// histBounds are the histogram's inclusive upper bounds (powers of two);
// an implicit +Inf bucket follows. Sized for batch lengths and page
// occupancies, the quantities the runtime observes.
var histBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// histBuckets includes the +Inf bucket.
const histBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket histogram: atomic bucket counts plus sum and
// count, no allocation on Observe.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(histBounds) && v > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// NodeMetrics is the per-node hot-path instrument set. One instance is
// allocated per graph node at prepare time; the node's runner tallies into
// plain locals during each page and flushes here with a handful of atomic
// adds per page, so the steady-state tuple path allocates nothing and pays
// at most a few uncontended atomic ops per page (§2.3's K-item batching
// bound). Rare events (feedback, barriers) add directly.
type NodeMetrics struct {
	TuplesIn    atomic.Int64 // data tuples entering the node
	PunctsIn    atomic.Int64 // punctuations entering the node
	Batches     atomic.Int64 // batch-dispatch calls (TupleBatcher fast path)
	Rechecks    atomic.Int64 // control-queue rechecks (every K items)
	FeedbackIn  atomic.Int64 // feedback messages received (control path)
	FeedbackOut atomic.Int64 // feedback messages sent upstream
	BarriersIn  atomic.Int64 // checkpoint barriers processed
	BatchSize   Histogram    // tuples per batch-dispatch call
}

// EdgeStat is a scrape-time snapshot of one graph edge, produced by the
// closure exec installs via SetEdges. Plain values — no queue types — keep
// telemetry a leaf package.
type EdgeStat struct {
	Producer string `json:"producer"`
	Out      int    `json:"out"`
	Consumer string `json:"consumer"`
	Input    int    `json:"input"`
	Label    string `json:"label,omitempty"`
	Tuples   int64  `json:"tuples"`
	Puncts   int64  `json:"puncts"`
	Pages    int64  `json:"pages"`
	Controls int64  `json:"controls"`
	Depth    int    `json:"queue_depth_pages"`
	// ConsumerParks counts the times the consumer blocked on this edge
	// empty (waiting for input), ProducerParks the times the producer
	// blocked on it full (blocked on output).
	ConsumerParks int64 `json:"consumer_parks"`
	ProducerParks int64 `json:"producer_parks"`
	// ConsumerYields and ProducerYields count the waits on this edge that
	// ended without blocking: the peer was running and delivered while the
	// waiter polled.
	ConsumerYields int64 `json:"consumer_yields"`
	ProducerYields int64 `json:"producer_yields"`
	// Direct marks a chained edge: its consumer runs on the producer's
	// goroutine, so the queue depth and the park and yield counts do not
	// apply, and neither /statusz nor /metrics reports them.
	Direct bool `json:"direct,omitempty"`
}

// MarshalJSON leaves out of a direct edge the fields that do not apply to it,
// rather than zeros that read as "never waited".
func (e EdgeStat) MarshalJSON() ([]byte, error) {
	type fields EdgeStat
	if !e.Direct {
		return json.Marshal(fields(e))
	}
	// The shallower fields win over the embedded ones of the same name, and
	// nil ones are omitted.
	return json.Marshal(struct {
		fields
		Depth          *int   `json:"queue_depth_pages,omitempty"`
		ConsumerParks  *int64 `json:"consumer_parks,omitempty"`
		ProducerParks  *int64 `json:"producer_parks,omitempty"`
		ConsumerYields *int64 `json:"consumer_yields,omitempty"`
		ProducerYields *int64 `json:"producer_yields,omitempty"`
	}{fields: fields(e)})
}

// nodeEntry is one registered node: identity, hot-path metrics, and the
// operator's own exported vars.
type nodeEntry struct {
	ID   int
	Name string
	NM   *NodeMetrics
	Vars []Var
}

// Registry holds everything /metrics serves. Registration happens before
// the plan's goroutines start; scrapes run concurrently with execution and
// only read atomics (or copy slices under the mutex).
type Registry struct {
	mu      sync.Mutex
	nodes   []nodeEntry
	globals []Var
	edges   func() []EdgeStat
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterNode adds one graph node's metrics: its always-on NodeMetrics
// plus any operator-exported vars (node/op labels are attached here).
func (r *Registry) RegisterNode(id int, name string, nm *NodeMetrics, vars []Var) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nodes = append(r.nodes, nodeEntry{ID: id, Name: name, NM: nm, Vars: vars})
	r.mu.Unlock()
}

// AddGlobal registers process-wide vars (e.g. compiled-pattern counts).
func (r *Registry) AddGlobal(vars ...Var) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.globals = append(r.globals, vars...)
	r.mu.Unlock()
}

// Globals evaluates the process-wide vars, by name, for /statusz.
func (r *Registry) Globals() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	globals := append([]Var(nil), r.globals...)
	r.mu.Unlock()
	out := make(map[string]int64, len(globals))
	for _, v := range globals {
		if v.Value != nil {
			out[v.Name] = v.Value()
		}
	}
	return out
}

// SetEdges installs the edge-snapshot closure; it is called once per
// scrape and must be safe concurrently with the running plan.
func (r *Registry) SetEdges(fn func() []EdgeStat) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.edges = fn
	r.mu.Unlock()
}

// EdgeSnapshots evaluates the installed edge closure (nil-safe).
func (r *Registry) EdgeSnapshots() []EdgeStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fn := r.edges
	r.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Nodes returns the registered node identities (id, name) in registration
// order, for /statusz.
func (r *Registry) Nodes() (ids []int, names []string) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		ids = append(ids, n.ID)
		names = append(names, n.Name)
	}
	return ids, names
}

// sample is one labelled value inside a family.
type sample struct {
	labels string
	value  int64
}

// family groups samples of one metric name for exposition.
type family struct {
	name, help string
	kind       VarKind
	samples    []sample
}

// promEscape escapes a label value per the Prometheus text format.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// renderLabels renders a deterministic (sorted-key) label block.
func renderLabels(sets ...map[string]string) string {
	keys := make([]string, 0, 4)
	merged := map[string]string{}
	for _, set := range sets {
		for k, v := range set {
			if _, ok := merged[k]; !ok {
				keys = append(keys, k)
			}
			merged[k] = v
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + `="` + promEscape(merged[k]) + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// nodeCounter describes one NodeMetrics field for exposition.
var nodeCounters = []struct {
	name, help string
	load       func(*NodeMetrics) int64
}{
	{"pace_node_tuples_in_total", "Data tuples entering the node.", func(m *NodeMetrics) int64 { return m.TuplesIn.Load() }},
	{"pace_node_puncts_in_total", "Punctuations entering the node.", func(m *NodeMetrics) int64 { return m.PunctsIn.Load() }},
	{"pace_node_batches_total", "Batch-dispatch calls on the node's fast path.", func(m *NodeMetrics) int64 { return m.Batches.Load() }},
	{"pace_node_control_rechecks_total", "Control-queue rechecks (every K items).", func(m *NodeMetrics) int64 { return m.Rechecks.Load() }},
	{"pace_node_feedback_in_total", "Feedback messages received on the control path.", func(m *NodeMetrics) int64 { return m.FeedbackIn.Load() }},
	{"pace_node_feedback_out_total", "Feedback messages sent upstream.", func(m *NodeMetrics) int64 { return m.FeedbackOut.Load() }},
	{"pace_node_barriers_in_total", "Checkpoint barriers processed.", func(m *NodeMetrics) int64 { return m.BarriersIn.Load() }},
}

// edgeCounter describes one EdgeStat field for exposition; ring marks the
// ones a direct edge does not have.
var edgeCounters = []struct {
	name, help string
	kind       VarKind
	ring       bool
	load       func(EdgeStat) int64
}{
	{"pace_edge_tuples_total", "Tuples delivered on the edge.", Counter, false, func(e EdgeStat) int64 { return e.Tuples }},
	{"pace_edge_puncts_total", "Punctuations delivered on the edge (each flushes its page).", Counter, false, func(e EdgeStat) int64 { return e.Puncts }},
	{"pace_edge_pages_total", "Pages transferred on the edge.", Counter, false, func(e EdgeStat) int64 { return e.Pages }},
	{"pace_edge_controls_total", "Control messages (feedback/shutdown) on the edge.", Counter, false, func(e EdgeStat) int64 { return e.Controls }},
	{"pace_edge_queue_depth_pages", "Pages currently buffered in the edge queue.", Gauge, true, func(e EdgeStat) int64 { return int64(e.Depth) }},
	{"pace_edge_consumer_parks_total", "Times the consumer blocked with the edge queue empty (waiting for input).", Counter, true, func(e EdgeStat) int64 { return e.ConsumerParks }},
	{"pace_edge_producer_parks_total", "Times the producer blocked with the edge queue full (blocked on output).", Counter, true, func(e EdgeStat) int64 { return e.ProducerParks }},
	{"pace_edge_consumer_yields_total", "Waits of the consumer on the empty edge queue that ended without blocking.", Counter, true, func(e EdgeStat) int64 { return e.ConsumerYields }},
	{"pace_edge_producer_yields_total", "Waits of the producer on the full edge queue that ended without blocking.", Counter, true, func(e EdgeStat) int64 { return e.ProducerYields }},
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), hand-rolled — no external dependency. Scrape-time
// allocation is fine; the contract is only about the tuple hot path.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	nodes := append([]nodeEntry(nil), r.nodes...)
	globals := append([]Var(nil), r.globals...)
	edgeFn := r.edges
	r.mu.Unlock()

	fams := map[string]*family{}
	add := func(name, help string, kind VarKind, labels string, v int64) {
		f := fams[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind}
			fams[name] = f
		}
		f.samples = append(f.samples, sample{labels: labels, value: v})
	}

	for _, n := range nodes {
		id := map[string]string{"node": fmt.Sprint(n.ID), "op": n.Name}
		if n.NM != nil {
			for _, c := range nodeCounters {
				add(c.name, c.help, Counter, renderLabels(id), c.load(n.NM))
			}
		}
		for _, v := range n.Vars {
			if v.Value == nil {
				continue
			}
			add(v.Name, v.Help, Counter, renderLabels(id, v.Labels), v.Value())
		}
	}
	for _, v := range globals {
		if v.Value == nil {
			continue
		}
		add(v.Name, v.Help, Counter, renderLabels(v.Labels), v.Value())
	}
	var edges []EdgeStat
	if edgeFn != nil {
		edges = edgeFn()
	}
	for _, e := range edges {
		lbl := renderLabels(map[string]string{
			"producer": e.Producer, "out": fmt.Sprint(e.Out),
			"consumer": e.Consumer, "input": fmt.Sprint(e.Input),
			"label": e.Label,
		})
		for _, c := range edgeCounters {
			if !c.ring || !e.Direct {
				add(c.name, c.help, c.kind, lbl, c.load(e))
			}
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.value)
		}
	}

	// Histograms last: per-node batch-size distribution.
	const hname = "pace_node_batch_size"
	first := true
	for _, n := range nodes {
		if n.NM == nil || n.NM.BatchSize.Count() == 0 {
			continue
		}
		if first {
			fmt.Fprintf(w, "# HELP %s Tuples per batch-dispatch call.\n# TYPE %s histogram\n", hname, hname)
			first = false
		}
		id := map[string]string{"node": fmt.Sprint(n.ID), "op": n.Name}
		h := &n.NM.BatchSize
		cum := int64(0)
		for i := range histBounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", hname,
				renderLabels(id, map[string]string{"le": fmt.Sprint(histBounds[i])}), cum)
		}
		cum += h.counts[histBuckets-1].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", hname, renderLabels(id, map[string]string{"le": "+Inf"}), cum)
		fmt.Fprintf(w, "%s_sum%s %d\n", hname, renderLabels(id), h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", hname, renderLabels(id), h.Count())
	}
}
