package exec

import (
	"time"

	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// Telemetry wiring: the runtime half of internal/telemetry. A graph with an
// attached sink allocates one NodeMetrics per node at registration time;
// node runners tally into plain locals during each page and flush with a
// handful of atomic adds per page (runner.go), so instrumentation respects
// the §2 hot-path contract — zero allocations and no per-tuple atomics.
// Scrapes pull: counters are read off atomics, edges are snapshotted from
// the queues' own atomic stats, and epoch lifecycle events are recorded
// into the sink's bounded timeline as the checkpoint machinery runs.

// SetTelemetry attaches a telemetry sink. Call before Run; node and edge
// registration happens inside Run, after prepare wires the plan.
func (g *Graph) SetTelemetry(t *telemetry.Telemetry) { g.tel = t }

// Telemetry returns the attached sink (nil when none).
func (g *Graph) Telemetry() *telemetry.Telemetry { return g.tel }

// tracer returns the attached control-plane tracer; nil (always disabled)
// without a sink.
func (g *Graph) tracer() *telemetry.Tracer {
	if g.tel == nil {
		return nil
	}
	return g.tel.Tracer
}

// registerTelemetry allocates per-node metrics and registers every node,
// the edge-snapshot closure, and process-wide vars with the attached
// registry. Called from Run after prepare, before node goroutines start, so
// registration never races execution.
func (g *Graph) registerTelemetry() {
	if g.tel == nil {
		return
	}
	reg := g.tel.Registry
	for _, n := range g.nodes {
		n.nm = &telemetry.NodeMetrics{}
		var impl any = n.op
		if n.src != nil {
			impl = n.src
		}
		var vars []telemetry.Var
		if ve, ok := impl.(telemetry.VarExporter); ok {
			vars = ve.TelemetryVars()
		}
		reg.RegisterNode(int(n.id), n.name(), n.nm, vars)
	}
	reg.AddGlobal(telemetry.Var{
		Name:  "pace_punct_patterns_compiled_total",
		Help:  "Punctuation patterns compiled process-wide.",
		Value: punct.CompiledCount,
	})
	// Is slab recycling happening: requests, and those the pool could not
	// serve. Unlike the park counters beside them these are process-wide —
	// a slab's pool outlives the edges it travelled.
	reg.AddGlobal(
		telemetry.Var{
			Name:  "pace_slab_gets_total",
			Help:  "Value slabs requested for runs of rebuilt tuples, process-wide.",
			Value: func() int64 { gets, _ := queue.SlabStats(); return gets },
		},
		telemetry.Var{
			Name:  "pace_slab_misses_total",
			Help:  "Slab requests the recycling pool could not serve (fresh allocations), process-wide.",
			Value: func() int64 { _, misses := queue.SlabStats(); return misses },
		})
	reg.SetEdges(g.edgeSnapshots)
}

// edgeSnapshots converts the live edge set into telemetry's plain structs;
// runs at scrape time, concurrently with the plan (Edges reads only the
// queues' atomic stats).
func (g *Graph) edgeSnapshots() []telemetry.EdgeStat {
	edges := g.Edges()
	out := make([]telemetry.EdgeStat, len(edges))
	for i, e := range edges {
		out[i] = telemetry.EdgeStat{
			Producer: e.Producer, Out: e.Out,
			Consumer: e.Consumer, Input: e.Input, Label: e.Label,
			Tuples: e.Stats.Tuples, Puncts: e.Stats.Puncts,
			Pages: e.Stats.Pages, Controls: e.Stats.Controls,
			Depth:          e.Depth,
			ConsumerParks:  e.Stats.ConsumerParks,
			ProducerParks:  e.Stats.ProducerParks,
			ConsumerYields: e.Stats.ConsumerYields,
			ProducerYields: e.Stats.ProducerYields,
			Direct:         e.Direct,
		}
	}
	return out
}

// recordEpoch appends one checkpoint lifecycle event to the sink's epoch
// timeline (no-op without a sink). Safe to call with chkMu held — the
// timeline has its own lock and never calls back into the graph.
func (g *Graph) recordEpoch(phase string, epoch int64, part string, dur time.Duration, err error) {
	if g.tel == nil {
		return
	}
	ev := telemetry.EpochEvent{Epoch: epoch, Phase: phase, Part: part, Dur: dur}
	if err != nil {
		ev.Err = err.Error()
	}
	g.tel.Timeline.Record(ev)
}
