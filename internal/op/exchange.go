package op

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Split and Merge are the exchange operators of a partitioned parallel
// plan: Split hash- (or round-robin-) partitions one stream across N
// output ports, each feeding a replica of the enclosed sub-plan, and
// Merge recombines the N replica outputs into one stream. Together they
// let a stateful operator like Aggregate run N-way data-parallel while
// preserving the paper's two stream-progress contracts:
//
//   - embedded punctuation may only be forwarded past the Merge once
//     EVERY live partition has emitted punctuation implying it
//     (punctuation alignment — a partition that has not covered the
//     pattern may still produce matching tuples);
//   - feedback punctuation must reach every partition that could produce
//     tuples in the described subset. Merge fans feedback to all
//     partitions (assumed feedback is advisory, so over-delivery is
//     safe: a partition that never produces matching tuples simply has
//     nothing to suppress). Split routes feedback back toward the true
//     producer: a pattern that pins the partition key is forwarded
//     immediately, anything else waits for every partition to assert a
//     covering pattern (the Duplicate unanimity rule) so upstream
//     suppression can never starve a partition that still wants the
//     subset.

// ---------------------------------------------------------------------------
// Split.
// ---------------------------------------------------------------------------

// Split partitions its input across N outputs. With Key set, tuples are
// routed by hash of the key attributes (all tuples of one key group reach
// the same partition, as a partitioned Aggregate or Join requires); with
// no Key, tuples round-robin across outputs (keyless stages such as a
// parallel filter).
//
// Embedded punctuation is broadcast to every output: "no more tuples
// matching p in the stream" holds a fortiori for each partition's
// substream, whatever the routing.
type Split struct {
	exec.Responding
	snapshot.State
	OpName string
	Schema stream.Schema
	N      int
	// Key lists the partitioning attribute indices; empty selects
	// round-robin routing.
	Key []int
	// Mode enables per-partition exploitation of assumed feedback;
	// Propagate relays exploitable feedback upstream.
	Mode      FeedbackMode
	Propagate bool

	perOut     []*core.GuardTable // assumed feedback asserted by each partition
	rr         int                // round-robin cursor
	keyScratch []stream.Value     // backs routing probes for key-pinned feedback

	// subScratch backs the batch path's per-port sub-batches; batchScratch
	// backs ProcessTupleBatch's item unwrapping. Reused across batches,
	// transient, never checkpointed.
	subScratch   [][]stream.Tuple
	batchScratch []stream.Tuple

	in, suppressed int64
	outPer         []int64
}

// Name implements exec.Operator.
func (s *Split) Name() string {
	if s.OpName != "" {
		return s.OpName
	}
	return "split"
}

func (s *Split) n() int {
	if s.N <= 0 {
		return 2
	}
	return s.N
}

// InSchemas implements exec.Operator.
func (s *Split) InSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// OutSchemas implements exec.Operator.
func (s *Split) OutSchemas() []stream.Schema {
	out := make([]stream.Schema, s.n())
	for i := range out {
		out[i] = s.Schema
	}
	return out
}

// Open implements exec.Operator.
func (s *Split) Open(exec.Context) error {
	for _, k := range s.Key {
		if k < 0 || k >= s.Schema.Arity() {
			return fmt.Errorf("op: split %q: key attribute %d out of range for %s", s.Name(), k, s.Schema)
		}
	}
	s.Bind(s, s.Mode, s.Propagate, s.n(), s.Schema.Arity())
	s.perOut = s.OutTables()
	s.outPer = make([]int64, s.n())
	s.keepState()
	return nil
}

// route picks the destination partition for a tuple.
func (s *Split) route(t stream.Tuple) int {
	if len(s.Key) > 0 {
		return int(t.Hash(s.Key) % uint64(s.n()))
	}
	d := s.rr
	s.rr++
	if s.rr == s.n() {
		s.rr = 0
	}
	return d
}

// ProcessTuple implements exec.Operator: route by key hash (or round
// robin) and emit to exactly one partition. A tuple whose destination
// partition has asserted covering assumed feedback is suppressed here —
// only that partition would ever have seen it, so no unanimity is needed
// (contrast Duplicate, whose outputs must stay identical).
func (s *Split) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: split %q: tuple on unexpected input %d", s.Name(), input)
	}
	s.in++
	d := s.route(t)
	if s.perOut[d].Suppress(t) {
		s.suppressed++
		return nil
	}
	s.outPer[d]++
	ctx.EmitTo(d, t)
	return nil
}

// ProcessPunct implements exec.Operator: broadcast to every partition (the
// whole-stream guarantee holds for each substream) and drive per-partition
// guard expiration.
func (s *Split) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: split %q: punctuation on unexpected input %d", s.Name(), input)
	}
	s.Observe(core.Output, e)
	for i := 0; i < s.n(); i++ {
		ctx.EmitPunctTo(i, e)
	}
	return nil
}

// ApplyTupleBatch implements exec.TupleBatchApplier: the run is routed into
// per-port sub-batches (per-tuple routing identical to ProcessTuple — the
// round-robin cursor advances per tuple, destination guards probe per tuple)
// and each non-empty sub-batch is emitted with one EmitBatchTo call. Order
// within each output port is preserved; cross-port interleaving differs from
// the sequential path, which no consumer can observe — each port feeds its
// own edge, and punctuation is processed only between batch runs, so the
// tuples-before-punct order per port is intact.
func (s *Split) ApplyTupleBatch(input int, ts []stream.Tuple, ctx exec.Context) error {
	if input != 0 {
		return fmt.Errorf("op: split %q: tuple on unexpected input %d", s.Name(), input)
	}
	n := s.n()
	if len(s.subScratch) != n {
		s.subScratch = make([][]stream.Tuple, n)
	}
	sub := s.subScratch
	for d := range sub {
		sub[d] = sub[d][:0]
	}
	s.in += int64(len(ts))
	for i := range ts {
		t := ts[i]
		d := s.route(t)
		if s.perOut[d].Suppress(t) {
			s.suppressed++
			continue
		}
		sub[d] = append(sub[d], t)
	}
	for d := 0; d < n; d++ {
		run := sub[d]
		if len(run) == 0 {
			continue
		}
		s.outPer[d] += int64(len(run))
		ctx.EmitBatchTo(d, run)
	}
	return nil
}

// ProcessTupleBatch implements exec.TupleBatcher by unwrapping the run into
// a reused scratch slice and taking the batch-apply path, so unfused plans
// partition whole pages per call too.
func (s *Split) ProcessTupleBatch(input int, items []queue.Item, ctx exec.Context) error {
	buf := s.batchScratch[:0]
	for i := range items {
		buf = append(buf, items[i].Tuple)
	}
	s.batchScratch = buf
	return s.ApplyTupleBatch(input, buf, ctx)
}

// routesOnlyTo reports the single partition every tuple matching p would be
// routed to, or -1 when the pattern does not pin the routing: the split is
// keyed and p binds every key attribute with an equality.
func (s *Split) routesOnlyTo(p punct.Pattern) int {
	if len(s.Key) == 0 || p.Arity() != s.Schema.Arity() {
		return -1
	}
	if cap(s.keyScratch) < s.Schema.Arity() {
		s.keyScratch = make([]stream.Value, s.Schema.Arity())
	}
	vals := s.keyScratch[:s.Schema.Arity()]
	for _, k := range s.Key {
		pr := p.Pred(k)
		if pr.Op != punct.EQ {
			return -1
		}
		vals[k] = pr.Val
	}
	return int(stream.Tuple{Values: vals}.Hash(s.Key) % uint64(s.n()))
}

// Characterize implements core.Characterizer. A partition's assumed feedback
// is held against its port — where its tuples are suppressed at once: only
// that partition would have seen them — and its demanded feedback likewise,
// never to suppress. Either travels upstream once it is key-pinned to that
// partition or unanimous (an over-delivered demand would push early partials
// at partitions that did not ask; a Merge fan-out below makes every partition
// demand the same subset, and then the relay is exact). Desired feedback is
// pure prioritization — it never changes the result set — and travels at once.
func (s *Split) Characterize(output int, f core.Feedback) core.ResponsePlan {
	relay := core.Stateless(f, nil, core.Identity(s.Schema.Arity()))
	if f.Intent == core.Desired {
		return relay
	}
	held := core.ResponsePlan{
		Actions:     []core.Action{core.ActGuardOutput},
		Propagate:   []*punct.Pattern{nil},
		Explanation: "neither key-pinned nor asserted by all partitions; withheld upstream",
	}
	if s.routesOnlyTo(f.Pattern) == output || s.CoveredByOthers(output, f) {
		held.Propagate, held.Explanation = relay.Propagate, relay.Explanation
		if relay.Did(core.ActPropagate) {
			held.Actions = append(held.Actions, core.ActPropagate)
		}
	}
	return held
}

// Stats reports tuple accounting: total in, per-partition out, suppressed.
func (s *Split) Stats() (in int64, outPer []int64, suppressed int64) {
	return s.in, append([]int64(nil), s.outPer...), s.suppressed
}

// ---------------------------------------------------------------------------
// Merge.
// ---------------------------------------------------------------------------

// Merge combines K same-schema streams into one: the recombining end of an
// exchange, and the plan's UNION. Tuples pass through in arrival order;
// embedded punctuation is aligned (aligner): a pattern is emitted downstream
// only once every live input has asserted punctuation implying it.
//
// Feedback fans out to every input: the downstream consumer asserted the
// pattern over the whole merged stream, so each input's share of it is
// unwanted; inputs that could never produce it are over-delivered,
// which assumed feedback's advisory semantics make safe (§4.2).
type Merge struct {
	exec.Responding
	snapshot.State
	OpName string
	Schema stream.Schema
	K      int
	// Mode/Propagate as in Select: Merge itself is stateless so its only
	// exploitation is an input guard.
	Mode      FeedbackMode
	Propagate bool

	guards *core.GuardTable
	align  aligner

	in, out, suppressed, aligned int64
}

// Name implements exec.Operator.
func (m *Merge) Name() string {
	if m.OpName != "" {
		return m.OpName
	}
	return "merge"
}

func (m *Merge) k() int {
	if m.K <= 0 {
		return 2
	}
	return m.K
}

// InSchemas implements exec.Operator.
func (m *Merge) InSchemas() []stream.Schema {
	in := make([]stream.Schema, m.k())
	for i := range in {
		in[i] = m.Schema
	}
	return in
}

// OutSchemas implements exec.Operator.
func (m *Merge) OutSchemas() []stream.Schema { return []stream.Schema{m.Schema} }

// Open implements exec.Operator.
func (m *Merge) Open(exec.Context) error {
	m.Bind(m, m.Mode, m.Propagate, 1, m.Schema.Arity())
	m.guards = m.OutTables()[0]
	m.align = newAligner(m.Schema, m.k())
	m.keepState()
	return nil
}

// ProcessTuple implements exec.Operator: pass-through, with optional guard
// suppression of subsets the downstream consumer has disclaimed.
func (m *Merge) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: tuple on unexpected input %d", m.Name(), input)
	}
	m.in++
	if m.guards.Suppress(t) {
		m.suppressed++
		return nil
	}
	m.out++
	ctx.Emit(t)
	return nil
}

// ProcessPunct implements exec.Operator: record the input's guarantee and
// emit it downstream only once every live input covers it.
func (m *Merge) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: punctuation on unexpected input %d", m.Name(), input)
	}
	m.emitAligned(m.align.punct(input, e.Pattern), ctx)
	return nil
}

// emitAligned forwards aligned patterns downstream and lets them expire
// matching guards (the merged stream now promises the subset complete).
func (m *Merge) emitAligned(ps []punct.Pattern, ctx exec.Context) {
	for _, p := range ps {
		e := punct.NewEmbedded(p)
		m.Observe(core.Output, e)
		m.aligned++
		ctx.EmitPunct(e)
	}
}

// ProcessEOS implements exec.Operator: the ended input stops constraining
// alignment, which may release frontiers and pending patterns.
func (m *Merge) ProcessEOS(input int, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: EOS on unexpected input %d", m.Name(), input)
	}
	m.emitAligned(m.align.eos(input), ctx)
	return nil
}

// Characterize implements core.Characterizer: guard the inputs and fan the
// feedback to every one of them — the mapping is the identity, so propagation
// is always safe. The issuer asserted the pattern over the whole merged
// stream, so each input's share of the subset is covered; inputs that could
// never produce it receive an over-delivery that advisory semantics make
// harmless.
func (m *Merge) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	maps := make([]core.AttrMap, m.k())
	for i := range maps {
		maps[i] = core.Identity(m.Schema.Arity())
	}
	return core.Stateless(f, []core.Action{core.ActGuardInput}, maps...)
}
