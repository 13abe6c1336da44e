package op

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
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

	perOut []*core.GuardTable // assumed feedback asserted by each partition
	// perOutDemand records demanded patterns per partition (pattern
	// storage only — never used to suppress), so an unpinned demand can
	// relay upstream once every partition has demanded a covering subset.
	perOutDemand []*core.GuardTable
	rr           int            // round-robin cursor
	keyScratch   []stream.Value // backs routing probes for key-pinned feedback

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
	s.perOutDemand = s.Demands()
	s.outPer = make([]int64, s.n())
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
	if s.Mode != FeedbackIgnore && s.perOut[d].Suppress(t) {
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
	guard := s.Mode != FeedbackIgnore
	for i := range ts {
		t := ts[i]
		d := s.route(t)
		if guard && s.perOut[d].Active() > 0 && s.perOut[d].Suppress(t) {
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

// Merge combines K same-schema partition streams into one. Tuples pass
// through in arrival order; embedded punctuation is ALIGNED: a pattern is
// emitted downstream only once every live input has asserted punctuation
// implying it (an input at EOS covers everything). Two representations
// back the alignment so the steady-state path performs no allocation:
//
//   - the watermark fast path handles single-attribute ≤/< punctuation
//     (the dominant progress shape) with per-(input, attribute) int64
//     frontiers and emits the min across live inputs when it advances;
//   - arbitrary patterns go through a small pending list checked with
//     punct.Pattern.Implies against each input's asserted set.
//
// Feedback fans out to every input: the downstream consumer asserted the
// pattern over the whole merged stream, so each partition's share of it is
// unwanted; partitions that could never produce it are over-delivered,
// which assumed feedback's advisory semantics make safe (§4.2).
type Merge struct {
	exec.Responding
	OpName string
	Schema stream.Schema
	K      int
	// Mode/Propagate as in Union: Merge itself is stateless so its only
	// exploitation is an input guard.
	Mode      FeedbackMode
	Propagate bool

	guards *core.GuardTable
	ins    []mergeInput
	// wmOut/wmOutSet track the merged (aligned) frontier per attribute so
	// non-advancing arrivals emit nothing.
	wmOut    []int64
	wmOutSet []bool
	// pending holds generic (non-watermark) patterns not yet covered by
	// every live input.
	pending []punct.Pattern

	in, out, suppressed, aligned int64
}

// mergeInput is per-input alignment state.
type mergeInput struct {
	eos bool
	// wm/wmSet hold the inclusive per-attribute watermark this input has
	// punctuated (fast path).
	wm    []int64
	wmSet []bool
	// asserted holds generic punctuation patterns this input has emitted,
	// with subsumed entries replaced in place.
	asserted []punct.Pattern
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
	arity := m.Schema.Arity()
	m.Bind(m, m.Mode, m.Propagate, 1, arity)
	m.guards = m.OutTables()[0]
	m.ins = make([]mergeInput, m.k())
	for i := range m.ins {
		m.ins[i] = mergeInput{wm: make([]int64, arity), wmSet: make([]bool, arity)}
	}
	m.wmOut = make([]int64, arity)
	m.wmOutSet = make([]bool, arity)
	return nil
}

// ProcessTuple implements exec.Operator: pass-through, with optional guard
// suppression of subsets the downstream consumer has disclaimed.
func (m *Merge) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: tuple on unexpected input %d", m.Name(), input)
	}
	m.in++
	if m.Mode != FeedbackIgnore && m.guards.Suppress(t) {
		m.suppressed++
		return nil
	}
	m.out++
	ctx.Emit(t)
	return nil
}

// watermarkShape decomposes a single-attribute ≤/< punctuation over an
// integer-ordered domain into (attribute, inclusive bound). It allocates
// nothing (contrast Pattern.Bound).
func watermarkShape(p punct.Pattern) (attr int, incl int64, ok bool) {
	attr = -1
	for i := 0; i < p.Arity(); i++ {
		pr := p.Pred(i)
		if pr.IsWild() {
			continue
		}
		if attr >= 0 {
			return -1, 0, false // more than one bound attribute
		}
		if pr.Val.Kind != stream.KindInt && pr.Val.Kind != stream.KindTime {
			return -1, 0, false
		}
		switch pr.Op {
		case punct.LE:
			incl = pr.Val.I
		case punct.LT:
			incl = pr.Val.I - 1
		default:
			return -1, 0, false
		}
		attr = i
	}
	if attr < 0 {
		return -1, 0, false
	}
	return attr, incl, true
}

// attrValue rebuilds a value of the attribute's kind from the int64
// watermark domain.
func (m *Merge) attrValue(attr int, v int64) stream.Value {
	if m.Schema.Field(attr).Kind == stream.KindTime {
		return stream.TimeMicros(v)
	}
	return stream.Int(v)
}

// ProcessPunct implements exec.Operator: record the input's guarantee and
// emit it downstream only once every live input covers it.
func (m *Merge) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: punctuation on unexpected input %d", m.Name(), input)
	}
	if e.Pattern.Arity() != m.Schema.Arity() {
		return nil // not a pattern over this stream; consume it
	}
	if attr, incl, ok := watermarkShape(e.Pattern); ok {
		in := &m.ins[input]
		if !in.wmSet[attr] || incl > in.wm[attr] {
			in.wmSet[attr] = true
			in.wm[attr] = incl
			in.pruneAsserted(m)
		}
		m.advanceWatermark(attr, ctx)
		m.recheckPending(ctx)
		return nil
	}
	in := &m.ins[input]
	if !in.wmCovers(e.Pattern, m) {
		// The input's own frontier already covering the pattern makes
		// storing it redundant (covers checks the frontier first).
		in.assert(e.Pattern)
	}
	if !m.pendingHas(e.Pattern) {
		m.pending = append(m.pending, e.Pattern)
	}
	m.recheckPending(ctx)
	return nil
}

// assert records a generic punctuation pattern, replacing any entry the new
// pattern subsumes (q ⇒ p means p's no-more guarantee covers q's) and
// dropping the new pattern when an existing entry already covers it.
func (in *mergeInput) assert(p punct.Pattern) {
	for i, q := range in.asserted {
		if p.Implies(q) {
			return // existing guarantee already covers p
		}
		if q.Implies(p) {
			in.asserted[i] = p // p covers strictly more; replace in place
			return
		}
	}
	in.asserted = append(in.asserted, p)
}

// wmCovers reports whether this input's watermark frontier alone covers
// p: p ⇒ [*,…,≤wm@a,…,*] iff p's predicate at a implies ≤wm, and one
// covered conjunct excludes the whole tuple.
func (in *mergeInput) wmCovers(p punct.Pattern, m *Merge) bool {
	for a := 0; a < p.Arity(); a++ {
		if in.wmSet[a] && p.Pred(a).Implies(punct.Le(m.attrValue(a, in.wm[a]))) {
			return true
		}
	}
	return false
}

// covers reports whether this input's accumulated guarantees promise that
// no more tuples matching p will arrive from it.
func (in *mergeInput) covers(p punct.Pattern, m *Merge) bool {
	if in.eos {
		return true
	}
	if in.wmCovers(p, m) {
		return true
	}
	for _, q := range in.asserted {
		if p.Implies(q) {
			return true
		}
	}
	return false
}

// pruneAsserted drops asserted patterns the input's own watermark frontier
// now subsumes: anything they could cover, the frontier covers too, so the
// generic list stays bounded on long-running streams whenever patterns
// carry a bound on a punctuated (delimited, §4.4) attribute. Patterns
// binding only never-punctuated attributes accumulate — the same inherent
// growth as punct.Scheme's closed-value sets.
func (in *mergeInput) pruneAsserted(m *Merge) {
	if len(in.asserted) == 0 {
		return
	}
	kept := in.asserted[:0]
	for _, q := range in.asserted {
		if !in.wmCovers(q, m) {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(in.asserted); i++ {
		in.asserted[i] = punct.Pattern{} // release dropped patterns to the GC
	}
	in.asserted = kept
}

// coveredByAll reports whether every live input covers p.
func (m *Merge) coveredByAll(p punct.Pattern) bool {
	for i := range m.ins {
		if !m.ins[i].covers(p, m) {
			return false
		}
	}
	return true
}

// advanceWatermark folds per-input frontiers on one attribute and emits the
// aligned minimum when it advances. Inputs at EOS no longer constrain it;
// a live input that has never punctuated the attribute blocks alignment
// (it may still produce arbitrarily old tuples).
func (m *Merge) advanceWatermark(attr int, ctx exec.Context) {
	var minv int64
	first := true
	for i := range m.ins {
		in := &m.ins[i]
		if in.eos {
			continue
		}
		if !in.wmSet[attr] {
			return
		}
		if first || in.wm[attr] < minv {
			minv = in.wm[attr]
			first = false
		}
	}
	if first {
		return // every input at EOS: nothing left to assert
	}
	if m.wmOutSet[attr] && minv <= m.wmOut[attr] {
		return
	}
	m.wmOutSet[attr] = true
	m.wmOut[attr] = minv
	m.emitAligned(punct.OnAttr(m.Schema.Arity(), attr, punct.Le(m.attrValue(attr, minv))), ctx)
}

// outCovers reports whether the already-emitted merged frontier subsumes
// p, making a separate emission redundant.
func (m *Merge) outCovers(p punct.Pattern) bool {
	for a := 0; a < p.Arity(); a++ {
		if m.wmOutSet[a] && p.Pred(a).Implies(punct.Le(m.attrValue(a, m.wmOut[a]))) {
			return true
		}
	}
	return false
}

// recheckPending re-tests pending generic patterns, emitting the newly
// covered ones in arrival order and dropping ones the emitted frontier
// already subsumes (late or duplicate punctuation stays bounded).
func (m *Merge) recheckPending(ctx exec.Context) {
	if len(m.pending) == 0 {
		return
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		switch {
		case m.outCovers(p):
			// Already promised downstream; drop silently.
		case m.coveredByAll(p):
			m.emitAligned(p, ctx)
		default:
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = punct.Pattern{}
	}
	m.pending = kept
}

func (m *Merge) pendingHas(p punct.Pattern) bool {
	for _, q := range m.pending {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

// emitAligned forwards an aligned pattern downstream and lets it expire
// matching guards (the merged stream now promises the subset complete).
func (m *Merge) emitAligned(p punct.Pattern, ctx exec.Context) {
	e := punct.NewEmbedded(p)
	m.Observe(core.Output, e)
	m.aligned++
	ctx.EmitPunct(e)
}

// ProcessEOS implements exec.Operator: the ended input stops constraining
// alignment, which may release watermarks and pending patterns.
func (m *Merge) ProcessEOS(input int, ctx exec.Context) error {
	if input < 0 || input >= m.k() {
		return fmt.Errorf("op: merge %q: EOS on unexpected input %d", m.Name(), input)
	}
	m.ins[input].eos = true
	for a := 0; a < m.Schema.Arity(); a++ {
		m.advanceWatermark(a, ctx)
	}
	m.recheckPending(ctx)
	return nil
}

// Characterize implements core.Characterizer: guard the inputs and fan the
// feedback to every partition. The issuer asserted the pattern over the whole
// merged stream, so each partition's share of the subset is covered;
// partitions that could never produce it receive an over-delivery that
// advisory semantics make harmless.
func (m *Merge) Characterize(_ int, f core.Feedback) core.ResponsePlan {
	return core.Stateless(f, []core.Action{core.ActGuardInput}, identities(m.k(), m.Schema.Arity())...)
}

// Stats reports tuple and alignment accounting.
func (m *Merge) Stats() (in, out, suppressed, aligned int64) {
	return m.in, m.out, m.suppressed, m.aligned
}

// PendingAlignments reports how many generic patterns await coverage
// (diagnostics; the watermark fast path never pends).
func (m *Merge) PendingAlignments() int { return len(m.pending) }
