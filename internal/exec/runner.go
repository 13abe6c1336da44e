package exec

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/telemetry"

	"repro/internal/punct"
)

// Run executes the plan: one goroutine per chain (a source, or an operator
// and the nodes chained behind it), page rings between chains, direct edges
// inside one, and upstream control queues for feedback. It returns after
// every node has finished (all sources exhausted and all data drained), or
// after the first node error (remaining nodes are shut down).
func (g *Graph) Run() error {
	if err := g.prepare(); err != nil {
		return err
	}
	g.registerTelemetry()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstMu sync.Once
		runErr  error
	)
	done := make(chan struct{}) // closed on first error: global shutdown
	fail := func(err error) {
		firstMu.Do(func() {
			mu.Lock()
			runErr = err
			mu.Unlock()
			close(done)
		})
	}
	g.chkMu.Lock()
	g.running = true
	g.failCh = done
	g.killFn = fail
	g.liveNodes = make(map[NodeID]bool, len(g.nodes))
	for _, n := range g.nodes {
		g.liveNodes[n.id] = true
		n.r.done, n.r.fail = done, fail
	}
	g.chkMu.Unlock()
	for _, n := range g.nodes {
		if !n.chained {
			wg.Add(1)
			go g.runChain(n, &wg)
		}
	}
	wg.Wait()
	g.chkMu.Lock()
	g.running = false
	g.killFn = nil
	g.chkMu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	return runErr
}

// runChain is the one goroutine of head's chain. Every member is opened
// before anything is handed to it (tail first), then the head drives the
// chain: a source calls Next, an operator takes pages from its input rings,
// and every page a member publishes runs through its chained consumer on the
// spot. The head's exit reaches every member still running: its EOS, or the
// aborted graph, ends each one in turn.
func (g *Graph) runChain(head *node, wg *sync.WaitGroup) {
	defer wg.Done()
	chain := g.chain(head)
	for i := len(chain) - 1; i >= 0; i-- {
		if err := chain[i].do((*nodeRunner).start); err != nil {
			chain[i].exit(err)
			head.r.exit(nil)
			return
		}
	}
	r := head.r
	if head.src != nil {
		r.exit(r.sourceLoop())
		return
	}
	r.exit(r.operatorLoop(chain))
}

// bitset tracks a small set of output-port indices without a map on the
// control path.
type bitset struct {
	words []uint64
	count int
}

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

// set marks bit i, returning whether it was newly set.
func (b *bitset) set(i int) bool {
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// DefaultControlInterval is the number of page items processed between
// control-queue rechecks. Feedback still overtakes pending tuples — the
// paper's §5 priority property — just within a bounded window of K items
// instead of after every single one; see DESIGN.md for the correctness
// argument.
const DefaultControlInterval = 32

// nodeRunner is one node's runtime state, driven by its chain's goroutine. It
// also implements Context for the node's operator.
type nodeRunner struct {
	node  *node
	graph *Graph
	done  <-chan struct{}
	fail  func(error) // the graph's: the first error stops every chain

	shutdownOuts bitset // outputs whose consumers sent shutdown
	stopping     bool
	batcher      TupleBatcher // non-nil when the operator takes tuple runs whole
	// opened: Open succeeded, so Close is owed; exited: exit has run.
	opened, exited bool

	// Telemetry (telemetry.go): nm is the node's counter set (nil without a
	// sink), trace the control-plane tracer (nil-safe). The pg* fields are
	// the per-page tallies — plain ints bumped on the hot path and flushed
	// into nm's atomics once per page, so instrumentation adds no per-tuple
	// atomics and no allocations.
	nm                                      *telemetry.NodeMetrics
	trace                                   *telemetry.Tracer
	pgTuples, pgPuncts, pgBatches, pgChecks int64

	// Checkpoint state (see checkpoint.go): openInputs/inEOS track input
	// liveness for barrier alignment; align is the in-progress alignment;
	// lastCutEpoch is the newest epoch a source has cut.
	openInputs   int
	inEOS        []bool
	align        *alignState
	lastCutEpoch int64
}

// alignState is one in-progress barrier alignment: inputs that have
// delivered the epoch's barrier are frozen — their post-barrier items are
// buffered in deferred — until every live input delivers it, at which
// point the node's state is the consistent cut.
type alignState struct {
	epoch    int64
	got      []bool
	deferred [][]queue.Item
}

// start opens the node and applies its staged state, before anything reaches
// it.
func (r *nodeRunner) start() error {
	n := r.node
	r.nm = n.nm
	r.trace = r.graph.tracer()
	r.shutdownOuts = newBitset(len(n.outConns))
	var err error
	if n.src != nil {
		err = n.src.Open(r)
	} else {
		r.batcher, _ = n.op.(TupleBatcher)
		r.openInputs = len(n.inConns)
		r.inEOS = make([]bool, len(n.inConns))
		err = n.op.Open(r)
	}
	if err != nil {
		return err
	}
	r.opened = true
	return r.graph.restoreNode(n)
}

// exit is the node's one way out — its inputs ended, its consumers asked it
// to stop, it failed, or the graph is aborting. An opened node is closed on
// every path (a failed one too, or its connections and goroutines would
// outlive the run) and the first error, named after the node, fails the
// graph. Then EOS goes out on every output — a chained consumer processes it,
// and exits, inside that call — every input is aborted so that producers
// waiting on it finish, and the checkpoint bookkeeping records the exit.
func (r *nodeRunner) exit(err error) {
	if r.exited {
		return
	}
	r.exited = true
	n := r.node
	if r.opened {
		if cerr := r.do((*nodeRunner).close); err == nil {
			err = cerr
		}
	}
	// Deferred-item replay (alignment abandon) can tally outside a page.
	r.flushPageStats()
	if err != nil {
		r.fail(fmt.Errorf("exec: node %q: %w", n.name(), err))
	}
	// The slab a closing flush drew goes with its pages.
	n.aliases.End()
	for _, c := range n.outConns {
		c.CloseSend()
	}
	for _, c := range n.inConns {
		c.Abort()
	}
	// A clean exit records the node's final state as its cut; a dying one
	// fails any active checkpoint.
	r.graph.nodeExit(n, err)
}

func (r *nodeRunner) close() error {
	if r.node.src != nil {
		return r.node.src.Close(r)
	}
	return r.node.op.Close(r)
}

// do runs one of the node's callbacks outside a page: a panic in it is the
// node's error, so it names this node and not its chain's head.
func (r *nodeRunner) do(f func(*nodeRunner) error) (err error) {
	defer recoverPanic(&err)
	return f(r)
}

// recoverPanic, deferred around a callback, turns its panic into its error.
func recoverPanic(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

func (r *nodeRunner) sourceLoop() error {
	// A wire-barrier-driven source (a remote edge under distributed
	// coordination) cuts only where its own in-band barrier sits, via
	// InjectWireBarrier — a poll-based cut here could land before the
	// edge's barrier and strand that edge's in-flight tuples on the wrong
	// side of the epoch.
	wireCut := r.graph.wireBarrier[r.node.id]
	for !r.stopping {
		if err := r.do((*nodeRunner).drainControl); err != nil {
			return err
		}
		if r.stopping {
			break
		}
		// Between two Next calls the source's state is exactly its replay
		// position, so saving state and injecting the barrier here makes
		// the source's cut consistent by construction.
		if !wireCut {
			r.maybeCutSource()
		}
		select {
		case <-r.done:
			r.stopping = true
		default:
			// Next may block (a paced source sleeps, a remote one reads a
			// socket): no consumer stays parked on pages already published.
			r.node.wake.Kick()
			if err := r.do((*nodeRunner).next); err != nil {
				return err
			}
		}
	}
	return nil
}

// next is one Next call, one activation: the slab it drew is retired when it
// returns.
func (r *nodeRunner) next() error {
	more, err := r.node.src.Next(r)
	r.node.aliases.End()
	if !more {
		r.stopping = true
	}
	return err
}

// maybeCutSource checks for a newly requested checkpoint and, if one is
// pending, captures the source's state and emits its barrier on every
// output.
func (r *nodeRunner) maybeCutSource() {
	c := r.graph.pendingChk.Load()
	if c == nil || c.epoch <= r.lastCutEpoch {
		return
	}
	r.lastCutEpoch = c.epoch
	r.graph.cutNode(r.node, c.epoch)
	for _, conn := range r.node.outConns {
		conn.PutBarrier(c.epoch)
	}
}

// InjectWireBarrier implements SourceBarrierInjector: a barrier-receiving
// source calls it from inside Next, at the exact position its wire barrier
// occupies in its stream, after the hook has registered the epoch. Stale
// epochs (a cancelled epoch's frame still draining) are dropped; the
// forwarded barrier is harmless downstream either way.
func (r *nodeRunner) InjectWireBarrier(epoch int64) {
	if epoch <= r.lastCutEpoch {
		return
	}
	r.lastCutEpoch = epoch
	r.graph.cutNode(r.node, epoch)
	for _, conn := range r.node.outConns {
		conn.PutBarrier(epoch)
	}
}

// operatorLoop is an operator head's loop: the chain's control first, then a
// page from each of the head's open input rings, which runs through the whole
// chain before the next.
func (r *nodeRunner) operatorLoop(chain []*nodeRunner) error {
	for r.openInputs > 0 && !r.stopping {
		// Control before data (§5: control messages are high-priority), on
		// every member's outputs, tail first: what a member relays upstream
		// reaches its producer in the same pass.
		for i := len(chain) - 1; i > 0; i-- {
			m := chain[i]
			if m.exited {
				continue
			}
			if err := m.do((*nodeRunner).drainControl); err != nil || m.stopping {
				m.exit(err)
			}
		}
		if err := r.do((*nodeRunner).drainControl); err != nil {
			return err
		}
		if r.stopping {
			break
		}
		// A cancelled checkpoint's freeze must lift even if the frozen
		// input never sees another item (its EOS may already be deferred);
		// whoever retires a checkpoint signals every node's wake.
		if r.align != nil && r.alignmentStale() {
			if err := r.do((*nodeRunner).abandonAlignment); err != nil {
				return err
			}
		}
		// done is polled once per round, so a global abort is observed
		// within a page per input even while input is backlogged.
		select {
		case <-r.done:
			r.stopping = true
			continue
		default:
		}
		idle, err := r.pollInputs()
		if err != nil {
			return err
		}
		// The one place the node waits for input: every ring came up
		// empty and armed. Park polls the rings and the control queues
		// over a bounded number of yields (a page or feedback from a peer
		// that is running ends the wait there) and then blocks, where
		// data, control and checkpoint retirement all arrive as a token on
		// the node's wake.
		if idle && !r.node.wake.Park(r.done) {
			r.stopping = true
		}
	}
	return nil
}

// pollInputs takes at most one page from every open input without blocking
// and processes it; idle reports that no input had one.
//
//pace:hotpath
func (r *nodeRunner) pollInputs() (idle bool, _ error) {
	idle = true
	for in, c := range r.node.inConns {
		if r.inEOS[in] {
			continue
		}
		p := c.TryRecv()
		if p == nil {
			continue
		}
		idle = false
		err := r.processPage(in, p)
		// Ownership transfer complete on every exit: nothing above retains
		// the page (operators copy what they keep, and frozen-input items
		// are copied into the alignment buffer), so it goes back to the
		// recycling pool before any error propagates.
		queue.Release(p)
		if err != nil || r.stopping {
			return false, err
		}
	}
	return idle, nil
}

// deliver is a direct edge's consumer end: the producer's goroutine runs the
// page through this node, and the node's exit when the page ended its input
// or asked it to stop. An aborting graph's pages are not processed.
//
//pace:hotpath
func (r *nodeRunner) deliver(p *queue.Page) {
	select {
	case <-r.done:
		r.exit(nil)
		return
	default:
	}
	if err := r.processPage(0, p); err != nil || r.stopping || r.openInputs == 0 {
		r.exit(err)
	}
}

// processPage is one activation: tuples emitted while it runs may alias the
// input page's slabs or the slab the operator last drew. A panic in it is the
// node's error; one in a chained consumer is that consumer's, stopped at its
// own processPage.
//
//pace:hotpath
func (r *nodeRunner) processPage(input int, p *queue.Page) (err error) {
	defer recoverPanic(&err) //pace:allow-alloc err stays on the stack: recoverPanic keeps no pointer to it (go build -gcflags=-m)
	r.node.aliases.Begin(p)
	err = r.pageLoop(input, p)
	r.node.aliases.End()
	r.flushPageStats()
	return err
}

// flushPageStats moves the page-local telemetry tallies into the node's
// atomic counters — a handful of uncontended adds per page, the same
// batching cadence the K-item control recheck already established.
func (r *nodeRunner) flushPageStats() {
	if nm := r.nm; nm != nil {
		if r.pgTuples != 0 {
			nm.TuplesIn.Add(r.pgTuples)
		}
		if r.pgPuncts != 0 {
			nm.PunctsIn.Add(r.pgPuncts)
		}
		if r.pgBatches != 0 {
			nm.Batches.Add(r.pgBatches)
		}
		if r.pgChecks != 0 {
			nm.Rechecks.Add(r.pgChecks)
		}
	}
	r.pgTuples, r.pgPuncts, r.pgBatches, r.pgChecks = 0, 0, 0, 0
}

//pace:hotpath
func (r *nodeRunner) pageLoop(input int, p *queue.Page) error {
	items := p.Items
	for i := 0; i < len(items); i++ {
		// Re-check control every K items so feedback overtakes pending
		// tuples within a bounded window; with nothing pending the check
		// is one atomic load per output edge.
		if i%DefaultControlInterval == 0 {
			r.pgChecks++
			if err := r.drainControl(); err != nil {
				return err
			}
			if r.stopping {
				return nil
			}
		}
		// Batch fast path: hand the operator a maximal run of consecutive
		// tuples in one call, capped at the next control recheck so the
		// feedback-overtaking window is unchanged. Any in-progress barrier
		// alignment falls back to the per-item path, which owns the
		// freeze/defer logic.
		if r.batcher != nil && r.align == nil && items[i].Kind == queue.ItemTuple {
			j := i + 1
			for lim := i + DefaultControlInterval - i%DefaultControlInterval; j < len(items) && j < lim &&
				items[j].Kind == queue.ItemTuple; j++ {
			}
			if err := r.batcher.ProcessTupleBatch(input, items[i:j], r); err != nil {
				return err
			}
			r.pgTuples += int64(j - i)
			r.pgBatches++
			if r.nm != nil {
				r.nm.BatchSize.Observe(int64(j - i))
			}
			i = j - 1
			continue
		}
		if err := r.processItem(input, &items[i]); err != nil {
			return err
		}
	}
	return nil
}

// processItem dispatches one item to the operator, diverting items from
// barrier-frozen inputs into the alignment buffer.
//
//pace:hotpath
func (r *nodeRunner) processItem(input int, it *queue.Item) error {
	if a := r.align; a != nil && a.got[input] {
		if !r.alignmentStale() {
			// Input already delivered this epoch's barrier: everything
			// behind it is on the far side of the cut, so it waits until
			// the cut is taken. The item is copied out and a tuple's values
			// cloned — the page and its slabs are recycled first.
			d := *it
			if d.Kind == queue.ItemTuple {
				d.Tuple = d.Tuple.Clone() //pace:allow-alloc only while a barrier alignment holds this input frozen
			}
			a.deferred[input] = append(a.deferred[input], d)
			return nil
		}
		// The aligning epoch's checkpoint was cancelled: lift the freeze
		// (replaying what was deferred) and process this item normally.
		if err := r.abandonAlignment(); err != nil {
			return err
		}
	}
	op := r.node.op
	switch it.Kind {
	case queue.ItemTuple:
		r.pgTuples++
		return op.ProcessTuple(input, it.Tuple, r)
	case queue.ItemPunct:
		r.pgPuncts++
		if r.trace.Enabled() {
			r.trace.Record("punct", r.node.name(), 0, it.Punct.Pattern.String())
		}
		return op.ProcessPunct(input, *it.Punct, r)
	case queue.ItemEOS:
		if err := op.ProcessEOS(input, r); err != nil {
			return err
		}
		r.inEOS[input] = true
		r.openInputs--
		if r.align != nil {
			// An input at EOS stops constraining alignment — the same
			// rule Merge applies to punctuation alignment (DESIGN.md
			// §5.1).
			return r.maybeCompleteAlignment()
		}
		return nil
	case queue.ItemBarrier:
		return r.onBarrier(input, it.BarrierEpoch())
	}
	return errUnknownItemKind(it.Kind)
}

// errUnknownItemKind keeps the formatting allocation out of the annotated
// processItem hot path; it is only reached on a corrupted page.
func errUnknownItemKind(k queue.ItemKind) error {
	return fmt.Errorf("unknown item kind %d", k)
}

// alignmentStale reports whether the in-progress alignment belongs to a
// checkpoint that is no longer active (cancelled): its missing barriers may
// never arrive, so the freeze must not be held.
func (r *nodeRunner) alignmentStale() bool {
	c := r.graph.pendingChk.Load()
	return c == nil || c.epoch != r.align.epoch
}

// abandonAlignment lifts a cancelled epoch's freeze: the alignment is
// discarded (no cut was or will be taken for it) and the deferred items
// replay in per-input order. A deferred barrier for a newer epoch restarts
// alignment from inside the replay.
func (r *nodeRunner) abandonAlignment() error {
	a := r.align
	r.align = nil
	for in := range a.deferred {
		for i := range a.deferred[in] {
			if err := r.processItem(in, &a.deferred[in][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// onBarrier records a checkpoint barrier's arrival on one input. The
// coordinator admits one checkpoint at a time, so a second epoch can only
// appear after the first completed or was cancelled: a completed epoch's
// alignment is already resolved, so an epoch mismatch always means the
// aligning epoch was cancelled (newer arrival) or this barrier is a
// cancelled epoch's leftover still draining (older arrival — dropped).
func (r *nodeRunner) onBarrier(input int, epoch int64) error {
	if r.nm != nil {
		r.nm.BarriersIn.Add(1)
	}
	if r.trace.Enabled() {
		r.trace.Record("barrier", r.node.name(), epoch, fmt.Sprintf("input %d", input))
	}
	if r.align != nil && r.align.epoch != epoch {
		if epoch < r.align.epoch {
			return nil
		}
		if err := r.abandonAlignment(); err != nil {
			return err
		}
		// Replay may have restarted alignment (a deferred newer barrier);
		// re-enter so this barrier joins whatever state now stands.
		return r.onBarrier(input, epoch)
	}
	if r.align == nil {
		n := len(r.node.inConns)
		r.align = &alignState{epoch: epoch, got: make([]bool, n), deferred: make([][]queue.Item, n)}
	}
	r.align.got[input] = true
	return r.maybeCompleteAlignment()
}

// maybeCompleteAlignment takes the node's cut once every live input has
// delivered the barrier: capture state, forward the barrier ahead of any
// post-barrier output, then replay the buffered post-barrier items.
func (r *nodeRunner) maybeCompleteAlignment() error {
	a := r.align
	for i, got := range a.got {
		if !got && !r.inEOS[i] {
			return nil
		}
	}
	r.align = nil
	// The capture mode travels out-of-band for local edges (the coordinator
	// knows it); a process-boundary forwarder needs it on the wire, so read
	// it off the still-pending checkpoint before this node's ack can retire
	// it. A cancelled epoch defaults to delta — its ack is discarded anyway.
	mode := snapshot.CaptureDelta
	if c := r.graph.pendingChk.Load(); c != nil && c.epoch == a.epoch {
		mode = c.mode
	}
	r.graph.cutNode(r.node, a.epoch)
	for _, c := range r.node.outConns {
		c.PutBarrier(a.epoch)
	}
	if bf, ok := r.node.op.(BarrierForwarder); ok {
		// Process-boundary edges (remote sinks) forward the barrier in-band
		// on their transport, after everything that preceded the cut and
		// before the deferred post-barrier replay below.
		if err := bf.ForwardBarrier(a.epoch, mode, r); err != nil {
			return err
		}
	}
	for in := range a.deferred {
		for i := range a.deferred[in] {
			if err := r.processItem(in, &a.deferred[in][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainControl handles all pending control messages without blocking, each
// output edge's batch in arrival order.
func (r *nodeRunner) drainControl() error {
	for out, c := range r.node.outConns {
		for _, m := range c.PollControl() {
			if err := r.handleControl(out, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *nodeRunner) handleControl(out int, m queue.Control) error {
	switch m.Kind {
	case queue.CtrlFeedback:
		if r.nm != nil {
			r.nm.FeedbackIn.Add(1)
		}
		if r.trace.Enabled() {
			r.trace.Record("feedback", r.node.name(), m.Feedback.Seq, m.Feedback.String())
		}
		if src := r.node.src; src != nil {
			return src.ProcessFeedback(out, m.Feedback, r)
		}
		return r.node.op.ProcessFeedback(out, m.Feedback, r)
	case queue.CtrlShutdown:
		r.shutdownOuts.set(out)
		if r.shutdownOuts.count == len(r.node.outConns) && len(r.node.outConns) > 0 {
			// Every consumer has asked us to stop: stop, and relay the
			// shutdown upstream.
			r.stopping = true
			for _, c := range r.node.inConns {
				c.SendControl(queue.Control{Kind: queue.CtrlShutdown})
			}
		}
		return nil
	}
	return fmt.Errorf("unknown control message kind %d", m.Kind)
}

// ---------------------------------------------------------------------------
// Context implementation.
// ---------------------------------------------------------------------------

// Slab is what exec.Slab finds behind a node's context: a recycled slab that
// the pages receiving the tuples built in it will own.
func (r *nodeRunner) Slab(n int) []stream.Value { return r.node.aliases.Get(n) }

// Emit implements Context.
//
//pace:hotpath
func (r *nodeRunner) Emit(t stream.Tuple) { r.EmitTo(0, t) }

// EmitTo implements Context.
//
//pace:hotpath
func (r *nodeRunner) EmitTo(port int, t stream.Tuple) {
	r.node.outConns[port].PutTuple(t)
}

// EmitBatch implements Context: a run of tuples goes to output port 0 with
// one page-capacity check per chunk instead of per tuple.
//
//pace:hotpath
func (r *nodeRunner) EmitBatch(ts []stream.Tuple) {
	r.node.outConns[0].PutTuples(ts)
}

// EmitBatchTo implements Context: a per-port sub-batch (e.g. one Split
// partition's share of a run) goes out in one call.
//
//pace:hotpath
func (r *nodeRunner) EmitBatchTo(port int, ts []stream.Tuple) {
	r.node.outConns[port].PutTuples(ts)
}

// EmitPunct implements Context.
//
//pace:hotpath
func (r *nodeRunner) EmitPunct(e punct.Embedded) { r.EmitPunctTo(0, e) }

// EmitPunctTo implements Context.
//
//pace:hotpath
func (r *nodeRunner) EmitPunctTo(port int, e punct.Embedded) {
	r.node.outConns[port].PutPunct(e)
}

// SendFeedback implements Context: feedback goes to the producer feeding
// the given input port, against the data direction.
func (r *nodeRunner) SendFeedback(input int, f core.Feedback) {
	if r.nm != nil {
		r.nm.FeedbackOut.Add(1)
	}
	r.node.inConns[input].SendFeedback(f)
}

// ShutdownUpstream implements Context.
func (r *nodeRunner) ShutdownUpstream(input int) {
	r.node.inConns[input].SendControl(queue.Control{Kind: queue.CtrlShutdown})
}

// NumInputs implements Context.
func (r *nodeRunner) NumInputs() int { return len(r.node.inConns) }

// NumOutputs implements Context.
func (r *nodeRunner) NumOutputs() int { return len(r.node.outConns) }
