package exec

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/stream"

	"repro/internal/punct"
)

// Run executes the plan once every node has opened: one goroutine per chain (a
// source or an operator, and the nodes chained behind it), page rings between
// chains, direct edges inside one, and upstream control queues for feedback.
// It returns after every node has finished (all sources exhausted and all data
// drained), or after the first node error (remaining nodes are shut down).
func (g *Graph) Run() error {
	if err := g.prepare(); err != nil {
		return err
	}
	g.registerTelemetry()
	var (
		wg, opened sync.WaitGroup
		mu         sync.Mutex
		firstMu    sync.Once
		runErr     error
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
	opened.Add(len(g.nodes))
	for _, n := range g.nodes {
		if !n.chained {
			wg.Add(1)
			go g.runChain(n, &opened, &wg)
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
// before anything is handed to it (tail first), then every other chain's.
// Then the head drives the chain: a source calls Next, an operator takes pages
// from its input rings, and every page a member publishes runs through its
// chained consumer on the spot. The head's exit reaches every member still
// running: its EOS, or the aborted graph, ends each one in turn.
func (g *Graph) runChain(head *node, opened, wg *sync.WaitGroup) {
	defer wg.Done()
	chain := head.members
	var err error
	for i := len(chain) - 1; i >= 0 && err == nil; i-- {
		if err = chain[i].do((*nodeRunner).start); err != nil {
			chain[i].exit(err)
		}
	}
	opened.Add(-len(chain))
	opened.Wait()
	r := head.r
	switch {
	case err != nil:
		r.exit(nil)
	case head.src != nil:
		r.exit(r.sourceLoop(chain))
	default:
		r.exit(r.operatorLoop(chain))
	}
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
	// resp is the responder behind the node, if it has one: every
	// punctuation the node emits folds into it (EmitPunctTo).
	resp emitObserver
	// opened: Open succeeded, so Close is owed; exited: exit has run.
	opened, exited bool

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
	r.shutdownOuts = newBitset(len(n.outConns))
	var err error
	if n.src != nil {
		r.resp = responderOf(n.src)
		err = n.src.Open(r)
	} else {
		r.resp = responderOf(n.op)
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
	defer r.graph.recoverPanic(r.node, &err)
	return f(r)
}

// recoverPanic, deferred around a callback of n, turns its panic into its
// error, which names the newest epoch the graph had triggered or adopted (0
// before any), and records it on the epoch timeline (/epochz).
func (g *Graph) recoverPanic(n *node, err *error) {
	if v := recover(); v != nil {
		epoch := g.chkEpoch.Load()
		*err = fmt.Errorf("panic after epoch %d: %v", epoch, v)
		g.recordEpoch("panic", epoch, n.name(), 0, *err)
	}
}

func (r *nodeRunner) sourceLoop(chain []*nodeRunner) error {
	// A source whose stream carries its own barriers (a remote edge) cuts
	// only where one sits (Barrier): a poll-based cut here could land before
	// the edge's barrier and strand that edge's in-flight tuples on the wrong
	// side of the epoch.
	_, ownCuts := r.node.src.(BarrierSource)
	for !r.stopping {
		if err := r.drainChain(chain); err != nil {
			return err
		}
		if r.stopping {
			break
		}
		// Between two Next calls the source's state is exactly its replay
		// position, so saving state and injecting the barrier here makes
		// the source's cut consistent by construction.
		if c := r.graph.pendingChk.Load(); c != nil && !ownCuts {
			r.cutSource(c.epoch)
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

// cutSource captures the source's state as its cut of a newly requested
// epoch and emits the barrier on every output. An epoch it has already cut
// (a cancelled epoch's barrier still draining) is dropped; the forwarded
// barrier is harmless downstream either way.
func (r *nodeRunner) cutSource(epoch int64) {
	if epoch <= r.lastCutEpoch {
		return
	}
	r.lastCutEpoch = epoch
	r.graph.cutNode(r.node, epoch)
	for _, conn := range r.node.outConns {
		conn.PutBarrier(epoch)
	}
}

// Barrier is what exec.Barrier finds behind a source's context: the graph's
// follower registers the epoch with the local coordinator, then the source is
// cut here, at the barrier's position in its stream. A graph with no follower
// is not coordinated: it cannot cut, and the barrier is dropped.
func (r *nodeRunner) Barrier(epoch int64) error {
	df := r.graph.follower
	if df == nil {
		return nil
	}
	if err := df.register(epoch); err != nil {
		return err
	}
	r.cutSource(epoch)
	return nil
}

// operatorLoop is an operator head's loop: the chain's control first, then a
// page from each of the head's open input rings, which runs through the whole
// chain before the next.
func (r *nodeRunner) operatorLoop(chain []*nodeRunner) error {
	for r.openInputs > 0 && !r.stopping {
		if err := r.drainChain(chain); err != nil {
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

// drainChain handles every member's pending control (§5: before data), tail
// first and the head's last: what a member relays upstream reaches its
// producer in the same pass. A member that fails or is told to stop exits.
func (r *nodeRunner) drainChain(chain []*nodeRunner) error {
	for i := len(chain) - 1; i > 0; i-- {
		m := chain[i]
		if m.exited {
			continue
		}
		if err := m.do((*nodeRunner).drainControl); err != nil || m.stopping {
			m.exit(err)
		}
	}
	return r.do((*nodeRunner).drainControl)
}

// deliver is a direct edge's consumer end: the producer's goroutine runs the
// page through this node, and the node's exit when the page ended its input
// or asked it to stop. An aborting graph's pages are not processed.
//
//pace:hotpath
func (r *nodeRunner) deliver(input int, p *queue.Page) {
	select {
	case <-r.done:
		r.exit(nil)
		return
	default:
	}
	if err := r.processPage(input, p); err != nil || r.stopping || r.openInputs == 0 {
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
	defer r.graph.recoverPanic(r.node, &err) //pace:allow-alloc err stays on the stack: recoverPanic keeps no pointer to it (go build -gcflags=-m)
	r.node.aliases.Begin(p)
	err = r.pageLoop(input, p)
	r.node.aliases.End()
	return err
}

//pace:hotpath
func (r *nodeRunner) pageLoop(input int, p *queue.Page) error {
	items := p.Items
	for i := 0; i < len(items); i++ {
		// Re-check control every K items so feedback overtakes pending
		// tuples within a bounded window; with nothing pending the check
		// is one atomic load per output edge.
		if i%DefaultControlInterval == 0 {
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
		return op.ProcessTuple(input, it.Tuple, r)
	case queue.ItemPunct:
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
	return r.replay(a.deferred)
}

// replay processes the items an alignment deferred, input by input, each
// input's in arrival order.
func (r *nodeRunner) replay(deferred [][]queue.Item) error {
	for in := range deferred {
		for i := range deferred[in] {
			if err := r.processItem(in, &deferred[in][i]); err != nil {
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
	r.graph.cutNode(r.node, a.epoch)
	for _, c := range r.node.outConns {
		c.PutBarrier(a.epoch)
	}
	if bf, ok := r.node.op.(BarrierForwarder); ok {
		// Process-boundary edges (remote sinks) forward the barrier in-band
		// on their transport, after everything that preceded the cut and
		// before the deferred post-barrier replay below.
		if err := bf.ForwardBarrier(a.epoch, r); err != nil {
			return err
		}
	}
	return r.replay(a.deferred)
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

// EmitPunctTo implements Context. The punctuation first folds into the
// node's responder (§4.4): the guards it covers on that port are released
// here, for every operator and source alike.
//
//pace:hotpath
func (r *nodeRunner) EmitPunctTo(port int, e punct.Embedded) {
	if r.resp != nil {
		r.resp.Emitted(port, e)
	}
	r.node.outConns[port].PutPunct(e)
}

// emitObserver is the part of a core.Responder the runtime drives.
type emitObserver interface {
	Emitted(port int, e punct.Embedded)
}

// responderOf is the responder behind a node: its operator's or source's own
// (Responding), or the inner operator's of a wrapper that hands it the
// emits (fuse.Prefixed); nil for a node that holds no feedback state.
func responderOf(v any) emitObserver {
	if w, ok := v.(interface{ Inner() Operator }); ok {
		v = w.Inner()
	}
	o, _ := v.(emitObserver)
	return o
}

// SendFeedback implements Context: feedback goes to the producer feeding
// the given input port, against the data direction.
func (r *nodeRunner) SendFeedback(input int, f core.Feedback) {
	r.node.inConns[input].SendFeedback(f)
}

// ShutdownUpstream implements Context.
func (r *nodeRunner) ShutdownUpstream(input int) {
	r.node.inConns[input].SendControl(queue.Control{Kind: queue.CtrlShutdown})
}

// NumInputs implements Context.
func (r *nodeRunner) NumInputs() int { return len(r.node.inConns) }
