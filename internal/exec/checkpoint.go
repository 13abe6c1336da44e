package exec

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/snapshot"
)

// Checkpointing: the runtime half of the internal/snapshot subsystem.
//
// A checkpoint (trigger, reached through the coordinator or follower in
// dist.go) injects one barrier epoch at every source; barriers flow in-band
// through the paged queues, the node runner aligns them across inputs
// (runner.go), and each node deposits its phase-1 capture here at its cut.
// The cut is two-phase (DESIGN.md §6.2): at the barrier the node only takes
// a cheap consistent view of its state (snapshot.Stater) and the barrier
// releases immediately; serialization and the chain write happen afterwards
// on a background goroutine, so the stall a checkpoint imposes on the
// pipeline does not scale with state size. Every cut is full: one snapshot
// restores its epoch on its own (DESIGN.md §7).
//
// RestoreChain stages one snapshot on a freshly *rebuilt* plan; each node's
// LoadState runs right after its Open, before any data.

// ErrKilled is the error Run returns after Kill: the graph was stopped
// mid-stream deliberately (crash simulation, operator-initiated teardown).
var ErrKilled = errors.New("exec: graph killed")

// CheckpointStatus reports one checkpoint's outcome; failed background
// encodes/writes surface here.
type CheckpointStatus struct {
	// Epoch identifies the checkpoint. Base is always 0: every cut is full.
	// It stays for callers written when a cut could chain from an earlier
	// epoch.
	//pace:allow-unreached bench/trace.go reads Base; ROADMAP item 1(e) retires it
	Epoch, Base int64
	// Err is the first failure — a capture error, a node death during
	// alignment, an encode error, or a chain-write error; nil means the
	// epoch is durably in its chain.
	Err error
	// BarrierHold is the longest any single node spent in phase-1 capture —
	// the checkpoint's hot-path stall. Encoding time is excluded by
	// construction.
	BarrierHold time.Duration
	// Encode is the background serialization+assembly time; Bytes the
	// encoded snapshot size.
	Encode time.Duration
	Bytes  int
}

// inflight is one in-progress checkpoint.
type inflight struct {
	epoch int64
	chain *snapshot.Chain // where the finisher persists the epoch

	pending  map[NodeID]bool             // nodes that have not cut yet
	cuts     map[NodeID]snapshot.Capture // phase-1 captures; the zero Capture for a stateless node
	err      error                       // first failure; once done closes, the outcome
	hold     time.Duration               // max single-node capture duration
	prevDone chan struct{}               // previous checkpoint's finish ticket
	done     chan struct{}               // closed when finished or superseded
}

// A node that leaves the plan cleanly (source exhausted, downstream
// shutdown) is marked in exitClean; checkpoints taken afterwards use its
// final state as that node's cut — everything the node ever produced has
// already drained past it, so that state composes consistently with later
// cuts of the surviving nodes.

// Kill aborts a running graph: every node shuts down as on a node error and
// Run returns ErrKilled. It is the crash half of the crash-and-recover
// tests and a no-op when the graph is not running.
func (g *Graph) Kill() {
	g.chkMu.Lock()
	kill := g.killFn
	g.chkMu.Unlock()
	if kill != nil {
		kill(ErrKilled)
	}
}

// WaitCheckpoints blocks until every background encode/persist has
// finished.
func (g *Graph) WaitCheckpoints() { g.chkWG.Wait() }

// CheckpointStatuses returns the recorded outcomes, oldest first (the ring
// keeps the most recent 64).
func (g *Graph) CheckpointStatuses() []CheckpointStatus {
	g.chkMu.Lock()
	defer g.chkMu.Unlock()
	return append([]CheckpointStatus(nil), g.statuses...)
}

func (g *Graph) recordStatusLocked(st CheckpointStatus) {
	if len(g.statuses) >= 64 {
		g.statuses = g.statuses[1:]
	}
	g.statuses = append(g.statuses, st)
}

// checkpointAt triggers a checkpoint at an externally assigned epoch — the
// receiving half of a cross-process barrier (a DistFollower's plan must cut
// at the coordinator's epoch number, not its own counter). It returns the
// checkpoint; a duplicate of the still-active epoch (a parallel remote edge
// delivering the same barrier) returns that checkpoint, and nil with a nil
// error means the epoch was already taken — completed or superseded — and
// there is nothing to wait for. The outcome is the checkpoint's err once
// its done closes.
func (g *Graph) checkpointAt(epoch int64, chain *snapshot.Chain) (*inflight, error) {
	if epoch <= 0 {
		return nil, fmt.Errorf("exec: checkpoint: non-positive epoch %d", epoch)
	}
	return g.trigger(epoch, chain)
}

// trigger starts one checkpoint: it registers the epoch so sources inject
// barriers, captures already-exited nodes, and spawns the background
// finisher chain. It returns without waiting for alignment. forceEpoch == 0
// assigns the next local epoch; a positive forceEpoch adopts an external
// (coordinator-assigned) numbering — a duplicate of the active epoch
// returns the active checkpoint, an epoch at or below the newest triggered
// one returns (nil, nil), and a forced epoch newer than a still-active one
// supersedes it (the coordinator has already abandoned the older epoch: its
// ack can no longer matter, and holding its alignment would wedge the plan).
func (g *Graph) trigger(forceEpoch int64, chain *snapshot.Chain) (*inflight, error) {
	g.chkMu.Lock()
	if !g.running {
		g.chkMu.Unlock()
		return nil, fmt.Errorf("exec: checkpoint: graph is not running")
	}
	if g.activeChk != nil {
		switch {
		case forceEpoch == g.activeChk.epoch:
			c := g.activeChk
			g.chkMu.Unlock()
			return c, nil
		case forceEpoch > g.activeChk.epoch:
			g.supersedeLocked(forceEpoch)
		case forceEpoch != 0:
			// A stale wire barrier still draining behind a newer active
			// epoch (a parallel edge finally delivering an epoch the
			// coordinator already abandoned and superseded): drop it — it
			// must not fail the subplan.
			g.chkMu.Unlock()
			return nil, nil
		default:
			g.chkMu.Unlock()
			return nil, fmt.Errorf("exec: checkpoint %d already in progress", g.activeChk.epoch)
		}
	}
	if forceEpoch != 0 && forceEpoch <= g.chkEpoch {
		// Already taken (or numbering moved past it): a duplicate barrier
		// from a second remote edge, or a stale barrier still draining.
		g.chkMu.Unlock()
		return nil, nil
	}
	if forceEpoch != 0 {
		g.chkEpoch = forceEpoch
	} else {
		g.chkEpoch++
	}
	c := &inflight{
		epoch:    g.chkEpoch,
		chain:    chain,
		pending:  make(map[NodeID]bool, len(g.liveNodes)),
		cuts:     make(map[NodeID]snapshot.Capture),
		done:     make(chan struct{}),
		prevDone: g.lastFinish,
	}
	g.lastFinish = c.done
	for id := range g.liveNodes {
		c.pending[id] = true
	}
	// Nodes that already left the plan contribute their exit state,
	// captured now (they are quiescent, so reading them off their
	// goroutine is safe). A node that died — rather than finished — has no
	// consistent cut to offer.
	for _, n := range g.nodes {
		if g.liveNodes[n.id] {
			continue
		}
		if !g.exitClean[n.id] {
			if c.err == nil {
				c.err = fmt.Errorf("exec: node %q died before checkpoint %d", n.name(), c.epoch)
			}
			continue
		}
		cut, err := captureNode(n)
		if err != nil && c.err == nil {
			c.err = err
		}
		c.cuts[n.id] = cut
	}
	g.chkWG.Add(1)
	g.recordEpoch("trigger", c.epoch, "", 0, nil)
	if len(c.pending) == 0 {
		go g.finishCheckpoint(c)
		g.chkMu.Unlock()
		return c, nil
	}
	g.activeChk = c
	g.pendingChk.Store(c)
	g.chkMu.Unlock()
	return c, nil
}

// retirePending clears the pending checkpoint and signals every node's wake:
// a node parked mid-alignment for the retired epoch re-checks
// alignmentStale on waking, so no runner polls a clock for a retirement.
// Called with chkMu held.
func (g *Graph) retirePending() {
	g.pendingChk.Store(nil)
	for _, n := range g.nodes {
		n.wake.Signal()
	}
}

// supersedeLocked abandons the active checkpoint because a newer remote
// epoch arrived. The stale epoch's barriers may still be draining; the
// runners lift their freezes via alignmentStale. Called with chkMu held.
func (g *Graph) supersedeLocked(newer int64) {
	c := g.activeChk
	g.activeChk = nil
	g.retirePending()
	c.err = fmt.Errorf("exec: checkpoint %d superseded by remote epoch %d before completing", c.epoch, newer)
	g.recordStatusLocked(CheckpointStatus{Epoch: c.epoch, BarrierHold: c.hold, Err: c.err})
	g.recordEpoch("abandon", c.epoch, "", c.hold,
		fmt.Errorf("superseded by remote epoch %d", newer))
	close(c.done)
	g.chkWG.Done()
}

// ackNode records one node's capture for the active checkpoint. Stale
// epochs (a superseded checkpoint's barrier still draining) are ignored.
// When the last node acks, the barrier phase is over: the checkpoint
// leaves the coordinator and finishes on a background goroutine.
func (g *Graph) ackNode(id NodeID, epoch int64, cut snapshot.Capture, err error, hold time.Duration) {
	g.chkMu.Lock()
	defer g.chkMu.Unlock()
	c := g.activeChk
	if c == nil || c.epoch != epoch || !c.pending[id] {
		return
	}
	delete(c.pending, id)
	if err != nil && c.err == nil {
		c.err = err
	}
	if hold > c.hold {
		c.hold = hold
	}
	c.cuts[id] = cut
	g.recordEpoch("capture", epoch, g.nodes[id].name(), hold, err)
	if len(c.pending) == 0 {
		g.activeChk = nil
		g.retirePending()
		// Every node has cut: the barrier phase is over. hold is now the
		// longest single-node capture — the checkpoint's pipeline stall.
		g.recordEpoch("barrier-hold", epoch, "", c.hold, nil)
		go g.finishCheckpoint(c)
	}
}

// finishCheckpoint is phase 2: encode every captured view, assemble the
// snapshot, persist it to the chain, and publish the outcome: c.err and the
// status ring. The durable manifest, not this local persist, commits the
// epoch (DESIGN.md §8.2). Finishers chain on prevDone so chain writes land
// in epoch order.
func (g *Graph) finishCheckpoint(c *inflight) {
	defer g.chkWG.Done()
	defer close(c.done)
	if c.prevDone != nil {
		<-c.prevDone
	}
	start := time.Now()
	err := c.err
	var snap *snapshot.Snapshot
	bytes := 0
	if err == nil {
		snap = &snapshot.Snapshot{Epoch: c.epoch}
		for _, n := range g.nodes {
			cut := c.cuts[n.id]
			ns := snapshot.NodeState{ID: int(n.id), Name: n.name()}
			if cut.Encode != nil {
				enc := snapshot.NewEncoder()
				if eerr := cut.Encode(enc); eerr != nil && err == nil {
					err = fmt.Errorf("exec: node %q: encode state: %w", n.name(), eerr)
				}
				blob, berr := enc.Bytes()
				if berr != nil && err == nil {
					err = fmt.Errorf("exec: node %q: encode state: %w", n.name(), berr)
				}
				ns.State = blob
			}
			bytes += len(ns.State)
			snap.Nodes = append(snap.Nodes, ns)
		}
	}
	encodeDur := time.Since(start)
	g.recordEpoch("encode", c.epoch, "", encodeDur, err)
	if err == nil {
		persistStart := time.Now()
		_, werr := c.chain.Put(snap)
		if werr != nil {
			err = fmt.Errorf("exec: checkpoint %d: persist: %w", c.epoch, werr)
		}
		g.recordEpoch("persist", c.epoch, "", time.Since(persistStart), werr)
	}
	g.chkMu.Lock()
	c.err = err
	g.recordStatusLocked(CheckpointStatus{
		Epoch: c.epoch, Err: err, BarrierHold: c.hold, Encode: encodeDur, Bytes: bytes,
	})
	g.chkMu.Unlock()
}

// cutNode captures one node's state for the given epoch (phase 1 only) and
// acks it. It is called on the node's own goroutine at the node's
// consistent cut (barrier alignment for operators, between Next calls for
// sources), before the barrier is forwarded downstream. A capture failure
// poisons the checkpoint but never the stream: checkpointing is auxiliary
// to the plan.
func (g *Graph) cutNode(n *node, epoch int64) {
	g.chkMu.Lock()
	c := g.activeChk
	g.chkMu.Unlock()
	if c == nil || c.epoch != epoch {
		return
	}
	start := time.Now()
	cut, err := captureNode(n)
	g.ackNode(n.id, epoch, cut, err, time.Since(start))
}

// nodeExit retires a node from checkpoint bookkeeping. A clean exit (source
// exhausted, voluntary shutdown) records the node's final state as its cut
// for the active and all future checkpoints; a dying exit (node error,
// Kill) fails the active checkpoint instead — the surviving nodes' cuts
// would not compose with a state captured mid-teardown.
func (g *Graph) nodeExit(n *node, runErr error) {
	dying := runErr != nil
	if !dying {
		select {
		case <-g.failCh:
			dying = true
		default:
		}
	}
	if dying {
		g.chkMu.Lock()
		delete(g.liveNodes, n.id)
		c := g.activeChk
		g.chkMu.Unlock()
		if c != nil {
			g.ackNode(n.id, c.epoch, snapshot.Capture{},
				fmt.Errorf("exec: node %q stopped before checkpoint %d completed", n.name(), c.epoch), 0)
		}
		return
	}
	g.chkMu.Lock()
	delete(g.liveNodes, n.id)
	if g.exitClean == nil {
		g.exitClean = make(map[NodeID]bool)
	}
	g.exitClean[n.id] = true
	c := g.activeChk
	g.chkMu.Unlock()
	if c != nil {
		// The active checkpoint is waiting on this node's ack; it is
		// quiescent now, so capture on the exiting goroutine.
		start := time.Now()
		cut, err := captureNode(n)
		g.ackNode(n.id, c.epoch, cut, err, time.Since(start))
	}
}

// stater returns the node's snapshot participant, or nil.
func (n *node) stater() snapshot.Stater {
	if n.op != nil {
		s, _ := n.op.(snapshot.Stater)
		return s
	}
	s, _ := n.src.(snapshot.Stater)
	return s
}

// captureNode takes one node's phase-1 capture: a view of its state, encoded
// later off the barrier. A node that is not a Stater contributes nothing; one
// whose capture panics fails the checkpoint, not the caller.
func captureNode(n *node) (cut snapshot.Capture, err error) {
	st := n.stater()
	if st == nil {
		return snapshot.Capture{}, nil
	}
	defer func() {
		if err != nil {
			cut, err = snapshot.Capture{}, fmt.Errorf("exec: node %q: capture state: %w", n.name(), err)
		}
	}()
	defer recoverPanic(&err)
	return st.CaptureState(snapshot.CaptureFull)
}

// RestoreChain stages one snapshot: each node's LoadState runs on its blob
// immediately after its Open, before any data. The plan must be rebuilt
// identically (same node order and names); prepare validates the match.
func (g *Graph) RestoreChain(snap *snapshot.Snapshot) error {
	if g.prepared {
		return fmt.Errorf("exec: restore: graph already run")
	}
	staged := make(map[NodeID][]byte, len(snap.Nodes))
	names := make(map[NodeID]string, len(snap.Nodes))
	for _, ns := range snap.Nodes {
		id := NodeID(ns.ID)
		if _, dup := names[id]; dup {
			return fmt.Errorf("exec: restore: snapshot %d lists node %d twice", snap.Epoch, ns.ID)
		}
		names[id] = ns.Name
		staged[id] = ns.State
	}
	g.staged = staged
	g.stagedNames = names
	// Resume epoch numbering from the restored cut, so a recovered run's
	// checkpoints extend the same chain instead of colliding with it.
	g.chkEpoch = snap.Epoch
	return nil
}

// checkStaged validates a staged snapshot against the built plan; called
// from prepare.
func (g *Graph) checkStaged() error {
	if g.stagedNames == nil {
		return nil
	}
	if len(g.stagedNames) != len(g.nodes) {
		return fmt.Errorf("exec: restore: snapshot has %d nodes but the plan has %d (plan drift)",
			len(g.stagedNames), len(g.nodes))
	}
	for id, name := range g.stagedNames {
		if int(id) < 0 || int(id) >= len(g.nodes) {
			return fmt.Errorf("exec: restore: snapshot node %d not in plan", id)
		}
		if got := g.nodes[id].name(); got != name {
			return fmt.Errorf("exec: restore: node %d is %q in the plan but %q in the snapshot (plan drift)",
				id, got, name)
		}
	}
	return nil
}

// restoreNode loads a node's staged blob; called by the runner right after
// Open, before any data or feedback is delivered. A blob must be read whole:
// bytes left over mean its writer and its reader disagree on the layout.
func (g *Graph) restoreNode(n *node) error {
	blob := g.staged[n.id]
	if len(blob) == 0 {
		return nil
	}
	sp := n.stater()
	if sp == nil {
		return fmt.Errorf("exec: restore: node %q carries state but does not implement snapshot.Stater", n.name())
	}
	dec := snapshot.NewDecoder(blob)
	err := sp.LoadState(dec)
	if err == nil {
		err = dec.Err()
	}
	if err == nil && dec.Remaining() > 0 {
		err = fmt.Errorf("%d bytes left unread (a blob of another layout)", dec.Remaining())
	}
	if err != nil {
		return fmt.Errorf("exec: restore: node %q: %w", n.name(), err)
	}
	return nil
}
