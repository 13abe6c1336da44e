package exec

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/snapshot"
)

// Checkpoint coordination (DESIGN.md §8): the one owner of cutting and
// restoring. A plan is a set of subplans joined by remote edges — one
// subplan, no edges, for a single-process run, which is this protocol with
// zero followers; a consistent cut needs every subplan to checkpoint the
// same epoch, aligned by barriers that cross the process boundary in-band
// (Chandy–Lamport over the data channel, as in Flink's asynchronous barrier
// snapshotting):
//
//   - the coordinator process triggers epoch N locally; its barriers flow
//     through the subplan and each remote sink forwards the barrier as a
//     wire frame after everything that preceded the cut (BarrierForwarder);
//   - the follower process's remote source hands the wire barrier to the
//     runtime (Barrier), whose follower registers the epoch with the local
//     coordinator (Graph.checkpointAt), which cuts the downstream subplan at
//     the same epoch number;
//   - each subplan persists its own snapshot.Chain locally and the follower
//     acks (epoch, chain id) over a dedicated control connection;
//   - the coordinator commits a snapshot.DistManifest only after its own
//     persist and every follower's ack; a missing or failed ack abandons
//     the epoch — no manifest, no commit message — and the next epoch is
//     cut as if it had never been tried.
//
// Restore inverts commit: the coordinator picks the newest intact committed
// manifest, truncates its local chain past that epoch, restores from it, and
// tells each follower (in the startup handshake) which epoch to restore;
// followers truncate uncommitted local epochs the same way (restoreAt).

// BarrierForwarder is implemented by sink operators that carry the stream
// across a process boundary: the runtime calls ForwardBarrier at the
// operator's barrier-aligned cut, after all pre-cut items have been handed
// to it and before any post-cut item, so the wire preserves the barrier's
// in-band position.
type BarrierForwarder interface {
	ForwardBarrier(epoch int64, ctx Context) error
}

// BarrierSource is a Source whose stream carries checkpoint barriers of its
// own (remote.Source: the wire barriers its peer's sink forwards). It hands
// each to the runtime with Barrier at the barrier's position in its stream,
// and is cut there and nowhere else. This matters precisely for parallel
// remote edges: each edge's source must cut where ITS barrier sits in ITS
// stream — cutting a second edge early (at whatever position it had reached
// when the first edge's barrier registered the epoch) would classify that
// edge's in-flight tuples as post-cut locally while the producer already
// counted them as sent, losing them on recovery. Such a source is therefore
// never cut at the poll position local sources use.
type BarrierSource interface {
	Source
	CutsAtBarrier()
}

// Barrier hands the runtime a checkpoint barrier a BarrierSource read at
// this point of its stream, from inside Next: under the Graph runtime the
// graph's DistFollower registers the epoch and the source is cut here. Under
// a graph with no follower, or any other context, the barrier is dropped —
// an uncoordinated consumer cannot cut, and the producer's coordinator
// abandons the epoch when its ack never arrives. The error is malformed
// coordination, which stops the subplan.
func Barrier(ctx Context, epoch int64) error {
	if b, ok := ctx.(interface{ Barrier(epoch int64) error }); ok {
		return b.Barrier(epoch)
	}
	return nil
}

// distPeer is one control connection with serialized writes.
type distPeer struct {
	part string
	conn net.Conn
	mu   sync.Mutex
}

func (p *distPeer) send(m snapshot.DistMsg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return snapshot.WriteDistMsg(p.conn, m)
}

// distAck is one follower acknowledgement routed to the coordinator loop.
type distAck struct {
	part string
	msg  snapshot.DistMsg
}

// DistCoordinator drives checkpoints for the subplan that owns the sources:
// it initiates epochs, collects follower acks, and commits manifests. Usage:
// NewDistCoordinator → RestoreCommitted → AddFollower per control connection
// (none for a single-process plan) → RunCheckpointed or CheckpointOnce.
type DistCoordinator struct {
	g     *Graph
	part  string
	chain *snapshot.Chain
	log   *snapshot.DistLog

	// AckTimeout bounds how long one epoch waits for follower acks before
	// being abandoned (default 10s).
	AckTimeout time.Duration

	mu        sync.Mutex
	peers     []*distPeer
	committed int64
	restored  bool
	degraded  []snapshot.Fallback
	acks      chan distAck
}

// NewDistCoordinator wraps a built (not yet run) graph. part names this
// subplan in manifests; chain is its local checkpoint chain; log is the
// manifest store (it may share chain's backend).
func NewDistCoordinator(g *Graph, part string, chain *snapshot.Chain, log *snapshot.DistLog) *DistCoordinator {
	return &DistCoordinator{g: g, part: part, chain: chain, log: log, acks: make(chan distAck, 256)}
}

// CommittedEpoch reports the newest committed distributed epoch.
func (dc *DistCoordinator) CommittedEpoch() int64 {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.committed
}

// restoreAt rewinds one subplan to a stored cut: every epoch its chain holds
// past the given one goes — persisted but never committed, or walked past as
// damaged — and the snapshot of the given epoch is staged on the (rebuilt)
// graph. Epoch 0 empties the chain and stages nothing: a cold start, whose
// epoch numbering restarts from 1.
func restoreAt(g *Graph, chain *snapshot.Chain, epoch int64) error {
	if err := chain.TruncateAfter(epoch); err != nil || epoch == 0 {
		return err
	}
	snap, err := chain.ChainFor(epoch)
	if err != nil {
		return err
	}
	return g.RestoreChain(snap)
}

// RestoreCommitted stages the newest committed cut on the coordinator's own
// (rebuilt) subplan. ok=false means no commit is restorable — a cold start;
// a chain with no manifest is one, whatever it holds.
//
// Damage degrades instead of failing: a corrupt manifest, or a committed
// epoch whose snapshot is ErrCorruptSnapshot, is walked past to the next
// older commit — each epoch restores on its own — and reported via Degraded;
// the manifests above the one chosen are truncated with the chain — they can
// never be restored again, and leaving them would make every re-commit of
// those epochs fail the log's ascending-order check. Non-corruption failures
// (backend I/O, a missing snapshot) still fail loudly, and leave AddFollower
// refusing.
func (dc *DistCoordinator) RestoreCommitted() (ok bool, err error) {
	epochs, err := dc.log.Epochs()
	if err != nil {
		return false, err
	}
	var skipped []snapshot.Fallback
	for i := len(epochs); ; i-- {
		var epoch int64 // past the oldest commit: wipe both, start cold
		if i > 0 {
			epoch = epochs[i-1]
		}
		err := dc.rewindTo(epoch)
		if epoch != 0 && errors.Is(err, snapshot.ErrCorruptSnapshot) {
			skipped = append(skipped, snapshot.Fallback{Epoch: epoch, Err: err})
			continue
		}
		if err != nil {
			return false, err
		}
		dc.mu.Lock()
		dc.committed, dc.degraded, dc.restored = epoch, skipped, true
		dc.mu.Unlock()
		return epoch != 0, nil
	}
}

// rewindTo makes epoch the newest cut the log and the chain hold, and stages
// it. The manifests go first: a crash between the two truncations leaves
// chain epochs without a manifest, which the next restore drops — never a
// manifest without its chain, which would fail every restore after it.
func (dc *DistCoordinator) rewindTo(epoch int64) error {
	if epoch != 0 {
		if _, err := dc.log.At(epoch); err != nil {
			return err
		}
	}
	if err := dc.log.TruncateAfter(epoch); err != nil {
		return err
	}
	return restoreAt(dc.g, dc.chain, epoch)
}

// Degraded reports the committed cuts RestoreCommitted walked past because
// of storage damage (newest first); empty on a clean restore.
func (dc *DistCoordinator) Degraded() []snapshot.Fallback {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.degraded
}

// AddFollower runs the coordinator's half of the startup handshake on one
// control connection: read the follower's hello, reply with the committed
// epoch it must restore from, and start relaying its acks. It must run
// after a successful RestoreCommitted (the handshake reply is the committed
// epoch, and a follower obeys it by truncating its chain) and before
// RunCheckpointed. Returns the follower's part name.
func (dc *DistCoordinator) AddFollower(ctrl net.Conn) (string, error) {
	dc.mu.Lock()
	restored := dc.restored
	dc.mu.Unlock()
	if !restored {
		return "", fmt.Errorf("exec: dist: RestoreCommitted must succeed before AddFollower")
	}
	hello, err := snapshot.ReadDistMsg(ctrl)
	if err != nil {
		return "", fmt.Errorf("exec: dist: handshake read: %w", err)
	}
	if hello.Kind != snapshot.DistHello || hello.Part == "" {
		return "", fmt.Errorf("exec: dist: handshake: expected hello with part name, got kind %d part %q", hello.Kind, hello.Part)
	}
	dc.mu.Lock()
	for _, p := range dc.peers {
		if p.part == hello.Part {
			dc.mu.Unlock()
			return "", fmt.Errorf("exec: dist: duplicate follower part %q", hello.Part)
		}
	}
	committed := dc.committed
	p := &distPeer{part: hello.Part, conn: ctrl}
	dc.peers = append(dc.peers, p)
	dc.mu.Unlock()
	if err := p.send(snapshot.DistMsg{Kind: snapshot.DistRestore, Epoch: committed}); err != nil {
		return "", fmt.Errorf("exec: dist: handshake reply: %w", err)
	}
	go dc.readAcks(p)
	return hello.Part, nil
}

// readAcks relays one peer's acks into the coordinator loop until the
// connection closes.
func (dc *DistCoordinator) readAcks(p *distPeer) {
	for {
		m, err := snapshot.ReadDistMsg(p.conn)
		if err != nil {
			return
		}
		if m.Kind != snapshot.DistAck {
			continue
		}
		select {
		case dc.acks <- distAck{part: p.part, msg: m}:
		default:
			// One epoch is in flight at a time and the buffer holds far more
			// than one ack per peer; a full channel means only stale acks can
			// be pending, which the loop would discard anyway.
		}
	}
}

// CheckpointOnce takes one checkpoint end to end: trigger the local epoch,
// wait for the local persist, collect every follower's ack, commit the
// manifest, and announce the commit. The error covers abandoned epochs
// (local failure, follower failure, ack timeout) — the plan keeps running
// either way. The mode is ignored: every cut is full.
func (dc *DistCoordinator) CheckpointOnce(snapshot.CaptureMode) (int64, error) {
	c, err := dc.g.trigger(0, dc.chain)
	if err != nil {
		return 0, err
	}
	<-c.done
	return c.epoch, dc.finishEpoch(c.epoch, nil)
}

// finishEpoch runs the ack/commit half for a locally finished epoch; stop
// (may be nil) aborts the wait early on shutdown. Each follower ack, the
// manifest commit, and any abandonment are recorded into the graph's epoch
// timeline on top of the local capture/persist events.
func (dc *DistCoordinator) finishEpoch(epoch int64, stop <-chan struct{}) (err error) {
	defer func() {
		if err != nil {
			dc.g.recordEpoch("abandon", epoch, dc.part, 0, err)
		}
	}()
	st, ok := dc.g.checkpointStatus(epoch)
	switch {
	case !ok:
		return fmt.Errorf("exec: dist: epoch %d has no recorded outcome", epoch)
	case st.Err != nil:
		return fmt.Errorf("exec: dist: epoch %d abandoned: %w", epoch, st.Err)
	}
	dc.mu.Lock()
	peers := append([]*distPeer(nil), dc.peers...)
	dc.mu.Unlock()
	parts := []snapshot.DistPart{{Part: dc.part, Epoch: epoch, Chain: snapshot.IDFor(epoch)}}
	pending := make(map[string]bool, len(peers))
	for _, p := range peers {
		pending[p.part] = true
	}
	timeout := dc.AckTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for len(pending) > 0 {
		select {
		case a := <-dc.acks:
			if a.msg.Epoch != epoch || !pending[a.part] {
				continue // stale epoch or duplicate: discard
			}
			if a.msg.Err != "" {
				return fmt.Errorf("exec: dist: epoch %d abandoned: part %q failed to persist: %s", epoch, a.part, a.msg.Err)
			}
			delete(pending, a.part)
			parts = append(parts, snapshot.DistPart{Part: a.part, Epoch: epoch, Chain: a.msg.Chain})
			dc.g.recordEpoch("ack", epoch, a.part, 0, nil)
		case <-timer.C:
			missing := make([]string, 0, len(pending))
			for part := range pending {
				missing = append(missing, part)
			}
			return fmt.Errorf("exec: dist: epoch %d abandoned: no ack from %v within %v", epoch, missing, timeout)
		case <-stop:
			return fmt.Errorf("exec: dist: epoch %d abandoned: shutdown while awaiting acks", epoch)
		}
	}
	if err := dc.log.Commit(&snapshot.DistManifest{Epoch: epoch, Parts: parts}); err != nil {
		return fmt.Errorf("exec: dist: epoch %d abandoned: commit manifest: %w", epoch, err)
	}
	dc.mu.Lock()
	dc.committed = epoch
	dc.mu.Unlock()
	dc.g.recordEpoch("commit", epoch, dc.part, 0, nil)
	for _, p := range peers {
		// Best-effort: a follower that misses the commit notice only delays
		// its local retention; the durable manifest is the commit.
		_ = p.send(snapshot.DistMsg{Kind: snapshot.DistCommit, Epoch: epoch})
	}
	return nil
}

// DistFollower is the checkpoint glue for a subplan that receives its
// stream over remote edges: it restores from the coordinator-committed
// epoch at startup, turns incoming wire barriers into forced-epoch local
// checkpoints, and acks each persisted epoch over the control connection.
// Usage: build the graph → NewDistFollower → Handshake → Run.
type DistFollower struct {
	g     *Graph
	part  string
	chain *snapshot.Chain
	peer  *distPeer

	// Retain keeps the newest N local epochs after each commit notice
	// (0 keeps everything). Retention keyed to commits can never collect
	// the epoch a restore will target.
	Retain int

	mu         sync.Mutex
	committed  int64
	ackSpawned int64 // newest epoch with an ack watcher; dedups parallel edges
}

// NewDistFollower wraps a built (not yet run) graph and becomes its
// follower: every barrier a BarrierSource in it hands the runtime registers
// here (register).
func NewDistFollower(g *Graph, part string, chain *snapshot.Chain, ctrl net.Conn) *DistFollower {
	df := &DistFollower{g: g, part: part, chain: chain, peer: &distPeer{part: part, conn: ctrl}}
	g.follower = df
	return df
}

// CommittedEpoch reports the newest epoch the coordinator announced as
// committed (including the one restored from at startup).
func (df *DistFollower) CommittedEpoch() int64 {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.committed
}

// Handshake runs the follower's half of the startup protocol: report the
// part name and local chain head, then restore from the epoch the
// coordinator designates (restoreAt). It is strict where the coordinator
// degrades: the designated epoch is the only one every part holds, so a
// damaged local chain fails the handshake. restored=false means cold start.
func (df *DistFollower) Handshake() (restored bool, err error) {
	head, _, err := df.chain.LatestEpoch()
	if err != nil {
		return false, err
	}
	if err := df.peer.send(snapshot.DistMsg{Kind: snapshot.DistHello, Part: df.part, Epoch: head}); err != nil {
		return false, fmt.Errorf("exec: dist: handshake hello: %w", err)
	}
	m, err := snapshot.ReadDistMsg(df.peer.conn)
	if err != nil {
		return false, fmt.Errorf("exec: dist: handshake read: %w", err)
	}
	if m.Kind != snapshot.DistRestore {
		return false, fmt.Errorf("exec: dist: handshake: expected restore directive, got kind %d", m.Kind)
	}
	if err := restoreAt(df.g, df.chain, m.Epoch); err != nil {
		return false, err
	}
	df.mu.Lock()
	df.committed = m.Epoch
	df.mu.Unlock()
	return m.Epoch != 0, nil
}

// register starts this subplan's cut of the coordinator's epoch when a
// source hands the runtime a barrier (Barrier), and acks once the epoch is
// durable. It returns an error only for malformed coordination (which
// surfaces as a node error and stops the subplan); checkpoint failures are
// acked with Err instead, so the coordinator abandons the epoch while the
// stream keeps flowing.
func (df *DistFollower) register(epoch int64) error {
	done, err := df.g.checkpointAt(epoch, df.chain)
	if err != nil {
		return err
	}
	if done == nil {
		return nil // stale barrier (epoch already completed or superseded)
	}
	// Parallel remote edges deliver the same epoch once each and each gets
	// the active checkpoint's channel back; exactly one ack watcher runs.
	df.mu.Lock()
	if epoch <= df.ackSpawned {
		df.mu.Unlock()
		return nil
	}
	df.ackSpawned = epoch
	df.mu.Unlock()
	go func() {
		<-done
		ack := snapshot.DistMsg{Kind: snapshot.DistAck, Part: df.part, Epoch: epoch}
		st, ok := df.g.checkpointStatus(epoch)
		switch {
		case !ok:
			ack.Err = "checkpoint outcome unknown"
		case st.Err != nil:
			ack.Err = st.Err.Error()
		default:
			ack.Chain = snapshot.IDFor(epoch)
		}
		// Best-effort: an unsendable ack is indistinguishable from a missing
		// one, and the coordinator abandons the epoch either way.
		_ = df.peer.send(ack)
	}()
	return nil
}

// Run executes the follower subplan while watching the control connection
// for commit notices (which drive local retention). It returns the plan's
// error after all background checkpoint work has drained; the caller owns
// closing the control connection afterwards.
func (df *DistFollower) Run() error {
	go func() {
		for {
			m, err := snapshot.ReadDistMsg(df.peer.conn)
			if err != nil {
				return // connection closed: coordinator gone or shutdown
			}
			if m.Kind != snapshot.DistCommit {
				continue
			}
			df.mu.Lock()
			df.committed = m.Epoch
			df.mu.Unlock()
			// Retention is keyed to the committed epoch: epochs already
			// persisted beyond it stay (a later restore may target this
			// commit after truncating them).
			_ = df.chain.RetainFrom(m.Epoch, df.Retain)
		}
	}()
	err := df.g.Run()
	df.g.WaitCheckpoints()
	return err
}
