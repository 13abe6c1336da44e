package queue

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// CtrlKind tags upstream control messages (§5: "control messages have two
// fields: a message type ... and the control message").
type CtrlKind uint8

const (
	// CtrlFeedback carries a feedback punctuation upstream.
	CtrlFeedback CtrlKind = iota
	// CtrlShutdown asks the producer to stop producing.
	CtrlShutdown
)

// Control is one upstream control message.
type Control struct {
	Kind     CtrlKind
	Feedback core.Feedback
}

// Options configures one inter-operator connection.
type Options struct {
	// PageSize is the number of items per page (default DefaultPageSize).
	PageSize int
	// Depth is the ring capacity in pages (default 16).
	Depth int
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.Depth <= 0 {
		o.Depth = 16
	}
	return o
}

// DefaultOptions returns the standard connection configuration.
func DefaultOptions() Options {
	return Options{}.withDefaults()
}

// Stats counts traffic over a connection.
type Stats struct {
	Tuples   int64
	Puncts   int64 // each one flushed the page it ended
	Pages    int64
	Controls int64
	// ConsumerParks counts the times the consumer goroutine blocked with
	// this ring empty ("waiting for input"); ProducerParks the times the
	// producer goroutine blocked on this ring full ("blocked on output").
	ConsumerParks int64
	ProducerParks int64
	// ConsumerYields and ProducerYields count the waits on this ring that
	// ended without parking: the peer was running, and what was awaited
	// turned up while the waiter polled for it (Wake.wait).
	ConsumerYields int64
	ProducerYields int64
}

// Wake is where one goroutine waits. Every ring it consumes from, every ring
// it produces into and every control queue addressed to it signal the same
// capacity-1 channel, so a node is one goroutine with one blocking select. A
// token is a hint to poll again, never a message: all state lives in the
// rings and control queues, and the owner re-polls everything before it
// waits again, so a token consumed for another reason — or left behind by a
// wait that ended without it — loses nothing.
type Wake struct {
	ch   chan struct{}
	ins  []*Conn // rings the owner consumes from
	outs []*Conn // rings the owner produces into
	// yield gives the processor away between two polls of a wait; tests
	// put their own in to count the rounds and to act between them.
	yield func()
}

// NewWake creates a waiting spot with nothing bound to it.
func NewWake() *Wake { return &Wake{ch: make(chan struct{}, 1), yield: runtime.Gosched} }

// Signal wakes the owner if it is parked, and otherwise makes its next Park
// return at once. It never blocks and is safe from any goroutine.
//
//pace:hotpath
func (w *Wake) Signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// Kick wakes the consumer of every ring the owner produces into that holds
// pages its parked consumer has not been told about. A wake-up deferred by
// hysteresis is only ever deferred while its producer is running: the owner
// kicks before it waits (Park and a full ring do it) and before anything
// else that may block it (the runtime kicks between two Source.Next calls).
//
//pace:hotpath
func (w *Wake) Kick() {
	for _, c := range w.outs {
		c.kick()
	}
}

// Park makes the owner, which found every input ring empty, wait until an
// input has a page, control is pending on an output or a token arrives
// (true), or done closes (false). A nil done never fires.
func (w *Wake) Park(done <-chan struct{}) bool {
	return w.wait(done, nil)
}

// waitRounds bounds the polling phase of a wait. A round is a tenth of a
// microsecond when nothing else is runnable on the processor and another
// node's activation when something is, so a peer that is running nearly always
// delivers within the budget, and one that is not costs the waiter about 3 µs
// once, then it parks. DESIGN.md §4.1 has the ladder the figure was chosen
// from: more rounds buy little and burn where the peer is slow.
const waitRounds = 30

// budget is the number of polls a wait starting now may take. With a single
// processor a waiter that yields only stands in the run queue in front of
// the peer it waits for, so there it is zero — the one thing sync.Mutex
// consults before it spins, too.
func budget() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return waitRounds
}

// wait is the one place a node waits, for input (full == nil) or for room in
// the ring it found full. It kicks, then polls what it is waiting for while
// its budget lasts, yielding the processor before each poll, and only then
// blocks until a token arrives (true) or done closes (false). The polls
// ignore hysteresis: one page ends a consumer's wait and one slot a
// producer's. They also leave the token alone, so a signal sent meanwhile
// makes one later wait return early, to an owner that polls and waits again.
//
//pace:hotpath
func (w *Wake) wait(done <-chan struct{}, full *Conn) bool {
	w.Kick()
	for n := budget(); n > 0; n-- {
		w.yield()
		if w.ready(full) {
			w.count(full, yielded)
			return true
		}
	}
	w.count(full, parked)
	select {
	case <-w.ch:
		return true
	case <-done:
		return false
	}
}

// ready polls what a wait is for: room in full, or else a page on an input
// ring or control on an output's queue.
//
//pace:hotpath
func (w *Wake) ready(full *Conn) bool {
	if full != nil {
		return full.room()
	}
	for _, c := range w.outs {
		if c.ctrlPending.Load() {
			return true
		}
	}
	for _, c := range w.ins {
		if c.Depth() > 0 {
			return true
		}
	}
	return false
}

// How a wait ended: indexes a ring's wait counters.
const (
	parked = iota
	yielded
)

// count tallies a wait on the rings it was for: full, or else every input
// ring the owner's last take found empty and open.
//
//pace:hotpath
func (w *Wake) count(full *Conn, how int) {
	if full != nil {
		full.producerWaits[how].Add(1)
		return
	}
	for _, c := range w.ins {
		if c.awaited {
			c.consumerWaits[how].Add(1)
		}
	}
}

// Conn is one directed producer→consumer edge: a bounded ring of pages
// flowing downstream and a control queue flowing upstream. The producer side
// is used by exactly one goroutine, the consumer side by exactly one
// goroutine; the two sides are concurrent with each other.
//
// Wake-ups have hysteresis on both sides, which is what makes a page ring
// cheaper than a channel of pages: a consumer parks only on an empty ring and
// is woken when the ring is half full, at once by a forced flush (PutPunct,
// PutBarrier, CloseSend) or when its producer is about to wait (Wake.Kick); a
// producer parks only on a full ring and is woken when the consumer has
// drained it to half empty, or by Abort. Either side polls the ring for a
// bounded while before it parks (Wake.wait), and a running peer's next page
// or free slot ends the wait there, whatever the fill. A Conn nobody bound to
// a node waits on Wakes of its own. A direct Conn (BindDirect) has no ring:
// both ends run on one goroutine, and the consumer processes each page inside
// the put that published it.
//
// The control path is unbounded and never blocks the sender: data flow
// exerts backpressure downstream, so a bounded control channel flowing the
// opposite way could deadlock the plan (A blocked flushing data to B while
// B is blocked sending feedback to A). Control volume is small by
// construction — producers rate-limit feedback — so unboundedness is a
// liveness guarantee, not a memory risk.
type Conn struct {
	opts Options
	half int // ring fill at which a parked peer is woken, from either end

	cur     *Page       // producer-owned current page
	closed  bool        // producer-owned: CloseSend called
	aliases *Aliases    // producer-owned: the slabs the tuples being put may alias
	deliver func(*Page) // a direct edge's consumer; nil for a ring

	cons    *Wake // where the consumer waits
	prod    *Wake // where the producer waits
	awaited bool  // consumer-owned: its last take found the ring empty and open

	mu         sync.Mutex
	ring       []*Page // ring[head], ring[head+1], … hold n published pages
	head, n    int
	sendClosed bool // the EOS page is published: an empty ring stays empty
	aborted    bool // the consumer is gone: pages are dropped, not queued
	consArmed  bool // the consumer found the ring empty and awaits a wake-up
	prodArmed  bool // the producer found the ring full and awaits a wake-up

	ctrlMu      sync.Mutex
	ctrlItems   []Control
	prodDone    bool        // under ctrlMu: producer gone, feedback moot
	ctrlPending atomic.Bool // ctrlItems is non-empty
	ctrlTaken   []Control   // producer-owned: the batch PollControl last returned

	tuples        atomic.Int64
	puncts        atomic.Int64
	pages         atomic.Int64
	controls      atomic.Int64
	consumerWaits [2]atomic.Int64 // by how the wait ended: parked, yielded
	producerWaits [2]atomic.Int64
}

// New creates a connection whose two sides park on Wakes of its own; Bind
// replaces them.
func New(opts Options) *Conn {
	opts = opts.withDefaults()
	c := &Conn{
		opts: opts,
		half: max(1, opts.Depth/2),
		ring: make([]*Page, opts.Depth),
		cur:  GetPage(opts.PageSize),
		// An unbound producer puts tuples that alias no slab.
		aliases: new(Aliases),
	}
	c.Bind(NewWake(), NewWake())
	return c
}

// Bind makes the consumer side park on (and be woken through) consumer and
// the producer side on producer: the runtime passes each node's one Wake to
// all of its edges. Call before the connection is used.
func (c *Conn) Bind(consumer, producer *Wake) {
	c.cons, c.prod = consumer, producer
	consumer.ins = append(consumer.ins, c)
	producer.outs = append(producer.outs, c)
}

// BindDirect makes the connection direct: each page the producer publishes is
// handed to deliver on the producer's goroutine, which waits on producer, and
// deliver may neither keep the page nor put into this connection. Control
// flows upstream as on a ring. Call before the connection is used, instead of
// Bind.
func (c *Conn) BindDirect(producer *Wake, deliver func(*Page)) {
	c.prod, c.deliver, c.ring = producer, deliver, nil
	producer.outs = append(producer.outs, c)
}

// Direct reports whether the connection is direct (BindDirect): depth, parks
// and yields do not apply to it.
func (c *Conn) Direct() bool { return c.deliver != nil }

// BindAliases makes every page the producer fills adopt the slabs a names at
// the moment of the put. Call before the connection is used.
func (c *Conn) BindAliases(a *Aliases) { c.aliases = a }

// ---------------------------------------------------------------------------
// Producer side.
// ---------------------------------------------------------------------------

// adopt makes the current page an owner of the slabs the tuples about to be
// put may alias, once per page and set.
//
//pace:hotpath
func (c *Conn) adopt() {
	if c.cur.stamp != c.aliases.stamp {
		c.cur.adopt(c.aliases)
	}
}

// PutTuple appends a tuple, publishing the page if it fills.
//
//pace:hotpath
func (c *Conn) PutTuple(t stream.Tuple) {
	c.adopt()
	c.cur.AppendTuple(t)
	c.tuples.Add(1)
	if c.cur.Full(c.opts.PageSize) {
		c.push(false)
	}
}

// PutTuples appends a run of tuples, filling the current page chunk by
// chunk: the capacity check and flush decision run once per page of room
// instead of once per tuple. Equivalent to calling PutTuple on each tuple
// in order.
//
//pace:hotpath
func (c *Conn) PutTuples(ts []stream.Tuple) {
	c.tuples.Add(int64(len(ts)))
	for len(ts) > 0 {
		room := c.opts.PageSize - c.cur.Len()
		if room <= 0 {
			c.push(false)
			continue
		}
		if room > len(ts) {
			room = len(ts)
		}
		c.adopt()
		c.cur.AppendTuples(ts[:room])
		ts = ts[room:]
	}
	if c.cur.Full(c.opts.PageSize) {
		c.push(false)
	}
}

// PutPunct appends embedded punctuation. Punctuation publishes the page and
// wakes a parked consumer whatever the ring's fill (NiagaraST behaviour), so
// that progress information is never stuck behind a partially-filled page
// or a partially-filled ring.
//
//pace:hotpath
func (c *Conn) PutPunct(e punct.Embedded) {
	c.cur.AppendPunct(&e) //pace:allow-alloc puncts are rare and boxed by design: the Item slot stores a pointer
	c.puncts.Add(1)
	c.push(true)
}

// PutBarrier appends a checkpoint barrier and publishes unconditionally: the
// barrier marks a cut of the stream, so it must reach the consumer without
// waiting behind a partially-filled page or ring.
func (c *Conn) PutBarrier(epoch int64) {
	c.cur.Append(BarrierItem(epoch))
	c.push(true)
}

// push publishes the current page into the ring, parking while the ring is
// full, and draws the replacement from the recycling pool. A parked consumer
// is woken when the ring reaches half full, or whatever the fill when forced.
// If the consumer has aborted the connection, the page is recycled instead.
//
//pace:hotpath
func (c *Conn) push(forced bool) {
	p := c.cur
	c.pages.Add(1)
	if c.deliver != nil {
		c.handOff(p)
		return
	}
	c.mu.Lock()
	for c.n == len(c.ring) && !c.aborted {
		c.prodArmed = true
		c.mu.Unlock()
		c.prod.wait(nil, c)
		c.mu.Lock()
	}
	if c.aborted {
		c.mu.Unlock()
		Release(p)
	} else {
		i := c.head + c.n
		if i >= len(c.ring) {
			i -= len(c.ring)
		}
		c.ring[i] = p
		c.n++
		c.sendClosed = c.closed // the EOS page is the last one
		wake := c.consArmed && (forced || c.n >= c.half)
		if wake {
			c.consArmed = false
		}
		c.mu.Unlock()
		if wake {
			c.cons.Signal()
		}
	}
	c.cur = GetPage(c.opts.PageSize)
}

// handOff is push on a direct edge: the consumer processes the page before it
// returns, and the page, emptied, is the next one to fill. Both ends run on
// one goroutine, so nothing is locked and nothing waits; a consumer that has
// aborted is handed nothing.
//
//pace:hotpath
func (c *Conn) handOff(p *Page) {
	if !c.aborted {
		c.deliver(p)
	}
	p.Reset()
}

// kick wakes a consumer that parked on this ring before the pages now in it
// were published (see Wake.Kick).
//
//pace:hotpath
func (c *Conn) kick() {
	if c.deliver != nil {
		return
	}
	c.mu.Lock()
	wake := c.consArmed && c.n > 0
	if wake {
		c.consArmed = false
	}
	c.mu.Unlock()
	if wake {
		c.cons.Signal()
	}
}

// CloseSend appends EOS, publishes, and closes the producer side. It must be
// the producer's final call.
func (c *Conn) CloseSend() {
	if c.closed {
		return
	}
	c.closed = true
	c.cur.Append(EOSItem())
	c.push(true)
	Release(c.cur)
	c.cur = nil
	c.ctrlMu.Lock()
	c.prodDone = true
	c.ctrlMu.Unlock()
}

// PollControl returns every pending upstream control message, oldest first,
// without blocking. The batch is swapped out whole under the lock; it is
// valid until the next PollControl call, which clears it (so delivered
// feedback and its predicate slices are released) and reuses it as the
// queue's backing array.
func (c *Conn) PollControl() []Control {
	if !c.ctrlPending.Load() {
		return nil
	}
	spare := c.ctrlTaken
	clear(spare)
	c.ctrlMu.Lock()
	batch := c.ctrlItems
	c.ctrlItems = spare[:0]
	c.ctrlPending.Store(false)
	c.ctrlMu.Unlock()
	c.ctrlTaken = batch
	return batch
}

// ---------------------------------------------------------------------------
// Consumer side.
// ---------------------------------------------------------------------------

// take pops the oldest published page. On an empty ring it arms the
// consumer's wake-up — unless the producer has closed, which it reports.
//
//pace:hotpath
func (c *Conn) take() (p *Page, closed bool) {
	c.mu.Lock()
	if c.n == 0 {
		closed = c.sendClosed || c.aborted
		c.consArmed = !closed
		c.mu.Unlock()
		c.awaited = !closed
		return nil, closed
	}
	p = c.pop()
	c.consArmed = false
	wake := c.prodArmed && c.n <= len(c.ring)-c.half
	if wake {
		c.prodArmed = false
	}
	c.mu.Unlock()
	c.awaited = false
	if wake {
		c.prod.Signal()
	}
	return p, false
}

// pop removes the oldest page of a non-empty ring; the caller holds mu.
//
//pace:hotpath
func (c *Conn) pop() *Page {
	p := c.ring[c.head]
	c.ring[c.head] = nil
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	return p
}

// TryRecv returns the next page, or nil if none is published right now. After
// a nil the consumer is armed: the ring reaching half full, a forced flush or
// its producer parking signals the consumer's Wake.
//
//pace:hotpath
func (c *Conn) TryRecv() *Page {
	p, _ := c.take()
	return p
}

// Recv blocks for the next page; ok=false after the producer closed and all
// pages were consumed.
func (c *Conn) Recv() (*Page, bool) {
	for {
		p, closed := c.take()
		if p != nil {
			return p, true
		}
		if closed {
			return nil, false
		}
		c.cons.Park(nil)
	}
}

// SendControl enqueues an upstream control message and wakes the producer
// if it is parked. It never blocks (see the Conn doc comment) and is safe
// from any goroutine; after the producer has finished the message is
// dropped as moot.
func (c *Conn) SendControl(m Control) {
	c.ctrlMu.Lock()
	if c.prodDone {
		c.ctrlMu.Unlock()
		return
	}
	c.ctrlItems = append(c.ctrlItems, m)
	c.ctrlPending.Store(true)
	c.ctrlMu.Unlock()
	c.controls.Add(1)
	c.prod.Signal()
}

// SendFeedback is shorthand for SendControl with a feedback message.
func (c *Conn) SendFeedback(f core.Feedback) {
	c.SendControl(Control{Kind: CtrlFeedback, Feedback: f})
}

// Abort tells the producer the consumer will read no more pages: queued
// pages are recycled, and a parked or future push drops its page instead of
// waiting. Called by the runtime when a consumer stops (end of stream,
// shutdown or error).
func (c *Conn) Abort() {
	c.mu.Lock()
	c.aborted = true
	for c.n > 0 {
		Release(c.pop())
	}
	c.prodArmed = false
	c.mu.Unlock()
	c.prod.Signal()
}

// Depth reports the number of pages currently buffered in the ring — the
// backpressure gauge telemetry scrapes. Safe from any goroutine.
func (c *Conn) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// room is a waiting producer's poll. A slot it finds was not signalled, so it
// disarms the wake-up the way take does for a consumer that found a page.
// Abort empties the ring: the producer of an aborted connection finds room.
//
//pace:hotpath
func (c *Conn) room() bool {
	c.mu.Lock()
	ok := c.n < len(c.ring)
	if ok {
		c.prodArmed = false
	}
	c.mu.Unlock()
	return ok
}

// Stats returns a snapshot of traffic counters.
func (c *Conn) Stats() Stats {
	return Stats{
		Tuples:         c.tuples.Load(),
		Puncts:         c.puncts.Load(),
		Pages:          c.pages.Load(),
		Controls:       c.controls.Load(),
		ConsumerParks:  c.consumerWaits[parked].Load(),
		ProducerParks:  c.producerWaits[parked].Load(),
		ConsumerYields: c.consumerWaits[yielded].Load(),
		ProducerYields: c.producerWaits[yielded].Load(),
	}
}
