package queue

import (
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
}

// Wake is where one goroutine parks. Every ring it consumes from, every ring
// it produces into and every control queue addressed to it signal the same
// capacity-1 channel, so a node is one goroutine with one blocking select. A
// token is a hint to poll again, never a message: all state lives in the
// rings and control queues, and the owner re-polls everything before it
// parks again, so a token consumed for another reason loses nothing.
type Wake struct {
	ch   chan struct{}
	ins  []*Conn // rings the owner consumes from
	outs []*Conn // rings the owner produces into
}

// NewWake creates a parking spot with nothing bound to it.
func NewWake() *Wake { return &Wake{ch: make(chan struct{}, 1)} }

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
// kicks before it parks (Park and a full ring do it) and before anything
// else that may block it (the runtime kicks between two Source.Next calls).
//
//pace:hotpath
func (w *Wake) Kick() {
	for _, c := range w.outs {
		c.kick()
	}
}

// Park blocks the owner, which found every input ring empty, until a token
// arrives (true) or done closes (false). A nil done never fires.
func (w *Wake) Park(done <-chan struct{}) bool {
	for _, c := range w.ins {
		c.noteConsumerPark()
	}
	return w.wait(done)
}

//pace:hotpath
func (w *Wake) wait(done <-chan struct{}) bool {
	w.Kick()
	select {
	case <-w.ch:
		return true
	case <-done:
		return false
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
// PutBarrier, CloseSend) or when its producer is about to park (Wake.Kick); a
// producer parks only on a full ring and is woken when the consumer has
// drained it to half empty, or by Abort. A Conn nobody bound to a node parks
// on Wakes of its own.
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

	cur     *Page    // producer-owned current page
	closed  bool     // producer-owned: CloseSend called
	aliases *Aliases // producer-owned: the slabs the tuples being put may alias

	cons *Wake // where the consumer parks
	prod *Wake // where the producer parks

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
	consumerParks atomic.Int64
	producerParks atomic.Int64
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
	c.mu.Lock()
	for c.n == len(c.ring) && !c.aborted {
		c.prodArmed = true
		c.mu.Unlock()
		c.producerParks.Add(1)
		c.prod.wait(nil)
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

// kick wakes a consumer that parked on this ring before the pages now in it
// were published (see Wake.Kick).
//
//pace:hotpath
func (c *Conn) kick() {
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
		return nil, closed
	}
	p = c.pop()
	c.consArmed = false
	wake := c.prodArmed && c.n <= len(c.ring)-c.half
	if wake {
		c.prodArmed = false
	}
	c.mu.Unlock()
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

func (c *Conn) noteConsumerPark() {
	c.mu.Lock()
	armed := c.consArmed
	c.mu.Unlock()
	if armed {
		c.consumerParks.Add(1)
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

// Stats returns a snapshot of traffic counters.
func (c *Conn) Stats() Stats {
	return Stats{
		Tuples:        c.tuples.Load(),
		Puncts:        c.puncts.Load(),
		Pages:         c.pages.Load(),
		Controls:      c.controls.Load(),
		ConsumerParks: c.consumerParks.Load(),
		ProducerParks: c.producerParks.Load(),
	}
}
