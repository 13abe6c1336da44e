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
	// Depth is the data channel capacity in pages (default 16).
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
}

// Conn is one directed producer→consumer edge: a paged data queue flowing
// downstream and a control channel flowing upstream. The producer side is
// used by exactly one goroutine, the consumer side by exactly one
// goroutine; the two sides are concurrent with each other.
//
// The control path is unbounded and never blocks the sender: data flow
// exerts backpressure downstream, so a bounded control channel flowing the
// opposite way could deadlock the plan (A blocked flushing data to B while
// B is blocked sending feedback to A). Control volume is small by
// construction — producers rate-limit feedback — so unboundedness is a
// liveness guarantee, not a memory risk.
type Conn struct {
	opts     Options
	data     chan *Page
	stop     chan struct{} // closed by Abort: consumer gone, stop blocking
	prodDone chan struct{} // closed by CloseSend: producer gone, feedback moot
	cur      *Page         // producer-owned current page
	closed   bool          // producer-side: CloseSend called

	ctrlMu     sync.Mutex
	ctrlItems  []Control
	ctrlNotify chan struct{} // capacity 1: "queue may be non-empty"

	tuples   atomic.Int64
	puncts   atomic.Int64
	pages    atomic.Int64
	controls atomic.Int64
}

// New creates a connection.
func New(opts Options) *Conn {
	opts = opts.withDefaults()
	return &Conn{
		opts:       opts,
		data:       make(chan *Page, opts.Depth),
		ctrlNotify: make(chan struct{}, 1),
		stop:       make(chan struct{}),
		prodDone:   make(chan struct{}),
		cur:        GetPage(opts.PageSize),
	}
}

// ---------------------------------------------------------------------------
// Producer side.
// ---------------------------------------------------------------------------

// PutTuple appends a tuple, flushing the page if it fills.
//
//pace:hotpath
func (c *Conn) PutTuple(t stream.Tuple) {
	c.cur.AppendTuple(t)
	c.tuples.Add(1)
	if c.cur.Full(c.opts.PageSize) {
		c.Flush()
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
			c.Flush()
			continue
		}
		if room > len(ts) {
			room = len(ts)
		}
		c.cur.AppendTuples(ts[:room])
		ts = ts[room:]
	}
	if c.cur.Full(c.opts.PageSize) {
		c.Flush()
	}
}

// PutPunct appends embedded punctuation. Punctuation flushes the page
// (NiagaraST behaviour) so that progress information is never stuck behind
// a partially-filled page.
//
//pace:hotpath
func (c *Conn) PutPunct(e punct.Embedded) {
	c.cur.AppendPunct(&e) //pace:allow-alloc puncts are rare and boxed by design: the Item slot stores a pointer
	c.puncts.Add(1)
	c.Flush()
}

// PutBarrier appends a checkpoint barrier and flushes unconditionally: the
// barrier marks a cut of the stream, so it must reach the consumer without
// waiting behind a partially-filled page.
func (c *Conn) PutBarrier(epoch int64) {
	c.cur.Append(BarrierItem(epoch))
	c.Flush()
}

// Flush sends the current page downstream if non-empty, drawing the
// replacement from the recycling pool. If the consumer has aborted the
// connection, the page is recycled instead of blocking.
//
//pace:hotpath
func (c *Conn) Flush() {
	if c.cur.Len() == 0 {
		return
	}
	c.pages.Add(1)
	select {
	case c.data <- c.cur:
	case <-c.stop:
		Release(c.cur)
	}
	c.cur = GetPage(c.opts.PageSize)
}

// CloseSend appends EOS, flushes, and closes the data channel. It must be
// the producer's final call.
func (c *Conn) CloseSend() {
	if c.closed {
		return
	}
	c.closed = true
	c.cur.Append(EOSItem())
	c.pages.Add(1)
	select {
	case c.data <- c.cur:
	case <-c.stop:
		Release(c.cur)
	}
	c.cur = nil
	close(c.data)
	close(c.prodDone)
}

// PollControl drains one pending upstream control message without blocking.
func (c *Conn) PollControl() (Control, bool) {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	if len(c.ctrlItems) == 0 {
		return Control{}, false
	}
	m := c.ctrlItems[0]
	c.ctrlItems = c.ctrlItems[1:]
	return m, true
}

// ControlNotify returns a channel that receives a token whenever the
// control queue may have become non-empty; producers select on it and then
// drain with PollControl.
func (c *Conn) ControlNotify() <-chan struct{} { return c.ctrlNotify }

// ---------------------------------------------------------------------------
// Consumer side.
// ---------------------------------------------------------------------------

// Recv blocks for the next page; ok=false after the producer closed and all
// pages were consumed.
func (c *Conn) Recv() (*Page, bool) {
	p, ok := <-c.data
	return p, ok
}

// DataChan exposes the data channel for select loops (consumer side).
func (c *Conn) DataChan() <-chan *Page { return c.data }

// SendControl enqueues an upstream control message. It never blocks (see
// the Conn doc comment); after the producer has finished the message is
// dropped as moot.
func (c *Conn) SendControl(m Control) {
	select {
	case <-c.prodDone:
		return
	default:
	}
	c.controls.Add(1)
	c.ctrlMu.Lock()
	c.ctrlItems = append(c.ctrlItems, m)
	c.ctrlMu.Unlock()
	select {
	case c.ctrlNotify <- struct{}{}:
	default:
	}
}

// SendFeedback is shorthand for SendControl with a feedback message.
func (c *Conn) SendFeedback(f core.Feedback) {
	c.SendControl(Control{Kind: CtrlFeedback, Feedback: f})
}

// Abort tells the producer the consumer will read no more pages; blocked
// and future Flush/CloseSend calls drop their pages instead of waiting.
// Called by the runtime when a consumer stops early (shutdown or error).
// Idempotency is the caller's responsibility (the runtime aborts each
// connection exactly once).
func (c *Conn) Abort() { close(c.stop) }

// Depth reports the number of pages currently buffered in the data
// channel — the backpressure gauge telemetry scrapes. Safe from any
// goroutine (len on a channel is atomic).
func (c *Conn) Depth() int { return len(c.data) }

// Stats returns a snapshot of traffic counters.
func (c *Conn) Stats() Stats {
	return Stats{
		Tuples:   c.tuples.Load(),
		Puncts:   c.puncts.Load(),
		Pages:    c.pages.Load(),
		Controls: c.controls.Load(),
	}
}
