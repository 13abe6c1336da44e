// Package queue implements NiagaraST's inter-operator connection (§5,
// Figure 3): a downstream data queue carrying pages of tuples and embedded
// punctuation, and an upstream control channel carrying out-of-band,
// high-priority messages (feedback punctuation, shutdown).
//
// Pages batch tuples to limit context switching between operator
// goroutines; a page is published to the queue when it is full OR when a
// punctuation is written to it, so a slow stream cannot indefinitely delay
// punctuation behind a partially-filled page. The queue is a ring of pages
// whose wake-ups have hysteresis (Conn), so the switch is paid per half
// ring, not per page; punctuation wakes the consumer whatever the fill.
package queue

import (
	"sync"

	"repro/internal/punct"
	"repro/internal/stream"
)

// ItemKind tags the entries of a page.
type ItemKind uint8

const (
	// ItemTuple is a data tuple.
	ItemTuple ItemKind = iota
	// ItemPunct is embedded punctuation flowing with the stream.
	ItemPunct
	// ItemEOS marks the end of the stream; it is always the last item of
	// the last page.
	ItemEOS
	// ItemBarrier is a checkpoint barrier injected at sources by the
	// snapshot coordinator. It flows in-band (it must not be reordered
	// past data) and is consumed by the node runner, never by operators:
	// a multi-input node captures its state when every live input has
	// delivered the barrier, then forwards it on every output.
	ItemBarrier
)

// Item is one entry of a page: a tuple, an embedded punctuation, or EOS.
// Punctuation is boxed behind a pointer: tuples dominate page traffic, and
// keeping the struct at 48 bytes (vs 64 with an inline Embedded) shrinks
// the per-item copy on the PutTuple hot path by a quarter.
type Item struct {
	Kind  ItemKind
	Tuple stream.Tuple
	Punct *punct.Embedded
}

// TupleItem wraps a tuple.
func TupleItem(t stream.Tuple) Item { return Item{Kind: ItemTuple, Tuple: t} }

// PunctItem wraps embedded punctuation.
func PunctItem(e punct.Embedded) Item { return Item{Kind: ItemPunct, Punct: &e} }

// EOSItem marks end of stream.
func EOSItem() Item { return Item{Kind: ItemEOS} }

// BarrierItem wraps a checkpoint barrier. The epoch rides in the unused
// Tuple.Seq slot so the hot-path Item struct does not grow for a message
// that appears once per checkpoint.
func BarrierItem(epoch int64) Item {
	return Item{Kind: ItemBarrier, Tuple: stream.Tuple{Seq: epoch}}
}

// BarrierEpoch returns the checkpoint epoch of an ItemBarrier.
func (it Item) BarrierEpoch() int64 { return it.Tuple.Seq }

// Page is a batch of items moved between operators as a unit. It owns a
// reference to every slab it adopted — the slabs its tuples' Values may alias
// — and gives them up in Release.
type Page struct {
	Items []Item
	slabs []*Slab
	stamp uint64 // the producer's Aliases stamp the page last adopted under
}

// DefaultPageSize is the number of items per page; chosen to amortize
// ring operations without adding noticeable latency.
const DefaultPageSize = 64

// Len returns the number of items in the page.
func (p *Page) Len() int { return len(p.Items) }

// Full reports whether the page has reached the given capacity.
func (p *Page) Full(capacity int) bool { return len(p.Items) >= capacity }

// Append adds an item.
//
//pace:hotpath
func (p *Page) Append(it Item) { p.Items = append(p.Items, it) }

// AppendTuple adds a tuple item, writing directly into the next slot (no
// intermediate Item value on the producer's stack) when capacity allows.
//
//pace:hotpath
func (p *Page) AppendTuple(t stream.Tuple) {
	n := len(p.Items)
	if n == cap(p.Items) {
		p.Items = append(p.Items, Item{Kind: ItemTuple, Tuple: t})
		return
	}
	p.Items = p.Items[:n+1]
	slot := &p.Items[n]
	slot.Kind = ItemTuple
	slot.Tuple = t
	slot.Punct = nil
}

// AppendTuples adds a run of tuple items, sizing the slice once and writing
// slots directly — no per-tuple capacity check when room allows.
//
//pace:hotpath
func (p *Page) AppendTuples(ts []stream.Tuple) {
	n := len(p.Items)
	if n+len(ts) <= cap(p.Items) {
		p.Items = p.Items[:n+len(ts)]
		for i := range ts {
			slot := &p.Items[n+i]
			slot.Kind = ItemTuple
			slot.Tuple = ts[i]
			slot.Punct = nil
		}
		return
	}
	for _, t := range ts {
		p.AppendTuple(t)
	}
}

// AppendPunct adds a punctuation item.
//
//pace:hotpath
func (p *Page) AppendPunct(e *punct.Embedded) {
	n := len(p.Items)
	if n == cap(p.Items) {
		p.Items = append(p.Items, Item{Kind: ItemPunct, Punct: e})
		return
	}
	p.Items = p.Items[:n+1]
	slot := &p.Items[n]
	slot.Kind = ItemPunct
	slot.Tuple = stream.Tuple{}
	slot.Punct = e
}

// adopt makes the page an owner of every slab the producer's tuples may alias
// right now: none of them is recycled before the page is released. A page
// touched under several sets may adopt a slab twice; it then releases it
// twice.
//
//pace:hotpath
func (p *Page) adopt(a *Aliases) {
	for _, s := range a.slabs {
		s.refs.Add(1)
		p.slabs = append(p.slabs, s) //pace:allow-alloc amortised growth: a recycled page keeps the capacity
	}
	p.stamp = a.stamp
}

// Reset clears the page for reuse. Item slots are zeroed so a recycled
// page does not pin tuple values or predicate slices from its previous
// life in the garbage collector, and the page's slabs are given up.
func (p *Page) Reset() {
	clear(p.Items)
	p.Items = p.Items[:0]
	for i, s := range p.slabs {
		s.release()
		p.slabs[i] = nil
	}
	p.slabs = p.slabs[:0]
	p.stamp = 0
}

// pagePool recycles pages across producer/consumer goroutines. Ownership
// transfers with the page: a producer owns a page until it is published into
// a ring, the consumer owns it from Recv until Release, and nobody may
// touch a page (or aliases into its Items, or its tuples' Values) after
// releasing it.
var pagePool = sync.Pool{New: func() any { return new(Page) }}

// GetPage draws a cleared page with at least the given capacity from the
// recycling pool, allocating only when the pool is empty or the pooled
// page is too small.
func GetPage(capacity int) *Page {
	p := pagePool.Get().(*Page)
	if cap(p.Items) < capacity {
		p.Items = make([]Item, 0, capacity)
	}
	return p
}

// Release returns a page to the recycling pool and drops its slab references.
// The caller promises it holds no references into p.Items, and no tuple of
// the page whose Values it did not clone: the last page to release a slab
// recycles it, and the values are overwritten.
func Release(p *Page) {
	if p == nil {
		return
	}
	p.Reset()
	pagePool.Put(p)
}
