// Package atomicmix is the atomicfield fixture for the function-style
// sync/atomic API: a field handed to it by address should be of a
// sync/atomic type — except where the call carries a waiver.
package atomicmix

import "sync/atomic"

type counters struct {
	hits  int64
	drops int64
	snap  int64
	typed atomic.Int64
}

func (c *counters) scrape() int64 {
	return atomic.LoadInt64(&c.hits) // want "use the sync/atomic type"
}

func (c *counters) bump() {
	atomic.AddInt64(&c.hits, 1) // want "use the sync/atomic type"
	c.drops++                   // ok: a plain field, never handed to sync/atomic
	c.typed.Add(1)              // ok: the typed API
}

func (c *counters) read() int64 {
	var local int64
	atomic.StoreInt64(&local, 1)             // ok: a local, not a struct field
	return atomic.LoadInt64(&c.snap) + local //pace:allow-nonatomic read at snapshot barrier; all writers quiesced
}
