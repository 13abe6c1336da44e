package exec

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// SliceSource replays a fixed sequence of items (tuples and punctuation).
// It is the workhorse source of tests, and a Generator under the scripted
// rule: its script's punctuation closes a run.
type SliceSource struct {
	Generating
	SourceName string
	Schema     stream.Schema
	Items      []queue.Item //pace:allow-unreached tests script punctuation after the tuples; the engine's sources carry tuples only
	// Tuples is the tuple fast path: its tuples are replayed directly,
	// without materializing a queue.Item per element, before anything in
	// Items. NewSliceSource fills it; callers may still append
	// punctuation to Items and it plays after the tuples.
	Tuples []stream.Tuple
	// BatchSize bounds the items one Next call plays (default 16).
	//pace:allow-unreached tests size a Next call to land feedback at a chosen position
	BatchSize int

	pos int
}

// NewSliceSource builds a source over tuples only.
func NewSliceSource(name string, schema stream.Schema, tuples ...stream.Tuple) *SliceSource {
	return &SliceSource{SourceName: name, Schema: schema, Tuples: tuples}
}

// Name implements Source.
func (s *SliceSource) Name() string { return s.SourceName }

// NeverBlocks implements InlineSource: Next replays memory.
func (s *SliceSource) NeverBlocks() {}

// OutSchemas implements Source.
func (s *SliceSource) OutSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// Open implements Source. The replay position is the durable state, so a
// restored source resumes exactly behind the barrier it cut — the tuples
// downstream did not capture are regenerated, nothing is replayed twice.
func (s *SliceSource) Open(Context) error {
	s.Generate(s, Rule{}, snapshot.Int(&s.pos), snapshot.Then(func() error {
		if total := len(s.Tuples) + len(s.Items); s.pos < 0 || s.pos > total {
			return fmt.Errorf("exec: slice source %q: restored position %d outside replay log of %d items (source data changed?)",
				s.SourceName, s.pos, total)
		}
		return nil
	}))
	return nil
}

// Step implements Generator: the next BatchSize items of the stream, Tuples
// followed by Items, up to and including the first punctuation. pos indexes
// the concatenation.
func (s *SliceSource) Step(run []stream.Tuple) (Run, error) {
	n := s.BatchSize
	if n <= 0 {
		n = 16
	}
	end := min(s.pos+n, len(s.Tuples)+len(s.Items))
	for ; s.pos < min(end, len(s.Tuples)); s.pos++ {
		run = append(run, s.Tuples[s.pos])
	}
	r, at := Replay(s.Items, s.pos-len(s.Tuples), end-len(s.Tuples), run)
	s.pos = len(s.Tuples) + at
	return r, nil
}

// ReaderSource streams tuples decoded from an io.Reader in the text codec
// (one comma-separated tuple per line; see stream.Decoder), one per step.
type ReaderSource struct {
	Generating
	SourceName string
	Schema     stream.Schema
	R          io.Reader
	// PunctAttr, when ≥ 0, is the progress attribute: every PunctEvery-th
	// tuple closes its run with [PunctAttr < v], v being its value. That
	// assumes the input is non-decreasing on the attribute, which promises no
	// more below v, and no more: later tuples may still equal v.
	PunctAttr  int
	PunctEvery int

	dec   *stream.Decoder
	count int
	// base is the byte offset the current decoder started at (non-zero
	// after a restore seeked R); base+dec.Offset() is the replay position.
	base int64
}

// NewReaderSource decodes tuples of the given schema from r.
func NewReaderSource(name string, schema stream.Schema, r io.Reader) *ReaderSource {
	return &ReaderSource{SourceName: name, Schema: schema, R: r, PunctAttr: -1}
}

// Name implements Source.
func (s *ReaderSource) Name() string { return s.SourceName }

// OutSchemas implements Source.
func (s *ReaderSource) OutSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// Open implements Source.
func (s *ReaderSource) Open(Context) error {
	s.dec = stream.NewDecoder(s.R, s.Schema)
	s.base = 0
	if s.PunctEvery <= 0 {
		s.PunctEvery = 100
	}
	s.Generate(s, Rule{Progress: s.PunctAttr}, s.offsetField(), snapshot.Int(&s.count))
	return nil
}

// offsetField keeps the replay position: the exact byte offset of consumed
// input (the tuple count beside it keeps sequence numbers continuous), so a
// restored source re-reads from the cut onwards — byte identical to the
// uninterrupted run for any io.ReadSeeker input. R must be an io.Seeker (a
// file, not a pipe) unless the saved position is 0.
func (s *ReaderSource) offsetField() snapshot.Field {
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			offset := s.base + s.dec.Offset()
			return func(enc *snapshot.Encoder) { enc.PutInt64(offset) }
		},
		Load: func(dec *snapshot.Decoder) error {
			s.base = dec.GetInt64()
			return nil
		},
		Settle: func() error {
			if s.base <= 0 {
				return nil
			}
			seeker, ok := s.R.(io.Seeker)
			if !ok {
				return fmt.Errorf("exec: reader source %q: restore needs a seekable reader (%T is not)", s.SourceName, s.R)
			}
			if _, err := seeker.Seek(s.base, io.SeekStart); err != nil {
				return fmt.Errorf("exec: reader source %q: seek to replay position %d: %w", s.SourceName, s.base, err)
			}
			s.dec = stream.NewDecoder(s.R, s.Schema)
			return nil
		},
	}
}

// Step implements Generator: one decoded tuple.
func (s *ReaderSource) Step(run []stream.Tuple) (Run, error) {
	t, err := s.dec.Decode()
	if err == io.EOF {
		return Run{Tuples: run}, nil
	}
	if err != nil {
		return Run{}, err
	}
	s.count++
	t.Seq = int64(s.count)
	r := Run{Tuples: append(run, t), More: true}
	if s.PunctAttr >= 0 && s.count%s.PunctEvery == 0 {
		r.Upto = t.At(s.PunctAttr)
	}
	return r, nil
}

// Collector is a sink that records everything it receives. It is safe to
// read after Graph.Run returns; a mutex also allows sampling mid-run. Unless
// it only counts, it holds its input to the punctuation it has received
// (§3.1): a tuple that punctuation covers is its error.
type Collector struct {
	Base
	snapshot.State
	SinkName string
	Schema   stream.Schema
	// OnTuple, if set, is invoked synchronously for each tuple (used by
	// experiment harnesses to timestamp arrivals).
	OnTuple func(t stream.Tuple)
	// Discard drops tuples after OnTuple instead of recording them
	// (keeps million-tuple benchmark runs allocation-flat).
	Discard bool
	// Limit, when positive, asks the upstream plan to shut down after
	// this many tuples have arrived — the paper's Example 4 poll-based
	// result production: results are produced only while someone wants
	// them.
	//pace:allow-unreached the only trigger of §5's upstream shutdown, which the tests keep working
	Limit int64

	mu       sync.Mutex
	items    []queue.Item
	promised promises
	tuples   atomic.Int64
	shutdown bool
}

// NewCollector builds a named sink.
func NewCollector(name string, schema stream.Schema) *Collector {
	return &Collector{SinkName: name, Schema: schema, promised: newPromises(schema.Arity())}
}

// Name implements Operator.
func (c *Collector) Name() string { return c.SinkName }

// Open implements Operator: the record is the sink's state.
func (c *Collector) Open(Context) error {
	c.Keep(c.SinkName, c.recordField())
	return nil
}

// InSchemas implements Operator.
func (c *Collector) InSchemas() []stream.Schema { return []stream.Schema{c.Schema} }

// OutSchemas implements Operator.
func (c *Collector) OutSchemas() []stream.Schema { return nil }

// ProcessTuple implements Operator.
func (c *Collector) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	if c.OnTuple != nil {
		c.OnTuple(t)
	}
	n := c.tuples.Add(1)
	if c.Discard && c.Limit <= 0 {
		// Pure-counter fast path: nothing recorded, no shutdown bookkeeping,
		// so the mutex is not needed.
		return nil
	}
	c.mu.Lock()
	if err := c.promised.keep(t); err != nil {
		c.mu.Unlock()
		return err
	}
	if !c.Discard {
		// The record outlives the callback: it owns a clone.
		c.items = append(c.items, queue.TupleItem(t.Clone()))
	}
	askShutdown := c.Limit > 0 && n >= c.Limit && !c.shutdown
	if askShutdown {
		c.shutdown = true
	}
	c.mu.Unlock()
	if askShutdown {
		ctx.ShutdownUpstream(0)
	}
	return nil
}

// ProcessTupleBatch implements TupleBatcher. A pure-counter sink (Discard,
// no callback, no Limit) absorbs a whole run with one atomic add; anything
// that needs per-tuple behavior falls back to the per-tuple path.
func (c *Collector) ProcessTupleBatch(input int, items []queue.Item, ctx Context) error {
	if c.OnTuple == nil && c.Discard && c.Limit <= 0 {
		c.tuples.Add(int64(len(items)))
		return nil
	}
	for i := range items {
		if err := c.ProcessTuple(input, items[i].Tuple, ctx); err != nil {
			return err
		}
	}
	return nil
}

// ProcessPunct implements Operator.
func (c *Collector) ProcessPunct(_ int, e punct.Embedded, _ Context) error {
	c.mu.Lock()
	if !c.Discard {
		c.items = append(c.items, queue.PunctItem(e))
	}
	if !c.Discard || c.Limit > 0 {
		// The pure counter checks no tuple, so it keeps no promise.
		c.promised.said.Observe(e)
	}
	c.mu.Unlock()
	return nil
}

// recordField keeps everything received up to the cut, so a restored run
// appends the regenerated post-cut stream to the pre-cut record — the union
// is exactly-once — and holds it to the record's punctuation. The view
// aliases the append-only record, whose captured prefix is never mutated in
// place.
func (c *Collector) recordField() snapshot.Field {
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			c.mu.Lock()
			n := len(c.items)
			view := c.items[:n:n]
			c.mu.Unlock()
			count := c.tuples.Load()
			return func(enc *snapshot.Encoder) {
				enc.PutInt64(count)
				enc.PutInt(len(view))
				for _, it := range view {
					tuple := it.Kind == queue.ItemTuple
					enc.PutBool(tuple)
					if tuple {
						enc.PutTuple(it.Tuple)
					} else {
						enc.PutPattern(it.Punct.Pattern)
					}
				}
			}
		},
		Load: func(dec *snapshot.Decoder) error {
			count := dec.GetInt64()
			n := dec.GetCount()
			items := make([]queue.Item, 0, n)
			for i := 0; i < n && dec.Err() == nil; i++ {
				if dec.GetBool() {
					items = append(items, queue.TupleItem(dec.GetTuple()))
				} else {
					items = append(items, queue.PunctItem(punct.NewEmbedded(dec.GetPattern())))
				}
			}
			if err := dec.Err(); err != nil {
				return err
			}
			promised := newPromises(c.Schema.Arity())
			for _, it := range items {
				if it.Kind == queue.ItemPunct {
					promised.said.Observe(*it.Punct)
				}
			}
			c.mu.Lock()
			c.items, c.promised = items, promised
			c.mu.Unlock()
			c.tuples.Store(count)
			return nil
		},
	}
}

// Items returns a copy of everything received.
func (c *Collector) Items() []queue.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]queue.Item(nil), c.items...)
}

// Tuples returns only the received tuples, in arrival order.
func (c *Collector) Tuples() []stream.Tuple {
	var ts []stream.Tuple
	for _, it := range c.Items() {
		if it.Kind == queue.ItemTuple {
			ts = append(ts, it.Tuple)
		}
	}
	return ts
}

// Lines renders the received tuples one per string, sorted: the
// order-independent result set by which two runs of one plan compare.
func (c *Collector) Lines() []string {
	var lines []string
	for _, t := range c.Tuples() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return lines
}

// Count returns the number of tuples received so far.
func (c *Collector) Count() int64 { return c.tuples.Load() }
