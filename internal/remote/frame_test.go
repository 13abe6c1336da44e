package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// memConn is an in-memory net.Conn: reads come from r (or block until Close
// when r is nil), writes are appended to w when it is set and counted either
// way, and deadline calls are counted.
type memConn struct {
	net.Conn // nil: only the methods below are used
	r        io.Reader
	w        *bytes.Buffer
	closed   chan struct{}

	writes, readDeadlines, writeDeadlines int
}

func newMemConn(r io.Reader) *memConn { return &memConn{r: r, closed: make(chan struct{})} }

func (c *memConn) Read(p []byte) (int, error) {
	if c.r == nil {
		<-c.closed
		return 0, io.EOF
	}
	return c.r.Read(p)
}

func (c *memConn) Write(p []byte) (int, error) {
	c.writes++
	if c.w != nil {
		c.w.Write(p)
	}
	return len(p), nil
}

func (c *memConn) Close() error                     { close(c.closed); return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { c.readDeadlines++; return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { c.writeDeadlines++; return nil }

// recorder is the consumer side of a wire test: a source context that keeps
// everything it is handed, in order, barriers included (exec.Barrier finds
// its Barrier method, as it finds the runtime's).
type recorder struct {
	exec.Context // nil: a remote source calls only the methods below
	got          []wireItem
}

func (r *recorder) EmitBatch(ts []stream.Tuple) {
	for _, t := range ts {
		r.got = append(r.got, wireItem{tuple: &t})
	}
}
func (r *recorder) EmitPunct(e punct.Embedded) { r.got = append(r.got, wireItem{pat: &e.Pattern}) }
func (r *recorder) Barrier(epoch int64) error {
	r.got = append(r.got, wireItem{epoch: epoch})
	return nil
}

// wireItem is a tuple, a punctuation pattern, or (both nil) a barrier.
type wireItem struct {
	tuple *stream.Tuple
	pat   *punct.Pattern
	epoch int64
}

func (a wireItem) equal(b wireItem) bool {
	switch {
	case a.tuple != nil:
		if b.tuple == nil || a.tuple.Seq != b.tuple.Seq || len(a.tuple.Values) != len(b.tuple.Values) {
			return false
		}
		for i, v := range a.tuple.Values {
			if v != b.tuple.Values[i] { // exact, null included; Value.Equal has SQL null semantics
				return false
			}
		}
		return true
	case a.pat != nil:
		return b.pat != nil && a.pat.Equal(*b.pat)
	}
	return b.tuple == nil && b.pat == nil && a.epoch == b.epoch
}

func (a wireItem) String() string {
	switch {
	case a.tuple != nil:
		return fmt.Sprintf("tuple#%d%.60s", a.tuple.Seq, a.tuple.String())
	case a.pat != nil:
		return "punct" + a.pat.String()
	}
	return fmt.Sprintf("barrier(%d)", a.epoch)
}

var wideSchema = stream.MustSchema(
	stream.F("i", stream.KindInt), stream.F("t", stream.KindTime), stream.F("f", stream.KindFloat),
	stream.F("s", stream.KindString), stream.F("b", stream.KindBool),
)

// randTuple covers every Value kind, null in any column, and strings from
// empty to multi-KB (a few of which outgrow a run's byte budget).
func randTuple(rng *rand.Rand, seq int64) stream.Tuple {
	vals := []stream.Value{
		stream.Int(rng.Int63() - rng.Int63()),
		stream.TimeMicros(rng.Int63n(2e15)),
		stream.Float(rng.NormFloat64() * 1e6),
		stream.String_(""),
		stream.Bool(rng.Intn(2) == 0),
	}
	switch rng.Intn(4) {
	case 0:
		vals[3] = stream.String_("seg-" + strings.Repeat("é", rng.Intn(8)))
	case 1:
		vals[3] = stream.String_(strings.Repeat("payload ", 256+rng.Intn(1024)))
	}
	for i := range vals {
		if rng.Intn(6) == 0 {
			vals[i] = stream.Null
		}
	}
	return stream.Tuple{Values: vals, Seq: seq}
}

// TestRunFramingPreservesSequence is the property test of the run-framed
// wire: whatever interleaving of tuples, punctuation and barriers goes into
// a Sink — tuple by tuple or in page runs — comes out of
// the far Source as the identical sequence, so every barrier sits after
// exactly the items that preceded it.
func TestRunFramingPreservesSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		var want []wireItem
		epoch := int64(0)
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			switch r := rng.Intn(20); {
			case r < 16:
				tp := randTuple(rng, int64(i))
				want = append(want, wireItem{tuple: &tp})
			case r < 18:
				p := punct.AllWild(5).With(1, punct.Le(stream.TimeMicros(rng.Int63n(2e15)))).
					With(3, punct.OneOf(stream.String_("a"), stream.String_(strings.Repeat("b", rng.Intn(3000)))))
				want = append(want, wireItem{pat: &p})
			default:
				epoch += 1 + rng.Int63n(3)
				want = append(want, wireItem{epoch: epoch})
			}
		}
		for _, batched := range []bool{false, true} {
			chunk := 1 + rng.Intn(40) // page-run length handed to ProcessTupleBatch
			c1, c2 := net.Pipe()
			sendErr := make(chan error, 1)
			go func() {
				sendErr <- feedSink(NewSink("out", wideSchema, c1), want, batched, chunk)
			}()
			rec := &recorder{}
			src := NewSource("in", wideSchema, c2)
			if err := src.Open(rec); err != nil {
				t.Fatal(err)
			}
			for more := true; more; {
				var err error
				if more, err = src.Next(rec); err != nil {
					t.Fatalf("iteration %d (batched %v): %v", iter, batched, err)
				}
			}
			src.Close(rec)
			if err := <-sendErr; err != nil {
				t.Fatalf("iteration %d: sink: %v", iter, err)
			}
			if len(rec.got) != len(want) {
				t.Fatalf("iteration %d (batched %v): %d items arrived, %d sent",
					iter, batched, len(rec.got), len(want))
			}
			for i := range want {
				if !want[i].equal(rec.got[i]) {
					t.Fatalf("iteration %d (batched %v): item %d is %v, sent %v",
						iter, batched, i, rec.got[i], want[i])
				}
			}
		}
	}
}

// feedSink drives a sink the way the node runner does: tuples one at a time
// or as runs of consecutive page items of a chosen length, everything else
// per item, and the barriers a checkpoint would forward.
func feedSink(sink *Sink, items []wireItem, batched bool, chunk int) error {
	h := feedbackCounter{n: new(atomic.Int64)}
	if err := sink.Open(h); err != nil {
		return err
	}
	var err error
	for i := 0; i < len(items) && err == nil; i++ {
		switch it := items[i]; {
		case it.tuple != nil && batched:
			var run []queue.Item
			for ; i < len(items) && items[i].tuple != nil && len(run) < chunk; i++ {
				run = append(run, queue.TupleItem(*items[i].tuple))
			}
			i--
			err = sink.ProcessTupleBatch(0, run, h)
		case it.tuple != nil:
			err = sink.ProcessTuple(0, *it.tuple, h)
		case it.pat != nil:
			err = sink.ProcessPunct(0, punct.NewEmbedded(*it.pat), h)
		default:
			err = sink.ForwardBarrier(it.epoch, h)
		}
	}
	if cerr := sink.Close(h); err == nil {
		err = cerr
	}
	return err
}

// TestFramesCloseAtPunctuation: a run closes ahead of punctuation, barriers and EOS and at runBytes, not per page, so a
// punctuated stream costs one data frame per punctuation block.
func TestFramesCloseAtPunctuation(t *testing.T) {
	const blocks, block = 6, 512
	var items []wireItem
	for k := 0; k < blocks; k++ {
		for i := 0; i < block; i++ {
			tp := mkTuple(int64(k*block+i), int64(k*block+i)*1000, 50)
			items = append(items, wireItem{tuple: &tp})
		}
		p := punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(int64(k+1)*block*1000)))
		items = append(items, wireItem{pat: &p})
	}
	// One block again, with a barrier in the middle, and 8 192 tuples alike
	// that outgrow runBytes: a run closes once its buffer reaches it.
	items = append(items, items[:block/2]...)
	items = append(items, wireItem{epoch: 1})
	items = append(items, items[block/2:block+1]...)
	big := mkTuple(7, 7, 50)
	for i := 0; i < 8192; i++ {
		items = append(items, wireItem{tuple: &big})
	}
	size := len(big.AppendBinary(nil))
	perRun := (runBytes - hdrRoom + size - 1) / size
	bigRuns := (8192 + perRun - 1) / perRun
	want := 2*blocks + 4 + bigRuns + 1 // the blocks, the one split by the barrier, the big runs, EOS

	for _, batched := range []bool{false, true} {
		out := newMemConn(nil)
		if err := feedSink(NewSink("out", schema, out), items, batched, 64); err != nil {
			t.Fatal(err)
		}
		if out.writes != want {
			t.Errorf("batched %v: %d frames written, want %d", batched, out.writes, want)
		}
	}
}

// TestDeadlinesArmedPerFrame: WriteTimeout and ReadTimeout cost one
// deadline call per frame on the wire, not one per tuple.
func TestDeadlinesArmedPerFrame(t *testing.T) {
	const tuples, block = 640, 64
	const frames = 2*tuples/block + 1 // a run and its punctuation per block, then EOS
	out := newMemConn(nil)
	out.w = new(bytes.Buffer)
	sink := NewSink("out", schema, out)
	sink.WriteTimeout = time.Minute
	var script []exec.Script
	for b := 0; b < tuples; b += block {
		run := make([]stream.Tuple, block)
		for i := range run {
			run[i] = mkTuple(int64(b+i), int64(b+i)*1000, 50)
		}
		script = append(script, exec.Tuples(0, run...),
			exec.Punct(0, punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(int64(b+block-1)*1000))))))
	}
	if err := exec.Drive(sink, script...).Err; err != nil {
		t.Fatal(err)
	}
	if out.writeDeadlines != frames || out.writes != frames {
		t.Errorf("%d write deadlines and %d writes for %d frames", out.writeDeadlines, out.writes, frames)
	}

	in := newMemConn(out.w)
	src := NewSource("in", schema, in)
	src.ReadTimeout = time.Minute
	hs := exec.DriveSource(src)
	if err := hs.Err; err != nil {
		t.Fatal(err)
	}
	if got := len(hs.Out[0].Tuples()); got != tuples {
		t.Fatalf("%d tuples arrived, want %d", got, tuples)
	}
	if in.readDeadlines != frames {
		t.Errorf("%d read deadlines for %d frames", in.readDeadlines, frames)
	}
}

// batchCounter is the cheapest possible downstream: it counts.
type batchCounter struct {
	exec.Context
	tuples int
}

func (c *batchCounter) EmitBatch(ts []stream.Tuple) { c.tuples += len(ts) }

// TestEncodeRunAllocs pins the encode path: in steady state a page run is
// encoded, framed and written without allocating.
func TestEncodeRunAllocs(t *testing.T) {
	conn := newMemConn(nil)
	sink := NewSink("out", schema, conn)
	sink.WriteTimeout = time.Minute
	if err := sink.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer sink.Close(nil)
	run := make([]queue.Item, 64)
	for i := range run {
		run[i] = queue.TupleItem(mkTuple(int64(i), int64(i)*1000, 50))
	}
	// Punctuation closes each run, so framing and writing are counted too.
	end := punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(63_000))))
	writes := conn.writes
	allocs := testing.AllocsPerRun(200, func() {
		if err := sink.ProcessTupleBatch(0, run, nil); err != nil {
			t.Fatal(err)
		}
		if err := sink.ProcessPunct(0, end, nil); err != nil {
			t.Fatal(err)
		}
		for i := range run {
			if err := sink.ProcessTuple(0, run[i].Tuple, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.ProcessPunct(0, end, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per two encoded runs, want 0", allocs)
	}
	if conn.writes-writes != 4*201 {
		t.Errorf("%d writes for %d runs and their punctuation", conn.writes-writes, 2*201)
	}
}

// slabCounter is batchCounter with the node runner's slabs: exec.Slab draws
// from a queue.Aliases, and each Next is one activation.
type slabCounter struct {
	batchCounter
	aliases queue.Aliases
}

func (c *slabCounter) Slab(n int) []stream.Value { return c.aliases.Get(n) }

// TestDecodeRunAllocs pins the decode path: nothing per tuple (string
// payloads aside — this schema has none), and per frame only the value arena
// when there are no pages to recycle one — none under a running plan, where
// the frame decodes into a recycled slab.
func TestDecodeRunAllocs(t *testing.T) {
	const frames, perFrame = 512, 64
	var wire bytes.Buffer
	w := rawWriter(&memConn{w: &wire})
	run := make([]stream.Tuple, perFrame)
	for i := range run {
		run[i] = mkTuple(int64(i), int64(i)*1000, 50)
	}
	for i := 0; i < frames; i++ {
		if err := rawTuples(w, run...); err != nil {
			t.Fatal(err)
		}
	}
	src := NewSource("in", schema, newMemConn(&wire))
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	next := func(ctx exec.Context, endActivation func()) float64 {
		return testing.AllocsPerRun(200, func() {
			if more, err := src.Next(ctx); !more || err != nil {
				t.Fatal(more, err)
			}
			endActivation()
		})
	}
	bare := &batchCounter{}
	if allocs := next(bare, func() {}); allocs != 1 {
		t.Errorf("page-less context: %.1f allocs per decoded frame of %d tuples, want exactly 1 (the arena)", allocs, perFrame)
	}
	paged := &slabCounter{}
	// Under the race detector sync.Pool drops a quarter of what is put back,
	// so a recycled slab is now and then a fresh one.
	if allocs := next(paged, paged.aliases.End); allocs != 0 && !(raceBuild && allocs <= 1) {
		t.Errorf("context with pages: %.1f allocs per decoded frame of %d tuples, want 0", allocs, perFrame)
	}
	if bare.tuples != 201*perFrame || paged.tuples != 201*perFrame {
		t.Errorf("%d and %d tuples emitted, want %d each", bare.tuples, paged.tuples, 201*perFrame)
	}
}

// frameBytes is one hand-built frame: header fields exactly as given, so a
// test can lie in them.
func frameBytes(kind byte, count, length uint64, body []byte) []byte {
	b := binary.AppendUvarint([]byte{kind}, count)
	return append(binary.AppendUvarint(b, length), body...)
}

func tupleBytes(ts ...stream.Tuple) []byte {
	var b []byte
	for _, t := range ts {
		b = t.AppendBinary(b)
	}
	return b
}

// replay runs a byte stream through a Source as the data path would and
// returns what arrived and the error that ended it (nil after a clean EOS).
func replay(data []byte) (*recorder, *Source, error) {
	rec := &recorder{}
	src := NewSource("in", schema, newMemConn(bytes.NewReader(data)))
	if err := src.Open(rec); err != nil {
		return rec, src, err
	}
	for {
		more, err := src.Next(rec)
		if err != nil || !more {
			return rec, src, err
		}
	}
}

var eosFrame = frameBytes(frameEOS, 0, 0, nil)

// TestHostileFrames: every malformed frame ends the stream with an error
// that names what was wrong, before anything is allocated from its numbers.
func TestHostileFrames(t *testing.T) {
	one := tupleBytes(mkTuple(1, 1000, 50))
	pat := punct.AllWild(3).AppendBinary(nil)
	foreignPat := punct.OnAttr(5, 4, punct.Le(stream.TimeMicros(10))).AppendBinary(nil)
	cases := []struct {
		name, wantErr string
		data          []byte
	}{
		{"length prefix of 2^31", "frame limit", frameBytes(frameTuples, 1, 1<<31, one)},
		{"count of 2^31", "frame limit", frameBytes(frameTuples, 1<<31, uint64(len(one)), one)},
		{"length uvarint overflow", "frame limit", append([]byte{frameTuples, 1}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"count the body cannot hold", "more tuples than the bytes can hold", frameBytes(frameTuples, 1000, uint64(len(one)), one)},
		{"count short of the body", "trailing bytes", frameBytes(frameTuples, 1, uint64(2*len(one)), append(one[:len(one):len(one)], one...))},
		{"count beyond the tuples", "decode tuple 1 of 2", frameBytes(frameTuples, 2, uint64(len(one)+5), append(one[:len(one):len(one)], 0, 0, 0, 0, 0))},
		{"tuple of another arity", "want 3", frameBytes(frameTuples, 1, 5, tupleBytes(stream.NewTuple(stream.Int(1), stream.Null, stream.Null, stream.Null))[:5])},
		{"punctuation of another arity", "arity 5 on an edge of arity 3", frameBytes(framePunct, 0, uint64(len(foreignPat)), foreignPat)},
		{"unknown kind", "unknown frame kind 9", frameBytes(9, 0, 0, nil)},
		{"feedback on the data path", "unexpected feedback frame", frameBytes(frameFeedback, 0, 0, nil)},
		{"count on a control frame", "carries count 3", frameBytes(framePunct, 3, uint64(len(pat)), pat)},
		{"punctuation with trailing bytes", "trailing bytes", frameBytes(framePunct, 0, uint64(len(pat)+1), append(pat[:len(pat):len(pat)], 0))},
		{"barrier with trailing bytes", "malformed barrier", frameBytes(frameBarrier, 0, 3, []byte{2, 0, 0})},
		{"barrier with a capture mode", "malformed barrier", frameBytes(frameBarrier, 0, 2, []byte{2, 0})},
		{"barrier without an epoch", "malformed barrier", frameBytes(frameBarrier, 0, 0, nil)},
		{"EOS with a body", "trailing bytes", frameBytes(frameEOS, 0, 1, []byte{0})},
		{"body cut short", "unexpected EOF", frameBytes(frameTuples, 1, uint64(len(one)), one[:len(one)-1])},
		{"header cut short", "unexpected EOF", []byte{frameTuples, 0x80}},
		{"no EOS", "before end of stream", frameBytes(frameTuples, 1, uint64(len(one)), one)},
	}
	for _, c := range cases {
		_, src, err := replay(c.data)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.wantErr)
		}
		if got := len(src.r.buf); got > readBuf {
			t.Errorf("%s: read buffer grew to %d bytes on %d bytes of input", c.name, got, len(c.data))
		}
	}

	// The feedback path applies the same checks, and refuses a well-formed
	// feedback whose pattern is not over the edge's schema, or whose intent
	// is none of the three.
	foreign := core.NewAssumed(punct.OnAttr(5, 4, punct.Le(stream.TimeMicros(10)))).AppendBinary(nil)
	undefined := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))).AppendBinary(nil)
	undefined[0] = 5
	for _, data := range [][]byte{
		frameBytes(frameFeedback, 0, 1<<31, nil),
		frameBytes(frameFeedback, 0, 2, []byte{0, 9}),
		frameBytes(frameTuples, 1, uint64(len(one)), one),
		frameBytes(frameFeedback, 0, uint64(len(foreign)), foreign),
		frameBytes(frameFeedback, 0, uint64(len(undefined)), undefined),
	} {
		sink := NewSink("out", schema, newMemConn(bytes.NewReader(data)))
		tr := exec.Drive(sink, exec.Call(func(*exec.Trace) {
			sink.wg.Wait() // the feedback reader has hit the bad frame
		}))
		if err := tr.Err; err == nil {
			t.Errorf("feedback path accepted %x", data)
		}
	}
}

// FuzzRemoteFrame feeds arbitrary bytes to both ends' readers. Nothing may
// panic, a stream only ends cleanly at an EOS frame, and the read buffer
// never outgrows the input (no allocation from a length prefix).
func FuzzRemoteFrame(f *testing.F) {
	one := tupleBytes(mkTuple(1, 1000, 50))
	pat := punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(10))).AppendBinary(nil)
	fb := core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(3)))).AppendBinary(nil)
	var whole []byte
	for _, fr := range [][]byte{
		frameBytes(frameTuples, 2, uint64(2*len(one)), append(one[:len(one):len(one)], one...)),
		frameBytes(framePunct, 0, uint64(len(pat)), pat),
		frameBytes(frameBarrier, 0, 1, []byte{4}),
		frameBytes(frameFeedback, 0, uint64(len(fb)), fb),
		eosFrame,
	} {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
		f.Add(fr[:len(fr)/2])
		if fr[0] != frameFeedback {
			whole = append(whole, fr...)
		}
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-len(eosFrame)])
	f.Add(frameBytes(frameTuples, 1, 1<<31, one))
	f.Add(frameBytes(frameTuples, 1<<31, uint64(len(one)), one))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, src, err := replay(data)
		if err == nil && !src.done {
			t.Errorf("stream %x replayed cleanly without an EOS frame", data)
		}
		if limit := max(readBuf, 2*len(data)); len(src.r.buf) > limit {
			t.Errorf("read buffer of %d bytes for %d bytes of input", len(src.r.buf), len(data))
		}
		for _, it := range rec.got {
			if it.tuple != nil && it.tuple.Arity() != schema.Arity() {
				t.Errorf("tuple of arity %d emitted on a stream of arity %d", it.tuple.Arity(), schema.Arity())
			}
		}

		// The same bytes arriving on a sink's feedback path.
		var relayed, foreign atomic.Int64
		sink := NewSink("out", schema, newMemConn(bytes.NewReader(data)))
		if err := sink.Open(feedbackCounter{n: &relayed, foreign: &foreign}); err != nil {
			t.Fatal(err)
		}
		sink.wg.Wait()
		sink.Close(nil)
		if got := sink.feedbackIn.Load(); got != relayed.Load() {
			t.Errorf("%d feedback frames counted, %d relayed", got, relayed.Load())
		}
		if n := foreign.Load(); n != 0 {
			t.Errorf("%d feedback patterns of another arity relayed", n)
		}
	})
}

// feedbackCounter is the context of a sink under fuzz: feedback goes nowhere
// but is counted, and so is any whose pattern is not over the sink's schema.
type feedbackCounter struct {
	exec.Context
	n, foreign *atomic.Int64
}

func (c feedbackCounter) SendFeedback(_ int, f core.Feedback) {
	c.n.Add(1)
	if f.Pattern.Arity() != schema.Arity() {
		c.foreign.Add(1)
	}
}
