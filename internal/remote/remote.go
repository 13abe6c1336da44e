// Package remote carries one plan edge across a network connection,
// letting a query plan span processes or machines. The paper's argument
// for localized feedback (§2) is precisely the distributed setting:
// feedback travels hop by hop between adjacent operators, so no
// centralized monitor needs access to remote state or data.
//
// A RemoteSink terminates a local subplan and streams its items over a
// net.Conn; a RemoteSource on the other end replays them into the remote
// subplan. Feedback punctuation flows the opposite way over the same
// connection — the dashed arrow of Figure 2(b), now crossing a machine
// boundary.
//
// Wire format (frame.go): length-prefixed binary frames, one direction per
// duplex half. Runs of tuples, embedded punctuation and checkpoint barriers
// flow downstream; feedback frames flow upstream. Every payload is in the
// engine's shared binary encodings (stream.Tuple, punct.Pattern,
// core.Feedback), so there is one wire format per kind of thing.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Remote edges participate in distributed cuts: the sink forwards barriers
// in-band over the wire, the source hands them to the local coordination
// glue (exec.DistFollower).
var (
	_ exec.BarrierForwarder = (*Sink)(nil)
	_ exec.BarrierReceiver  = (*Source)(nil)
	_ exec.TupleBatcher     = (*Sink)(nil)
)

// Sink is an exec.Operator with no outputs: everything it receives is
// framed onto the connection. Feedback frames arriving from the remote
// side are relayed upstream into the local plan.
//
//pace:stateless its state is the connection itself (codec, write buffer); the supervisor re-dials and the barrier protocol re-aligns on restore
type Sink struct {
	exec.Base
	SinkName string
	Schema   stream.Schema
	Conn     net.Conn
	// WriteTimeout bounds each frame write to the connection. A wedged peer
	// — one that stops reading but keeps the connection open — then surfaces
	// as a node error instead of blocking the pipeline (and any checkpoint
	// barrier behind it) forever. 0 disables the deadline: backpressure
	// from a merely slow consumer stalls the producer indefinitely, as a
	// paged queue would.
	WriteTimeout time.Duration

	w       *frameWriter
	pending int          // tuples in the open run (w.buf)
	readErr atomic.Value // error from the feedback reader
	closing atomic.Bool
	started bool
	wg      sync.WaitGroup

	// Counters are atomics so /metrics can scrape them while the plan
	// runs; all of them tick per frame, none per tuple.
	sent, feedbackIn     atomic.Int64
	framesOut            atomic.Int64
	bytesOut, feedbackBy atomic.Int64
}

// NewSink frames the local stream onto conn.
func NewSink(name string, schema stream.Schema, conn net.Conn) *Sink {
	return &Sink{SinkName: name, Schema: schema, Conn: conn}
}

// Name implements exec.Operator.
func (s *Sink) Name() string {
	if s.SinkName != "" {
		return s.SinkName
	}
	return "remote-sink"
}

// InSchemas implements exec.Operator.
func (s *Sink) InSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// OutSchemas implements exec.Operator.
func (s *Sink) OutSchemas() []stream.Schema { return nil }

// Open implements exec.Operator: it starts the feedback reader. The
// runtime guarantees Context.SendFeedback is safe from other goroutines.
func (s *Sink) Open(ctx exec.Context) error {
	s.w = newFrameWriter(s.Conn, s.WriteTimeout, &s.bytesOut)
	s.started = true
	fr := newFrameReader(s.Conn, &s.feedbackBy)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			kind, _, body, err := fr.next()
			if err != nil {
				if err != io.EOF && !s.closing.Load() {
					s.readErr.Store(err)
				}
				return
			}
			if kind != frameFeedback {
				s.readErr.Store(fmt.Errorf("remote: unexpected %s frame on feedback path", frameNames[kind]))
				return
			}
			var f core.Feedback
			if err := f.UnmarshalBinary(body); err != nil {
				s.readErr.Store(fmt.Errorf("remote: decode feedback frame: %w", err))
				return
			}
			if a := f.Pattern.Arity(); a != s.Schema.Arity() {
				s.readErr.Store(fmt.Errorf("remote: feedback pattern of arity %d on an edge of arity %d", a, s.Schema.Arity()))
				return
			}
			s.feedbackIn.Add(1)
			f.Hops++
			ctx.SendFeedback(0, f)
		}
	}()
	return nil
}

// ProcessTuple implements exec.Operator: the tuple joins the open run.
//
//pace:hotpath
func (s *Sink) ProcessTuple(_ int, t stream.Tuple, _ exec.Context) error {
	s.w.buf = t.AppendBinary(s.w.buf)
	s.pending++
	if len(s.w.buf) >= runBytes {
		return s.flushRun()
	}
	return nil
}

// ProcessTupleBatch implements exec.TupleBatcher: a page run is encoded
// back to back into the open run, which is closed wherever ProcessTuple
// would close it.
//
//pace:hotpath
func (s *Sink) ProcessTupleBatch(_ int, items []queue.Item, _ exec.Context) error {
	for i := range items {
		s.w.buf = items[i].Tuple.AppendBinary(s.w.buf)
		s.pending++
		if len(s.w.buf) >= runBytes {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushRun closes the open run, if any, and writes it as one data frame.
//
//pace:hotpath
func (s *Sink) flushRun() error {
	if s.pending == 0 {
		return nil
	}
	n := s.pending
	s.pending = 0
	if err := s.w.flush(frameTuples, n); err != nil {
		return err
	}
	s.sent.Add(int64(n))
	s.framesOut.Add(1)
	return nil
}

// control writes the body appended to s.w.buf by the caller as one control
// frame. The open run must have been flushed first.
func (s *Sink) control(kind byte) error {
	if err := s.w.flush(kind, 0); err != nil {
		return err
	}
	s.framesOut.Add(1)
	return nil
}

// ProcessPunct implements exec.Operator: punctuation closes the run, like
// the paged queues, and follows it in a frame of its own.
func (s *Sink) ProcessPunct(_ int, e punct.Embedded, _ exec.Context) error {
	if err := s.flushRun(); err != nil {
		return err
	}
	s.w.buf = e.Pattern.AppendBinary(s.w.buf)
	return s.control(framePunct)
}

// ForwardBarrier implements exec.BarrierForwarder: the checkpoint barrier
// crosses the process boundary as a wire frame of its own, written after the
// run holding every tuple that preceded the local cut and at once, so the
// downstream subplan can start its aligned cut without waiting for a run to
// fill.
func (s *Sink) ForwardBarrier(epoch int64, _ exec.Context) error {
	if err := s.flushRun(); err != nil {
		return err
	}
	s.w.buf = binary.AppendVarint(s.w.buf, epoch)
	if err := s.control(frameBarrier); err != nil {
		return fmt.Errorf("remote: barrier epoch %d: %w", epoch, err)
	}
	return nil
}

// closeWriter is the half-close surface of duplex transports (TCP).
type closeWriter interface{ CloseWrite() error }

// closeDrainTimeout bounds how long Sink.Close waits for the consumer to
// close its half after EOS.
const closeDrainTimeout = 10 * time.Second

// Close implements exec.Operator: last run, EOS frame, close the write half.
//
// On transports that support it, the write half is closed first and the
// feedback reader drains until the remote side closes: a full Close with
// feedback bytes still in flight would make TCP reset the connection,
// destroying the EOS frame (and any data) the consumer has not read yet.
func (s *Sink) Close(exec.Context) error {
	var firstErr error
	s.closing.Store(true)
	if s.started {
		if firstErr = s.flushRun(); firstErr == nil {
			firstErr = s.control(frameEOS)
		}
	}
	if cw, ok := s.Conn.(closeWriter); ok && s.started && firstErr == nil {
		if err := cw.CloseWrite(); err != nil && firstErr == nil {
			firstErr = err
		}
		// The consumer closes its side once it has read EOS (Source.Close
		// runs even on shutdown), which ends the feedback reader with EOF.
		// The read deadline bounds the drain against a peer that stays
		// alive but never closes; the resulting timeout error is ignored
		// by the reader because closing is already set.
		_ = s.Conn.SetReadDeadline(time.Now().Add(closeDrainTimeout))
		s.wg.Wait()
		if err := s.Conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		// No half-close (net.Pipe, error paths): closing the connection
		// unblocks the feedback reader.
		if err := s.Conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wg.Wait()
	}
	if err, _ := s.readErr.Load().(error); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// TelemetryVars implements telemetry.VarExporter.
func (s *Sink) TelemetryVars() []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_remote_tuples_sent_total", Help: "Tuples framed onto the connection.", Value: s.sent.Load},
		{Name: "pace_remote_frames_sent_total", Help: "Frames (tuple run, punct, barrier, EOS) written to the wire.", Value: s.framesOut.Load},
		{Name: "pace_remote_bytes_sent_total", Help: "Bytes written to the connection.", Value: s.bytesOut.Load},
		{Name: "pace_remote_bytes_received_total", Help: "Feedback-path bytes read from the connection.", Value: s.feedbackBy.Load},
		{Name: "pace_remote_feedback_received_total", Help: "Feedback frames received from the remote consumer.", Value: s.feedbackIn.Load},
	}
}

// Source is an exec.Source replaying the frames a remote Sink sends;
// feedback delivered to it is framed back over the connection.
//
//pace:stateless its state is the connection itself (codec, barrier hook); the supervisor re-dials and the barrier protocol re-aligns on restore
type Source struct {
	SourceName string
	Schema     stream.Schema
	Conn       net.Conn

	// ReadTimeout bounds each frame read, the read-side mirror of
	// Sink.WriteTimeout: a wedged upstream peer — crashed without closing
	// the connection, or stalled mid-barrier — surfaces as a node error
	// instead of blocking the plan (and any barrier alignment waiting on
	// this edge) forever. It is an idle bound, not a rate bound: every
	// Next call — one frame, so one run of tuples — re-arms it, so it only
	// fires after a full timeout with no frame at all. Set it well above
	// the longest legitimate gap between frames (source think time,
	// feedback-driven droughts). Zero disables.
	ReadTimeout time.Duration

	r    *frameReader
	w    *frameWriter   // feedback path
	run  []stream.Tuple // the decoded run, reused; its values live in the frame's slab
	done bool

	// barrierHook (SetBarrierHook) hands wire barriers to the local
	// checkpoint coordination glue; without one, barriers are dropped —
	// an uncoordinated consumer cannot cut, and the producer's coordinator
	// abandons the epoch when its ack never arrives.
	barrierHook func(epoch int64) error

	// Counters are atomics so /metrics can scrape them while the plan
	// runs. deadlineHits counts ReadTimeout expiries (wedged producer);
	// this package has no reconnect logic — a timed-out edge surfaces as a
	// node error and the supervisor restarts the subplan — so there is no
	// reconnect counter to export.
	received, feedbackOut atomic.Int64
	framesIn              atomic.Int64
	bytesIn, feedbackBy   atomic.Int64
	deadlineHits          atomic.Int64
}

// SetBarrierHook implements exec.BarrierReceiver. It must be called before
// the plan runs.
func (s *Source) SetBarrierHook(fn func(epoch int64) error) {
	s.barrierHook = fn
}

// NewSource replays a remote stream from conn.
func NewSource(name string, schema stream.Schema, conn net.Conn) *Source {
	return &Source{SourceName: name, Schema: schema, Conn: conn}
}

// Name implements exec.Source.
func (s *Source) Name() string {
	if s.SourceName != "" {
		return s.SourceName
	}
	return "remote-source"
}

// OutSchemas implements exec.Source.
func (s *Source) OutSchemas() []stream.Schema { return []stream.Schema{s.Schema} }

// Open implements exec.Source.
func (s *Source) Open(exec.Context) error {
	s.r = newFrameReader(s.Conn, &s.bytesIn)
	s.w = newFrameWriter(s.Conn, 0, &s.feedbackBy)
	return nil
}

// Next implements exec.Source: one frame per call, so one call, one control
// recheck and one batched emit per run of tuples.
func (s *Source) Next(ctx exec.Context) (bool, error) {
	if s.done {
		return false, nil
	}
	if s.ReadTimeout > 0 {
		_ = s.Conn.SetReadDeadline(time.Now().Add(s.ReadTimeout)) // an unsupported deadline only loses the bound
	}
	kind, count, body, err := s.r.next()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.deadlineHits.Add(1)
			return false, fmt.Errorf("remote: no frame from upstream within %v (wedged producer?): %w", s.ReadTimeout, err)
		}
		if err == io.EOF {
			// Only an explicit EOS frame ends the stream cleanly; a bare
			// connection close means the producer died (kill -9, node error
			// teardown) and the consumer's results would be silently
			// partial. Surfacing it lets a supervisor treat the subplan as
			// crashed and restore from the last committed cut.
			s.done = true
			return false, fmt.Errorf("remote: connection closed before end of stream (producer crashed?)")
		}
		return false, err
	}
	s.framesIn.Add(1)
	switch kind {
	case frameTuples:
		if err := s.emitRun(count, body, ctx); err != nil {
			return false, err
		}
	case framePunct:
		var pat punct.Pattern
		if err := pat.UnmarshalBinary(body); err != nil {
			return false, fmt.Errorf("remote: decode punctuation frame: %w", err)
		}
		if a := pat.Arity(); a != s.Schema.Arity() {
			return false, fmt.Errorf("remote: punctuation pattern of arity %d on an edge of arity %d", a, s.Schema.Arity())
		}
		ctx.EmitPunct(punct.NewEmbedded(pat))
	case frameBarrier:
		epoch, n := binary.Varint(body)
		if n <= 0 || len(body) != n {
			return false, fmt.Errorf("remote: malformed barrier frame (%d bytes)", len(body))
		}
		if s.barrierHook != nil {
			// The hook registers the epoch with the local coordinator
			// (forced-epoch checkpoint); the runtime then cuts this source
			// right here — the frame's position in this edge's stream IS the
			// cut, which is what keeps parallel remote edges consistent
			// (each cuts at its own barrier, not when the first edge's
			// barrier registered the epoch).
			if err := s.barrierHook(epoch); err != nil {
				return false, fmt.Errorf("remote: barrier epoch %d: %w", epoch, err)
			}
			if inj, ok := ctx.(exec.SourceBarrierInjector); ok {
				inj.InjectWireBarrier(epoch)
			}
		}
	case frameEOS:
		if len(body) != 0 {
			return false, fmt.Errorf("remote: end-of-stream frame: %d trailing bytes", len(body))
		}
		s.done = true
		return false, nil
	default:
		return false, fmt.Errorf("remote: unexpected %s frame on data path", frameNames[kind])
	}
	return true, nil
}

// emitRun decodes a data frame's tuples into one exec.Slab and emits them as
// one batch before Next returns, so the pages that carry them own the slab
// and recycle it. DecodeTuples draws the slab only once the body is known to
// hold count tuples.
func (s *Source) emitRun(count int, body []byte, ctx exec.Context) error {
	slab := func(n int) []stream.Value { return exec.Slab(ctx, n) }
	run, rest, err := stream.DecodeTuples(s.run[:0], slab, body, s.Schema.Arity(), count)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return fmt.Errorf("remote: decode tuple-run frame: %w", err)
	}
	s.run = run
	s.received.Add(int64(count))
	ctx.EmitBatch(run)
	return nil
}

// ProcessFeedback implements exec.Source: feedback crosses the wire
// against the stream direction.
func (s *Source) ProcessFeedback(_ int, f core.Feedback, _ exec.Context) error {
	s.feedbackOut.Add(1)
	s.w.buf = f.AppendBinary(s.w.buf)
	return s.w.flush(frameFeedback, 0)
}

// Close implements exec.Source.
func (s *Source) Close(exec.Context) error {
	return s.Conn.Close()
}

// TelemetryVars implements telemetry.VarExporter.
func (s *Source) TelemetryVars() []telemetry.Var {
	return []telemetry.Var{
		{Name: "pace_remote_tuples_received_total", Help: "Tuples replayed from the remote producer.", Value: s.received.Load},
		{Name: "pace_remote_frames_received_total", Help: "Frames (tuple run, punct, barrier, EOS) read from the wire.", Value: s.framesIn.Load},
		{Name: "pace_remote_bytes_received_total", Help: "Bytes read from the connection.", Value: s.bytesIn.Load},
		{Name: "pace_remote_bytes_sent_total", Help: "Feedback-path bytes written to the connection.", Value: s.feedbackBy.Load},
		{Name: "pace_remote_feedback_sent_total", Help: "Feedback frames sent to the remote producer.", Value: s.feedbackOut.Load},
		{Name: "pace_remote_deadline_hits_total", Help: "Read deadline expiries (wedged or crashed producer).", Value: s.deadlineHits.Load},
	}
}
