package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/work"
)

// clock is the paced phase's arrival schedule, shared by the source (which
// keeps it) and the sink (which times results against it). The stream
// arrives in bursts of burst tuples, burst k being due at start + k·tick:
// an open-loop schedule fixed before the run, so a slow system does not
// receive less load, and a result's latency counts from when its last
// contributing event was due, not from when a stalled generator got round
// to sending it.
type clock struct {
	start time.Time
	burst int64
	tick  time.Duration
}

// dueNs is when the burst holding position pos is due, in ns since start.
func (c *clock) dueNs(pos int64) int64 { return pos / c.burst * int64(c.tick) }

func (c *clock) nowNs() int64 { return int64(time.Since(c.start)) }

// chunk caps how many tuples one Next call emits, so that control messages
// (feedback, checkpoint cuts) are seen between calls.
const chunk = 256

// source generates a workload's input on the fly, one goroutine, from
// (seed, position). Its only state is the cursor, which it captures like any
// engine source; remote_checkpointed also uses the capture call as the signal
// that a requested checkpoint has cut the stream at the cursor.
type source struct {
	name string
	in   *input
	n    int64

	// clk, when set, paces emission (open loop); nil drains as fast as the
	// bounded queues allow (closed loop).
	clk *clock
	// late holds one sample per burst: how long after its due time the
	// generator started it. behindMid/behindEnd are the tuples due but not
	// yet emitted at the middle and at the last burst.
	late                 []int64
	behindMid, behindEnd int64

	// ckptEvery > 0 asks for a checkpoint each time the cursor reaches a
	// multiple of it: the position is sent on ckptReq and the source idles
	// until the runtime has cut it there (CaptureState).
	ckptEvery int64
	ckptReq   chan int64
	cuts      atomic.Int64
	asked     int64

	pos   int64
	batch []stream.Tuple
}

func (s *source) Name() string                { return s.name }
func (s *source) OutSchemas() []stream.Schema { return []stream.Schema{inSchema} }
func (s *source) Open(exec.Context) error     { return nil }
func (s *source) Close(exec.Context) error    { return nil }
func (s *source) ProcessFeedback(int, core.Feedback, exec.Context) error {
	return nil
}

// Next implements exec.Source: at most one chunk of tuples, never crossing a
// punctuation, a burst or a checkpoint position.
func (s *source) Next(ctx exec.Context) (bool, error) {
	if s.pos >= s.n {
		return false, nil
	}
	if s.ckptEvery > 0 && s.pos > 0 && s.pos%s.ckptEvery == 0 && s.pos/s.ckptEvery > s.cuts.Load() {
		if at := s.pos / s.ckptEvery; at > s.asked {
			s.asked = at
			s.ckptReq <- s.pos
		}
		// The cut happens between two Next calls once the coordinator has
		// registered the epoch; emit nothing until then so it lands here.
		runtime.Gosched()
		return true, nil
	}
	if s.clk != nil && s.pos%s.clk.burst == 0 {
		s.awaitBurst()
	}
	end := min(s.pos+chunk, s.n, s.pos-s.pos%s.in.block+s.in.block)
	if s.ckptEvery > 0 {
		end = min(end, s.pos-s.pos%s.ckptEvery+s.ckptEvery)
	}
	arity := inSchema.Arity()
	vals := make([]stream.Value, int(end-s.pos)*arity)
	batch := s.batch[:0]
	for i := s.pos; i < end; i++ {
		v := vals[:arity:arity]
		vals = vals[arity:]
		s.in.fill(v, i)
		if s.in.cost > 0 {
			work.Units(s.in.cost)
		}
		batch = append(batch, stream.Tuple{Values: v, Seq: i})
	}
	s.batch = batch
	if be, ok := ctx.(exec.BatchEmitter); ok {
		be.EmitBatch(batch)
	} else {
		for _, t := range batch {
			ctx.Emit(t)
		}
	}
	s.pos = end
	if end%s.in.block == 0 {
		ctx.EmitPunct(s.in.punctAfter(end/s.in.block - 1))
	}
	return s.pos < s.n, nil
}

// timerSlack is how far ahead of a due time the generator stops sleeping and
// starts polling the clock: timers on the measured container fire up to
// 1.2 ms late, which as burst lateness would be charged to the system.
const timerSlack = 1500 * time.Microsecond

// awaitBurst waits until the burst at the cursor is due — asleep while that
// is further off than a timer can be trusted, then yielding in a loop — and
// records how late the generator then is.
func (s *source) awaitBurst() {
	k := s.pos / s.clk.burst
	due := k * int64(s.clk.tick)
	now := s.clk.nowNs()
	if ahead := time.Duration(due - now); ahead > timerSlack {
		time.Sleep(ahead - timerSlack)
		now = s.clk.nowNs()
	}
	for now < due {
		runtime.Gosched()
		now = s.clk.nowNs()
	}
	s.late = append(s.late, now-due)
	bursts := (s.n + s.clk.burst - 1) / s.clk.burst
	if k == bursts/2 || k == bursts-1 {
		behind := (now/int64(s.clk.tick) - k) * s.clk.burst
		if k == bursts-1 {
			s.behindEnd = behind
		} else {
			s.behindMid = behind
		}
	}
}

// CaptureState implements snapshot.TwoPhase.
func (s *source) CaptureState(snapshot.CaptureMode) (snapshot.Capture, error) {
	pos := s.pos
	s.cuts.Add(1)
	return snapshot.Capture{Encode: func(enc *snapshot.Encoder) error {
		enc.PutInt64(pos)
		return nil
	}}, nil
}

// SaveState implements snapshot.Stater.
func (s *source) SaveState(enc *snapshot.Encoder) error { return snapshot.EncodeCapture(s, enc) }

// LoadState implements snapshot.Stater.
func (s *source) LoadState(dec *snapshot.Decoder) error {
	s.pos = dec.GetInt64()
	return dec.Err()
}
