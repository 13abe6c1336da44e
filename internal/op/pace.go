package op

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Pace is the paper's specialized UNION (Example 3, §2): it merges K
// same-schema inputs while bounding the divergence between them. Tuples
// whose timestamp lags the high watermark of the timestamps seen by more
// than Tolerance are ignored — they are "too late" for the real-time result
// (the speed map must be current).
//
// Pace is the canonical *producer* of assumed feedback: when it starts
// dropping late tuples, it informs antecedent operators that tuples with
// timestamps at or below the current cutoff are no longer needed
// (¬[…, ≤cutoff, …]), so the expensive upstream path (IMPUTE) can stop
// wasting effort on them. Experiment 1 (Figures 5/6) measures exactly this
// effect.
type Pace struct {
	exec.Base
	snapshot.State
	OpName string
	Schema stream.Schema
	K      int
	// TsAttr is the timestamp attribute compared against the high
	// watermark.
	TsAttr int
	// Tolerance is the maximum allowed lag (in the timestamp's integer
	// domain, micros for KindTime). Zero or negative disables dropping,
	// reducing Pace to a plain UNION — the paper's no-feedback baseline.
	Tolerance int64
	// FeedbackEnabled turns on production of assumed feedback.
	FeedbackEnabled bool
	// FeedbackMinAdvance rate-limits feedback: a new punctuation is sent
	// only once the cutoff advanced by at least this much since the last
	// one (default Tolerance/4).
	FeedbackMinAdvance int64
	// FeedbackSlack tightens the promised cutoff to hw − Tolerance +
	// slack. Promising exactly the drop bound is uselessly late: an
	// upstream exploiter that discards precisely the promised subset
	// then spends its service time on tuples *at* the boundary, which
	// emerge just past it and are dropped anyway — every serviced tuple
	// becomes borderline-late (Experiment 1 exhibits this without
	// slack). The slack gives upstream room to finish in-flight work
	// inside the tolerance. PACE's own output is unaffected by the
	// larger promise: stragglers inside the promised subset that still
	// arrive within Tolerance are passed through, which keeps every
	// downstream consumer within Definition 1's bounds.
	//
	// Default (0) uses Tolerance/2; negative disables slack.
	FeedbackSlack int64

	hw           int64
	hwSet        bool
	lastCutoff   int64
	cutoffSet    bool
	feedbackSeq  int64
	align        aligner
	perIn        []PaceInputStats
	feedbackSent int64
}

// PaceInputStats counts per-input outcomes.
type PaceInputStats struct {
	Passed  int64
	Dropped int64
}

// Name implements exec.Operator.
func (p *Pace) Name() string {
	if p.OpName != "" {
		return p.OpName
	}
	return "pace"
}

func (p *Pace) k() int {
	if p.K <= 0 {
		return 2
	}
	return p.K
}

// InSchemas implements exec.Operator.
func (p *Pace) InSchemas() []stream.Schema {
	in := make([]stream.Schema, p.k())
	for i := range in {
		in[i] = p.Schema
	}
	return in
}

// OutSchemas implements exec.Operator.
func (p *Pace) OutSchemas() []stream.Schema { return []stream.Schema{p.Schema} }

// Open implements exec.Operator.
func (p *Pace) Open(exec.Context) error {
	p.align = newAligner(p.Schema, p.k())
	p.perIn = make([]PaceInputStats, p.k())
	p.keepState()
	return nil
}

// ProcessTuple implements exec.Operator.
func (p *Pace) ProcessTuple(input int, t stream.Tuple, ctx exec.Context) error {
	ts := t.At(p.TsAttr).I
	if p.Tolerance > 0 && p.hwSet && ts < p.hw-p.Tolerance {
		p.perIn[input].Dropped++
		p.maybeFeedback(ctx)
		return nil
	}
	if !p.hwSet || ts > p.hw {
		p.hw, p.hwSet = ts, true
	}
	p.perIn[input].Passed++
	ctx.Emit(t)
	return nil
}

// maybeFeedback issues assumed feedback for the current cutoff, rate
// limited by FeedbackMinAdvance.
func (p *Pace) maybeFeedback(ctx exec.Context) {
	if !p.FeedbackEnabled {
		return
	}
	slack := p.FeedbackSlack
	switch {
	case slack == 0:
		slack = p.Tolerance / 2
	case slack < 0:
		slack = 0
	}
	cutoff := p.hw - p.Tolerance + slack
	minAdv := p.FeedbackMinAdvance
	if minAdv <= 0 {
		minAdv = p.Tolerance / 4
		if minAdv <= 0 {
			minAdv = 1
		}
	}
	if p.cutoffSet && cutoff < p.lastCutoff+minAdv {
		return
	}
	p.lastCutoff, p.cutoffSet = cutoff, true
	p.feedbackSeq++
	// Strict bound: PACE drops ts < hw−tolerance, so it promises exactly
	// that subset (a tuple at the cutoff itself still passes).
	f := core.Feedback{
		Intent:  core.Assumed,
		Pattern: punct.OnAttr(p.Schema.Arity(), p.TsAttr, punct.Lt(stream.Ordinal(p.Schema.Field(p.TsAttr).Kind, cutoff))),
		Origin:  p.Name(),
		Seq:     p.feedbackSeq,
	}
	for i := 0; i < ctx.NumInputs(); i++ {
		ctx.SendFeedback(i, f)
	}
	p.feedbackSent++
}

// ProcessPunct implements exec.Operator: punctuation is aligned across the
// inputs exactly as Merge aligns it. Dropping late tuples only removes tuples
// from the combined stream, so every aligned promise still holds on it.
func (p *Pace) ProcessPunct(input int, e punct.Embedded, ctx exec.Context) error {
	for _, q := range p.align.punct(input, e) {
		ctx.EmitPunct(punct.NewEmbedded(q))
	}
	return nil
}

// ProcessEOS implements exec.Operator.
func (p *Pace) ProcessEOS(input int, ctx exec.Context) error {
	for _, q := range p.align.eos(input) {
		ctx.EmitPunct(punct.NewEmbedded(q))
	}
	return nil
}

// InputStats returns per-input pass/drop counts.
func (p *Pace) InputStats() []PaceInputStats { return append([]PaceInputStats(nil), p.perIn...) }

// FeedbackSent returns how many feedback punctuations were produced.
func (p *Pace) FeedbackSent() int64 { return p.feedbackSent }
