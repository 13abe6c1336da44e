package punct

import (
	"testing"

	"repro/internal/stream"
)

func le(us int64) Pred { return Le(stream.TimeMicros(us)) }

func TestSchemeWatermarkProgress(t *testing.T) {
	s := NewScheme(3)
	s.Observe(NewEmbedded(OnAttr(3, 1, le(100))))
	if !s.Delimited(1) || s.Delimited(0) || s.Delimited(2) {
		t.Error("delimitation after one watermark punctuation")
	}
	if w := s.watermark[1]; w == nil || w.Val.Micros() != 100 {
		t.Errorf("watermark: %v", w)
	}
	// Regressing punctuation must not move the watermark backwards.
	s.Observe(NewEmbedded(OnAttr(3, 1, le(50))))
	if w := s.watermark[1]; w.Val.Micros() != 100 {
		t.Errorf("watermark regressed: %v", w)
	}
	s.Observe(NewEmbedded(OnAttr(3, 1, le(200))))
	if w := s.watermark[1]; w.Val.Micros() != 200 {
		t.Errorf("watermark should advance: %v", w)
	}
}

func TestSchemeCoversPattern(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(2, 0, le(100))))
	if !s.CoversPattern(OnAttr(2, 0, le(80))) {
		t.Error("feedback below the watermark should be covered")
	}
	if s.CoversPattern(OnAttr(2, 0, le(120))) {
		t.Error("feedback above the watermark must not be covered")
	}
	// Multi-attribute: covering one conjunct suffices.
	multi := NewPattern(le(80), Ge(stream.Float(50)))
	if !s.CoversPattern(multi) {
		t.Error("covering one bound conjunct excludes the whole subset")
	}
}

func TestSchemeClosedValues(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(2, 0, Eq(stream.Int(4)))))
	if !s.Delimited(0) {
		t.Error("exact-value punctuation delimits the attribute")
	}
	if !s.CoversPattern(OnAttr(2, 0, Eq(stream.Int(4)))) {
		t.Error("closed value must cover equal feedback")
	}
	if s.CoversPattern(OnAttr(2, 0, Eq(stream.Int(5)))) {
		t.Error("different value must not be covered")
	}
	s.Observe(NewEmbedded(OnAttr(2, 0, OneOf(stream.Int(7), stream.Int(8)))))
	if !s.CoversPattern(OnAttr(2, 0, OneOf(stream.Int(4), stream.Int(7)))) {
		t.Error("set feedback covered element-wise")
	}
	if s.CoversPattern(OnAttr(2, 0, OneOf(stream.Int(4), stream.Int(9)))) {
		t.Error("partially closed set must not be covered")
	}
}

func TestSchemeSupportable(t *testing.T) {
	// The paper's §4.4 example: feedback on punctuated timestamps is
	// supportable; feedback on never-punctuated amounts is not.
	s := NewScheme(2) // (ts, amount)
	s.Observe(NewEmbedded(OnAttr(2, 0, le(100))))
	if !s.Supportable(OnAttr(2, 0, le(50))) {
		t.Error("'no bids before 1pm' must be supportable")
	}
	if s.Supportable(OnAttr(2, 1, Gt(stream.Float(1.00)))) {
		t.Error("'no bids over $1' must be unsupportable (amounts never punctuated)")
	}
	// Mixed: ts delimited but amount not → unsupportable as a whole.
	mixed := NewPattern(le(50), Gt(stream.Float(1.00)))
	if s.Supportable(mixed) {
		t.Error("conjunction with an undelimited attribute is unsupportable")
	}
	if s.Supportable(AllWild(2)) {
		t.Error("all-wild is never supportable feedback")
	}
}

func TestSchemeIgnoresMultiAttributePunct(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(NewPattern(le(100), Eq(stream.Float(5)))))
	if s.Delimited(0) || s.Delimited(1) {
		t.Error("multi-attribute punctuation must not delimit conservatively")
	}
}

func TestSchemeArityMismatchSafe(t *testing.T) {
	s := NewScheme(2)
	s.Observe(NewEmbedded(OnAttr(3, 0, le(10)))) // wrong arity: ignored
	if s.Delimited(0) {
		t.Error("wrong-arity punctuation must be ignored")
	}
	if s.Delimited(-1) || s.Delimited(9) {
		t.Error("out-of-range attribute queries must be false")
	}
}
