// Package window implements WID-style window extent assignment (Li et al.,
// SIGMOD 2005), the windowing substrate of NiagaraST's out-of-order
// processing architecture. Windows are identified by integer ids computed
// from the windowing attribute; operators never buffer or reorder tuples to
// form windows — they assign each tuple to its window extents and rely on
// embedded punctuation to learn when a window is complete.
package window

import (
	"fmt"
)

// Spec describes a time-based (or any ordered-integer-domain) window.
// Range is the window length and Slide the distance between consecutive
// window starts, in the same units as the windowing attribute (Unix
// microseconds for KindTime attributes). Range == Slide gives tumbling
// windows; Slide < Range gives overlapping sliding windows.
type Spec struct {
	Range int64
	Slide int64
	// Origin anchors window 0's start; window w covers
	// [Origin + w*Slide, Origin + w*Slide + Range).
	Origin int64
}

// Tumbling builds a non-overlapping spec.
func Tumbling(rng int64) Spec { return Spec{Range: rng, Slide: rng} }

// Sliding builds an overlapping spec.
func Sliding(rng, slide int64) Spec { return Spec{Range: rng, Slide: slide} }

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	if s.Range <= 0 {
		return fmt.Errorf("window: range must be positive, got %d", s.Range)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: slide must be positive, got %d", s.Slide)
	}
	if s.Slide > s.Range {
		return fmt.Errorf("window: slide %d > range %d would drop tuples", s.Slide, s.Range)
	}
	return nil
}

// WindowsOf returns the inclusive id range [lo, hi] of windows containing
// value v. For tumbling windows lo == hi.
func (s Spec) WindowsOf(v int64) (lo, hi int64) {
	rel := v - s.Origin
	// hi: the last window starting at or before rel.
	hi = floorDiv(rel, s.Slide)
	// lo: the first window whose extent still covers rel:
	// start > rel - Range  ⇒  w*Slide > rel - Range.
	lo = floorDiv(rel-s.Range, s.Slide) + 1
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		hi = -1 // value precedes window 0: empty range (lo > hi)
	}
	return lo, hi
}

// Assign returns WindowsOf(v) together with the inclusive value interval
// [from, to], which contains v, over which WindowsOf returns the same ids: a
// caller assigning a run of nearby values divides again only for a value
// outside it. Far from zero (|v|, |Origin| or Range at 2^60 or beyond, where
// the arithmetic below could wrap) the interval is v alone.
func (s Spec) Assign(v int64) (lo, hi, from, to int64) {
	lo, hi = s.WindowsOf(v)
	const far = 1 << 60
	if v <= -far || v >= far || s.Origin <= -far || s.Origin >= far || s.Range >= far {
		return lo, hi, v, v
	}
	// hi changes where rel crosses a window start, lo where rel-Range does:
	// rel lies r1 past the one and r2 past the other, each less than Slide.
	rel := v - s.Origin
	r1, r2 := floorMod(rel, s.Slide), floorMod(rel-s.Range, s.Slide)
	return lo, hi, v - min(r1, r2), v + s.Slide - 1 - max(r1, r2)
}

// Extent returns the half-open value interval [start, end) of window w.
func (s Spec) Extent(w int64) (start, end int64) {
	start = s.Origin + w*s.Slide
	return start, start + s.Range
}

// LastFullWindow returns the greatest window id whose extent is entirely at
// or below the watermark wm (i.e. end-1 ≤ wm), or -1 if none. Operators
// call this on embedded punctuation [*,…,≤wm,…] to learn which windows are
// complete and may be emitted and purged.
func (s Spec) LastFullWindow(wm int64) int64 {
	// end = Origin + w*Slide + Range ≤ wm+1  ⇒  w ≤ (wm+1-Origin-Range)/Slide.
	w := floorDiv(wm+1-s.Origin-s.Range, s.Slide)
	if w < -1 {
		return -1
	}
	return w
}

// floorMod is a - floorDiv(a, b)*b, in [0, b) for b > 0.
func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// floorDiv divides rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
