package window

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	if err := Tumbling(60).Validate(); err != nil {
		t.Error(err)
	}
	if err := Sliding(60, 20).Validate(); err != nil {
		t.Error(err)
	}
	for _, s := range []Spec{{Range: 0, Slide: 1}, {Range: 10, Slide: 0}, {Range: 10, Slide: 20}} {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v must be invalid", s)
		}
	}
}

func TestTumblingWindowsOf(t *testing.T) {
	s := Tumbling(60)
	cases := []struct {
		v      int64
		lo, hi int64
	}{
		{0, 0, 0}, {59, 0, 0}, {60, 1, 1}, {125, 2, 2},
	}
	for _, tc := range cases {
		lo, hi := s.WindowsOf(tc.v)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("WindowsOf(%d) = [%d,%d], want [%d,%d]", tc.v, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestSlidingWindowsOf(t *testing.T) {
	s := Sliding(60, 20) // overlap 3
	// v=70: windows starting at 20, 40, 60 cover it (start > 70-60=10,
	// start ≤ 70).
	lo, hi := s.WindowsOf(70)
	if lo != 1 || hi != 3 {
		t.Errorf("WindowsOf(70) = [%d,%d], want [1,3]", lo, hi)
	}
	// Early values clip at window 0.
	lo, hi = s.WindowsOf(5)
	if lo != 0 || hi != 0 {
		t.Errorf("WindowsOf(5) = [%d,%d], want [0,0]", lo, hi)
	}
}

func TestExtent(t *testing.T) {
	s := Sliding(60, 20)
	start, end := s.Extent(3)
	if start != 60 || end != 120 {
		t.Errorf("Extent(3) = [%d,%d)", start, end)
	}
}

func TestLastFullWindow(t *testing.T) {
	s := Tumbling(60)
	cases := []struct {
		wm   int64
		want int64
	}{
		{58, -1}, {59, 0}, {60, 0}, {119, 1}, {120, 1},
	}
	for _, tc := range cases {
		if got := s.LastFullWindow(tc.wm); got != tc.want {
			t.Errorf("LastFullWindow(%d) = %d, want %d", tc.wm, got, tc.want)
		}
	}
	if got := Tumbling(60).LastFullWindow(-1000); got != -1 {
		t.Errorf("far-past watermark: %d", got)
	}
}

// Property: each window WindowsOf names actually contains the value, and its
// neighbours on either side do not.
func TestWindowsOfExtentConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		rng := 1 + r.Int63n(100)
		slide := 1 + r.Int63n(rng)
		s := Spec{Range: rng, Slide: slide}
		v := s.Range + r.Int63n(10000) // away from clip region
		lo, hi := s.WindowsOf(v)
		if lo > hi {
			t.Fatalf("empty window range for covered value: spec %+v v=%d", s, v)
		}
		for w := lo; w <= hi; w++ {
			start, end := s.Extent(w)
			if v < start || v >= end {
				t.Fatalf("window %d extent [%d,%d) does not contain %d (spec %+v)", w, start, end, v, s)
			}
		}
		// Neighbours must not contain v.
		if lo > 0 {
			start, end := s.Extent(lo - 1)
			if v >= start && v < end {
				t.Fatalf("window %d should not contain %d", lo-1, v)
			}
		}
		start, end := s.Extent(hi + 1)
		if v >= start && v < end {
			t.Fatalf("window %d should not contain %d", hi+1, v)
		}
	}
}

// Property: LastFullWindow is consistent with Extent — the returned window
// ends at or before wm+1, and the next window does not.
func TestLastFullWindowConsistency(t *testing.T) {
	f := func(rngSeed, slideSeed, wmSeed int64) bool {
		rng := 1 + abs(rngSeed)%100
		slide := 1 + abs(slideSeed)%rng
		s := Spec{Range: rng, Slide: slide}
		wm := abs(wmSeed) % 100000
		w := s.LastFullWindow(wm)
		if w >= 0 {
			if _, end := s.Extent(w); end-1 > wm {
				return false
			}
		}
		if _, end := s.Extent(w + 1); end-1 <= wm {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		if x == -1<<63 {
			return 0
		}
		return -x
	}
	return x
}

// Property: Assign returns WindowsOf's ids, its interval contains v, and
// WindowsOf is the same at every value of the interval — over tumbling and
// sliding specs, ranges that are no multiple of the slide, and negative
// values.
func TestAssignIntervalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		rng := 1 + r.Int63n(40)
		slide := rng
		if r.Intn(2) == 0 {
			slide = 1 + r.Int63n(rng)
		}
		s := Spec{Range: rng, Slide: slide}
		v := r.Int63n(1000) - 500
		lo, hi, from, to := s.Assign(v)
		if wlo, whi := s.WindowsOf(v); lo != wlo || hi != whi {
			t.Fatalf("spec %+v v=%d: Assign ids [%d,%d], WindowsOf [%d,%d]", s, v, lo, hi, wlo, whi)
		}
		if v < from || v > to {
			t.Fatalf("spec %+v: %d outside its interval [%d,%d]", s, v, from, to)
		}
		if to-from >= slide {
			t.Fatalf("spec %+v v=%d: interval [%d,%d] wider than the slide", s, v, from, to)
		}
		for u := from; u <= to; u++ {
			if ulo, uhi := s.WindowsOf(u); ulo != lo || uhi != hi {
				t.Fatalf("spec %+v: WindowsOf(%d) = [%d,%d] but [%d,%d] across [%d,%d] (v=%d)",
					s, u, ulo, uhi, lo, hi, from, to, v)
			}
		}
	}
	// Where the arithmetic could wrap, the interval is the value alone.
	for _, v := range []int64{-1 << 63, 1<<63 - 1} {
		s := Sliding(10, 3)
		lo, hi, from, to := s.Assign(v)
		if wlo, whi := s.WindowsOf(v); lo != wlo || hi != whi || from != v || to != v {
			t.Fatalf("Assign(%d) = %d %d [%d,%d]", v, lo, hi, from, to)
		}
	}
}
