// Series and its helpers implement the measurements the paper's
// experiments report: per-tuple output-time series (the scatter plots of
// Figures 5 and 6) and timeliness accounting against a divergence
// tolerance. Formerly the standalone internal/metrics
// package, folded here so the engine has one metrics home.
package telemetry

import (
	"sync"
	"time"
)

// Class distinguishes the two series in Figures 5/6.
type Class uint8

const (
	// Clean tuples took the cheap path.
	Clean Class = iota
	// Imputed tuples went through IMPUTE.
	Imputed
)

// String names the class.
func (c Class) String() string {
	if c == Clean {
		return "clean"
	}
	return "imputed"
}

// Point is one output observation: tuple Seq (the figures' TupleID axis)
// against wall-clock output time.
type Point struct {
	Seq      int64
	OutputAt time.Duration // since recorder start
	Class    Class
	// LateBy is stream-time lag behind the high watermark at arrival
	// (micros); negative or zero means the tuple itself advanced the
	// watermark.
	LateBy int64
}

// Series records output observations; it is safe for use from a sink
// callback while the graph runs.
type Series struct {
	mu     sync.Mutex
	start  time.Time
	points []Point
	hw     int64
	hwSet  bool
}

// NewSeries starts a recorder; the clock starts immediately.
func NewSeries() *Series {
	return &Series{start: time.Now()}
}

// Observe records one output tuple with its stream timestamp (micros).
func (s *Series) Observe(seq int64, class Class, tsMicros int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	late := int64(0)
	if s.hwSet && tsMicros < s.hw {
		late = s.hw - tsMicros
	}
	if !s.hwSet || tsMicros > s.hw {
		s.hw, s.hwSet = tsMicros, true
	}
	s.points = append(s.points, Point{
		Seq:      seq,
		OutputAt: time.Since(s.start),
		Class:    class,
		LateBy:   late,
	})
}

// Points returns a copy of the recorded observations in arrival order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// LateCount returns how many observations of the class lagged the
// watermark by more than tolerance micros.
func (s *Series) LateCount(class Class, tolerance int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.points {
		if p.Class == class && p.LateBy > tolerance {
			n++
		}
	}
	return n
}

// Sparkline renders a crude terminal visualization of output progress for
// one class: each bucket of wall-clock time shows how many tuples arrived.
func (s *Series) Sparkline(class Class, buckets int) string {
	pts := s.Points()
	if len(pts) == 0 || buckets <= 0 {
		return ""
	}
	var maxAt time.Duration
	for _, p := range pts {
		if p.OutputAt > maxAt {
			maxAt = p.OutputAt
		}
	}
	if maxAt == 0 {
		maxAt = time.Nanosecond
	}
	counts := make([]int, buckets)
	for _, p := range pts {
		if p.Class != class {
			continue
		}
		b := int(int64(p.OutputAt) * int64(buckets) / int64(maxAt+1))
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	peak := 1
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	out := make([]rune, buckets)
	for i, c := range counts {
		out[i] = glyphs[c*(len(glyphs)-1)/peak]
	}
	return string(out)
}
