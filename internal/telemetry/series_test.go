package telemetry

import "testing"

func TestSeriesLatenessAgainstWatermark(t *testing.T) {
	s := NewSeries()
	s.Observe(0, Clean, 1000) // sets hw
	s.Observe(1, Imputed, 400)
	s.Observe(2, Clean, 2000)
	s.Observe(3, Imputed, 1900)
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("points: %d", len(pts))
	}
	if pts[0].LateBy != 0 {
		t.Error("watermark-setting tuple is not late")
	}
	if pts[1].LateBy != 600 {
		t.Errorf("lateness = %d, want 600", pts[1].LateBy)
	}
	if pts[3].LateBy != 100 {
		t.Errorf("lateness = %d, want 100", pts[3].LateBy)
	}
	if pts[0].Class != Clean || pts[1].Class != Imputed {
		t.Error("point classes")
	}
	if s.LateCount(Imputed, 500) != 1 {
		t.Errorf("late count = %d, want 1", s.LateCount(Imputed, 500))
	}
	if s.LateCount(Imputed, 50) != 2 {
		t.Errorf("late count = %d, want 2", s.LateCount(Imputed, 50))
	}
}

func TestSeriesWatermarkMonotone(t *testing.T) {
	s := NewSeries()
	s.Observe(0, Clean, 5000)
	s.Observe(1, Clean, 3000) // regression must not move hw backwards
	s.Observe(2, Clean, 4000)
	pts := s.Points()
	if pts[2].LateBy != 1000 {
		t.Errorf("lateness against a monotone watermark: %d", pts[2].LateBy)
	}
}

func TestSparkline(t *testing.T) {
	s := NewSeries()
	for i := int64(0); i < 100; i++ {
		s.Observe(i, Clean, i)
	}
	line := s.Sparkline(Clean, 10)
	if len([]rune(line)) != 10 {
		t.Errorf("sparkline width: %q", line)
	}
	if s.Sparkline(Imputed, 10) == line {
		t.Log("empty class renders blanks (fine)")
	}
	if NewSeries().Sparkline(Clean, 10) != "" {
		t.Error("empty series renders empty")
	}
}

func TestClassString(t *testing.T) {
	if Clean.String() != "clean" || Imputed.String() != "imputed" {
		t.Error("class names")
	}
}
