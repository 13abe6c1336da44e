// Package archive simulates the archival database that the paper's IMPUTE
// operator queries ("an archival lookup of similar tuples to produce an
// estimate ... one database query is issued per tuple").
//
// Substitution note (see DESIGN.md): the paper used a real DBMS on the test
// machine; we use an in-memory historical store with a calibrated lookup
// cost. Experiment 1 only depends on the lookup being much more expensive
// than the clean path, which the cost model preserves.
package archive

import (
	"fmt"
	"sync"

	"repro/internal/work"
)

// Reading is one historical observation for a (segment, detector) location.
type Reading struct {
	Segment  int64
	Detector int64
	// MinuteOfDay is the time-of-day bucket (0..1439).
	MinuteOfDay int
	Speed       float64
}

// Store is a seeded in-memory archive of historical readings, indexed by
// location and time-of-day bucket. Lookups burn a configurable number of
// work units to model query latency on the archival DBMS.
type Store struct {
	mu sync.RWMutex
	// byKey maps (segment, detector, minuteBucket) → mean speed and count.
	byKey map[archKey]*bucket

	// LookupCost is the CPU units burned per Lookup (the "database
	// query"). The imputation experiment sets this ≫ per-tuple pipeline
	// cost.
	LookupCost int
	meter      work.Meter
	lookups    int64
}

type archKey struct {
	segment, detector int64
	minuteBucket      int
}

type bucket struct {
	sum   float64
	count int64
}

// bucketMinutes is the width of a time-of-day bucket.
const bucketMinutes = 15

// NewStore creates an empty archive with the given per-lookup cost.
func NewStore(lookupCost int) *Store {
	return &Store{byKey: map[archKey]*bucket{}, LookupCost: lookupCost}
}

// Add inserts one historical reading.
func (s *Store) Add(r Reading) {
	k := archKey{r.Segment, r.Detector, r.MinuteOfDay / bucketMinutes}
	s.mu.Lock()
	b := s.byKey[k]
	if b == nil {
		b = &bucket{}
		s.byKey[k] = b
	}
	b.sum += r.Speed
	b.count++
	s.mu.Unlock()
}

// SeedDiurnal populates the archive with a plausible diurnal speed profile
// for the given location grid: free-flow overnight, rush-hour slowdowns
// around minute 480 (8am) and 1020 (5pm). It gives IMPUTE something
// deterministic to estimate from.
func (s *Store) SeedDiurnal(segments, detectorsPerSegment int) {
	for seg := int64(0); seg < int64(segments); seg++ {
		for det := int64(0); det < int64(detectorsPerSegment); det++ {
			for m := 0; m < 24*60; m += bucketMinutes {
				s.Add(Reading{
					Segment:     seg,
					Detector:    det,
					MinuteOfDay: m,
					Speed:       DiurnalSpeed(m, seg),
				})
			}
		}
	}
}

// DiurnalSpeed is the deterministic ground-truth profile used by the seed
// and by generators: ~60 mph free flow with two rush-hour dips whose depth
// varies by segment.
func DiurnalSpeed(minuteOfDay int, segment int64) float64 {
	speed := 60.0
	dip := func(center, width, depth float64) float64 {
		d := float64(minuteOfDay) - center
		if d < 0 {
			d = -d
		}
		if d > width {
			return 0
		}
		return depth * (1 - d/width)
	}
	depth := 25.0 + 2.0*float64(segment%5)
	speed -= dip(480, 120, depth)  // morning rush around 8:00
	speed -= dip(1020, 150, depth) // evening rush around 17:00
	if speed < 5 {
		speed = 5
	}
	return speed
}

// Lookup issues one archival query: the historical mean speed for the
// location at the given time of day. It burns LookupCost units to model
// the per-query expense. The boolean reports whether history exists.
func (s *Store) Lookup(segment, detector int64, minuteOfDay int) (float64, bool) {
	s.meter.Do(s.LookupCost)
	k := archKey{segment, detector, minuteOfDay / bucketMinutes}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	b := s.byKey[k]
	if b == nil || b.count == 0 {
		return 0, false
	}
	return b.sum / float64(b.count), true
}

// Lookups returns how many queries have been issued.
func (s *Store) Lookups() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookups
}

// Size returns the number of (location, bucket) entries.
func (s *Store) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKey)
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("archive{entries=%d, lookups=%d, cost=%d}", s.Size(), s.Lookups(), s.LookupCost)
}
