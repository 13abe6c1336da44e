//go:build race

package queue

import (
	"math"

	"repro/internal/stream"
)

// poison overwrites a slab on its way back to the pool, so that under the
// race detector's build tag a tuple read after its slab was recycled is a
// value of no kind with an unmistakable payload — a loud failure in whatever
// test reads it — instead of a plausible stale or foreign value.
func poison(vals []stream.Value) {
	for i := range vals {
		vals[i] = stream.Value{Kind: 0xFF, I: math.MinInt64, F: math.NaN(), S: "use of a tuple after its slab was recycled"}
	}
}
