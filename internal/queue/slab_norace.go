//go:build !race

package queue

import "repro/internal/stream"

// poison is the race build's use-after-release sentinel; without the tag a
// recycled slab is not written.
func poison([]stream.Value) {}
