// Package scrape is the atomicfield fixture for the telemetry half of the
// §11 split: a Var's func-literal Value runs on the scrape goroutine, so
// it must not read plain numeric fields.
package scrape

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

type opStats struct {
	in      atomic.Int64
	matched int64
	high    int64
}

func (s *opStats) vars() []telemetry.Var {
	return []telemetry.Var{
		{Name: "op_in_total", Value: s.in.Load}, // ok: atomic method value
		{Name: "op_matched_total", Value: func() int64 {
			return s.matched // want "scrape closure reads plain field"
		}},
		{Name: "op_high_watermark", Value: func() int64 {
			return s.high //pace:allow-nonatomic updated only before the registry is wired
		}},
	}
}
