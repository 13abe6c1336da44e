package experiments

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/plan"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

// ParallelTrafficItems builds the punctuated traffic stream used by the
// partitioned-aggregate scaling benchmarks (bench_test.go): 64 segments so
// hash partitioning spreads across up to 8 partitions, punctuation every
// 512 tuples.
func ParallelTrafficItems(n int) []queue.Item {
	items := make([]queue.Item, 0, n+n/512+1)
	ts := int64(0)
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			ts += 1000
		}
		items = append(items, queue.TupleItem(stream.NewTuple(
			stream.Int(int64(i%64)), stream.Int(int64(i%40)),
			stream.TimeMicros(ts), stream.Float(55))))
		if i%512 == 511 {
			items = append(items, queue.PunctItem(punct.NewEmbedded(
				punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(ts-1))))))
		}
	}
	items = append(items, queue.PunctItem(punct.NewEmbedded(
		punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(ts))))))
	return items
}

// RunParallelAggregate builds and runs one n-way partitioned aggregate
// plan — source → split(segment) → parts × aggregate → merge → discard
// sink — through plan.Stream.Parallel. The per-tuple cost (work units)
// makes the aggregate compute-bound so the n-curve tracks available cores.
func RunParallelAggregate(parts int, items []queue.Item, cost int) error {
	const minute = int64(60_000_000)
	b := plan.New()
	src := &exec.SliceSource{SourceName: "src", Schema: gen.TrafficSchema, Items: items, BatchSize: 256}
	out := b.Source(src).Parallel("part", parts, []string{"segment"}, func(ss plan.Stream) plan.Stream {
		return ss.Through(&op.Aggregate{OpName: "agg", In: gen.TrafficSchema, Kind: core.AggAvg,
			TsAttr: 2, ValAttr: 3, GroupBy: []int{0}, Window: window.Tumbling(minute),
			ValueName: "avg_speed", Cost: cost, Mode: op.FeedbackExploit, Propagate: true})
	})
	sink := exec.NewCollector("sink", out.Schema())
	sink.Discard = true
	out.Into(sink)
	return b.Run()
}
