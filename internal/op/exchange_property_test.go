package op

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
)

// TestMergeAlignmentProperty drives K partition streams with randomly
// interleaved tuples and watermark punctuation through the concurrent
// runtime (run under -race in CI) and checks the alignment safety
// property on the merged stream: punctuation is a promise, so no tuple
// matching an already-emitted pattern may appear after it. One partition
// goes EOS early each round; the run completing at all is the liveness
// half (alignment must not deadlock waiting on an ended input).
func TestMergeAlignmentProperty(t *testing.T) {
	for round := int64(0); round < 12; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41 + round))
			k := 2 + rng.Intn(3)

			g := exec.NewGraph()
			g.SetQueueOptions(queue.Options{PageSize: 1 + rng.Intn(8)})
			mg := &Merge{Schema: trafficSchema, K: k, Mode: FeedbackExploit, Propagate: true}
			ports := make([]exec.Port, k)
			for part := 0; part < k; part++ {
				n := 40 + rng.Intn(120)
				if part == k-1 {
					n = 1 + rng.Intn(5) // this partition ends early
				}
				src := &exec.SliceSource{
					SourceName: fmt.Sprintf("part%d", part),
					Schema:     trafficSchema,
					Items:      partitionScript(rng, int64(part), n),
					BatchSize:  1 + rng.Intn(4),
				}
				ports[part] = exec.From(g.AddSource(src))
			}
			mid := g.Add(mg, ports...)
			sink := exec.NewCollector("sink", trafficSchema)
			g.Add(sink, exec.From(mid))

			done := make(chan error, 1)
			go func() { done <- g.Run() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("partitioned run deadlocked")
			}

			// Safety: no tuple matching an earlier emitted pattern.
			var promised []punct.Pattern
			for i, it := range sink.Items() {
				switch it.Kind {
				case queue.ItemPunct:
					promised = append(promised, it.Punct.Pattern)
				case queue.ItemTuple:
					for _, p := range promised {
						if p.Matches(it.Tuple) {
							t.Fatalf("item %d: tuple %v arrived after punctuation %v promised its subset complete",
								i, it.Tuple, p)
						}
					}
				}
			}
		})
	}
}

// partitionScript builds one partition's substream: strictly increasing
// timestamps with punctuation inserted at random points, each asserting
// exactly the prefix already emitted (correct per-partition watermark
// discipline).
func partitionScript(rng *rand.Rand, seg int64, n int) []queue.Item {
	var items []queue.Item
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += 1 + int64(rng.Intn(500))
		items = append(items, queue.TupleItem(traffic(seg, int64(i%7), ts, 40+float64(rng.Intn(30)))))
		if rng.Intn(4) == 0 {
			items = append(items, queue.PunctItem(tsPunct(ts)))
		}
	}
	items = append(items, queue.PunctItem(tsPunct(ts)))
	return items
}
