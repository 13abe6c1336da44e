package gen

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// TestSourcesKeepTheirPromises plays every engine source to the end and
// holds it to embedded punctuation's contract (§3.1): once a source has
// emitted a punctuation, no later tuple of its stream matches it. Each
// punctuation folds into a punct.Scheme, the engine's one record of what a
// stream has promised, and every tuple after it is asked against the record.
func TestSourcesKeepTheirPromises(t *testing.T) {
	kv := stream.MustSchema(stream.F("k", stream.KindInt), stream.F("ts", stream.KindTime))
	tsLe := func(v int64) queue.Item {
		return queue.PunctItem(punct.NewEmbedded(punct.OnAttr(2, 1, punct.Le(stream.TimeMicros(v)))))
	}
	row := func(k, ts int64) queue.Item {
		return queue.TupleItem(stream.NewTuple(stream.Int(k), stream.TimeMicros(ts)))
	}
	sources := []func() exec.Source{
		func() exec.Source {
			src := exec.NewSliceSource("slice", kv)
			src.Items = []queue.Item{row(1, 1), row(2, 1), tsLe(1), row(1, 2), row(3, 2), row(2, 3), tsLe(2),
				queue.PunctItem(punct.NewEmbedded(punct.OnAttr(2, 0, punct.Eq(stream.Int(1))))), row(2, 4), tsLe(4)}
			src.BatchSize = 3
			return src
		},
		func() exec.Source {
			// Runs of equal timestamps: a promise may only come once a run is over.
			src := exec.NewReaderSource("reader", kv, strings.NewReader("1,5\n2,5\n3,5\n1,6\n2,7\n3,7\n1,7\n2,9\n"))
			src.PunctAttr, src.PunctEvery = 1, 1
			return src
		},
		func() exec.Source {
			return &RatedSource{SourceName: "rated", Schema: TrafficSchema,
				Items: ImputationStream(120, 0, 1000, 7), PerSecond: 1e12}
		},
		func() exec.Source {
			return &TrafficSource{Config: TrafficConfig{Segments: 3, DetectorsPerSegment: 4,
				Duration: 5 * 20_000_000, NullRate: 0.2, Noise: 2, Seed: 5}}
		},
		func() exec.Source {
			return &ProbeSource{Config: ProbeConfig{Segments: 3, Duration: 5 * 20_000_000, NoiseRate: 0.1, Noise: 3, Seed: 5}}
		},
		func() exec.Source { return &TickSource{Config: TickConfig{Duration: 4_000_000, Seed: 5}} },
	}
	for _, open := range sources {
		src := open()
		t.Run(src.Name(), func(t *testing.T) {
			arity := src.OutSchemas()[0].Arity()
			promised := punct.NewScheme(arity)
			var said []punct.Pattern
			tuples := 0
			for _, it := range runToEnd(t, src) {
				switch it.Kind {
				case queue.ItemPunct:
					promised.Observe(*it.Punct)
					said = append(said, it.Punct.Pattern)
				case queue.ItemTuple:
					tuples++
					if !promised.CoversPattern(pointOf(it.Tuple)) {
						continue
					}
					for _, p := range said {
						if p.Matches(it.Tuple) {
							t.Fatalf("source %s emitted tuple %v after punctuation %v, which covers it", src.Name(), it.Tuple, p)
						}
					}
					t.Fatalf("source %s emitted tuple %v after its punctuation %v covered it", src.Name(), it.Tuple, said)
				}
			}
			if tuples == 0 || len(said) == 0 {
				t.Fatalf("source %s emitted %d tuples and %d punctuations: nothing was checked", src.Name(), tuples, len(said))
			}
		})
	}
}

// pointOf is the pattern only t matches: each attribute equal to its value
// (a null one left wild, which can only hide a cover, never invent one).
func pointOf(t stream.Tuple) punct.Pattern {
	preds := make([]punct.Pred, len(t.Values))
	for i, v := range t.Values {
		preds[i] = punct.Wild
		if !v.IsNull() {
			preds[i] = punct.Eq(v)
		}
	}
	return punct.NewPattern(preds...)
}
