package exec

import (
	"strings"
	"testing"

	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// TestPromiseBreach holds the one check of embedded punctuation's contract
// (§3.1) to each way a punctuation covers a tuple: sent after the
// punctuation, the covered tuple is a breach that names it and the covering
// pattern; sent before it, or beside a tuple the punctuation does not cover,
// it is none. A Collector restored from a record holding the punctuation
// refuses the covered tuple too.
func TestPromiseBreach(t *testing.T) {
	kts := stream.MustSchema(stream.F("k", stream.KindInt), stream.F("ts", stream.KindTime))
	row := func(k stream.Value, ts int64) stream.Tuple { return stream.NewTuple(k, stream.TimeMicros(ts)) }
	for _, tc := range []struct {
		name          string
		said          punct.Pattern
		covered, kept stream.Tuple
	}{
		{"progress", punct.OnAttr(2, 1, punct.Le(stream.TimeMicros(5))), row(stream.Int(9), 5), row(stream.Int(9), 6)},
		{"exact", punct.OnAttr(2, 0, punct.Eq(stream.Int(3))), row(stream.Int(3), 9), row(stream.Int(4), 9)},
		{"in", punct.OnAttr(2, 0, punct.OneOf(stream.Int(1), stream.Int(3))), row(stream.Int(3), 9), row(stream.Int(2), 9)},
		{"key and ts", punct.NewPattern(punct.Eq(stream.Int(2)), punct.Le(stream.TimeMicros(9))), row(stream.Int(2), 7), row(stream.Int(3), 7)},
		// A null attribute is IS NULL: a check that left it wild would miss this.
		{"null", punct.OnAttr(2, 0, punct.Pred{Op: punct.IsNull}), row(stream.Null, 1), row(stream.Int(0), 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			said := queue.PunctItem(punct.NewEmbedded(tc.said))
			breach := func(err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.covered.String()) || !strings.Contains(err.Error(), tc.said.String()) {
					t.Fatalf("%v after %v: %v, want a breach naming both", tc.covered, tc.said, err)
				}
			}
			breach(PromiseBreach(2, []queue.Item{said, queue.TupleItem(tc.covered)}))
			if err := PromiseBreach(2, []queue.Item{queue.TupleItem(tc.covered), said, queue.TupleItem(tc.kept)}); err != nil {
				t.Fatalf("%v before %v and %v after it: %v", tc.covered, tc.said, tc.kept, err)
			}

			// A Collector holds its input to the punctuation it received
			// before the cut it was restored from.
			c, enc := NewCollector("sink", kts), snapshot.NewEncoder()
			if tr := Drive(c, Items(0, said), Call(func(*Trace) { snapshot.EncodeCapture(c, enc) })); tr.Err != nil {
				t.Fatal(tr.Err)
			}
			blob, _ := enc.Bytes()
			breach(Drive(NewCollector("sink", kts), Restore(blob), Tuples(0, tc.kept, tc.covered)).Err)
		})
	}
}

// TestDriveBlamesTheBreach: Drive refuses a script that breaks its promise
// before it runs, and a driven node's breach is the run's error naming the
// node and its output.
func TestDriveBlamesTheBreach(t *testing.T) {
	le := func(v int64) punct.Embedded { return punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(stream.Int(v)))) }
	for _, tc := range []struct {
		name, want string
		tr         func() *Trace
	}{
		{"script", `exec: the script's input 0: tuple <3> follows punctuation [<=5], which covers it`, func() *Trace {
			return Drive(&passthrough{name: "relay"}, Punct(0, le(5)), Tuples(0, intTuple(3)))
		}},
		{"operator", `exec: node "recorder": "liar" output 0: tuple <3> follows punctuation [<=3], which covers it`, func() *Trace {
			return Drive(&liar{passthrough{name: "liar"}}, Tuples(0, intTuple(3)))
		}},
		{"source", `exec: node "recorder": "src" output 0: tuple <3> follows punctuation [<=5], which covers it`, func() *Trace {
			src := NewSliceSource("src", oneInt)
			src.Items = []queue.Item{queue.PunctItem(le(5)), queue.TupleItem(intTuple(3))}
			return DriveSource(src)
		}},
	} {
		if err := tc.tr().Err; err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %s", tc.name, err, tc.want)
		}
	}
}

// liar promises each tuple's value done, then sends the tuple.
type liar struct{ passthrough }

func (l *liar) ProcessTuple(_ int, t stream.Tuple, ctx Context) error {
	ctx.EmitPunct(punct.NewEmbedded(punct.OnAttr(1, 0, punct.Le(t.At(0)))))
	ctx.Emit(t)
	return nil
}
