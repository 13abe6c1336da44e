package plan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
	"repro/internal/window"
)

var testSchema = stream.MustSchema(
	stream.F("segment", stream.KindInt),
	stream.F("ts", stream.KindTime),
	stream.F("speed", stream.KindFloat),
)

func reading(seg, tsUS int64, speed float64) stream.Tuple {
	return stream.NewTuple(stream.Int(seg), stream.TimeMicros(tsUS), stream.Float(speed))
}

func testSource(name string, tuples ...stream.Tuple) *exec.SliceSource {
	return exec.NewSliceSource(name, testSchema, tuples...)
}

func TestBuilderLinearPlan(t *testing.T) {
	b := New()
	sink := b.Source(testSource("s",
		reading(1, 10, 50), reading(2, 20, 60), reading(1, 30, 70),
	)).
		Select("fast", func(t stream.Tuple) bool { return t.At(2).AsFloat() >= 60 }).
		Project("narrow", "segment", "speed").
		Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 2 || got[0].Arity() != 2 {
		t.Fatalf("plan output: %v", got)
	}
}

func TestBuilderErrorsSurfaceAtRun(t *testing.T) {
	b := New()
	b.Source(testSource("s")).Project("bad", "nope").Collect("sink")
	if err := b.Run(); err == nil {
		t.Fatal("projection of a missing attribute must fail")
	}
}

func TestBuilderAggregate(t *testing.T) {
	b := New()
	sink := b.Source(testSource("s",
		reading(1, 10, 40), reading(1, 20, 60),
	)).
		Aggregate("avg", core.AggAvg, "ts", "speed", []string{"segment"}, window.Tumbling(60), "avg_speed").
		Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 1 || got[0].At(2).AsFloat() != 50 {
		t.Fatalf("aggregate output: %v", got)
	}
}

func TestBuilderJoinAndDuplicate(t *testing.T) {
	b := New()
	outs := b.Source(testSource("s", reading(1, 10, 50))).Duplicate("dup", 2)
	joined := join(t, "j", outs[0], outs[1], []string{"segment", "ts"}, []string{"segment", "ts"}, "ts", "ts")
	sink := joined.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Tuples(); len(got) != 1 || got[0].Arity() != 4 {
		t.Fatalf("join output: %v", got)
	}
}

// TestJoinOffItsTimestampsIsRefused: a join whose timestamps are not a
// join-key pair would purge on punctuation by a rule that makes its output
// depend on how its inputs interleave. Its plan fails at the first timestamp
// punctuation with an error that names the join, and the same join driven
// by hand gets the same error there, after joining what came before.
func TestJoinOffItsTimestampsIsRefused(t *testing.T) {
	tsLe := punct.NewEmbedded(punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(20))))
	src := testSource("s", reading(1, 10, 50), reading(2, 20, 60))
	src.Items = []queue.Item{queue.PunctItem(tsLe)}
	b := New()
	outs := b.Source(src).Duplicate("dup", 2)
	join(t, "by-segment", outs[0], outs[1], []string{"segment"}, []string{"segment"}, "ts", "ts").Collect("sink")
	err := b.Run()
	if err == nil || !strings.Contains(err.Error(), `join "by-segment"`) {
		t.Fatalf("a plan joining on segment alone ran with %v, want an error naming the join", err)
	}

	j := &op.Join{OpName: "by-segment", Left: testSchema, Right: testSchema,
		LeftKeys: []int{0}, RightKeys: []int{0}, LeftTs: 1, RightTs: 1}
	tr := exec.Drive(j, exec.Tuples(0, reading(1, 10, 50)), exec.Tuples(1, reading(1, 20, 60)), exec.Punct(1, tsLe))
	if cause := errors.Unwrap(tr.Err); cause == nil || !strings.Contains(err.Error(), cause.Error()) {
		t.Fatalf("driven by hand: %v, want the plan's error %v", tr.Err, err)
	}
	if got := tr.Out[0].Tuples(); len(got) != 1 {
		t.Fatalf("driven by hand, the join emitted %v before the punctuation, want the one pair", got)
	}
}

// TestMultiInputWiringRefusesBadAndForeignStreams: a multi-input method given
// a stream that carries an earlier error adds nothing, and one given a stream
// of another builder fails the plan instead of wiring whatever node of this
// graph has that stream's id.
func TestMultiInputWiringRefusesBadAndForeignStreams(t *testing.T) {
	wirings := []struct {
		name string
		wire func(x, y Stream) Stream
	}{
		{"union", func(x, y Stream) Stream { return x.Union("m", y) }},
		{"pace", func(x, y Stream) Stream { return x.Pace("m", "ts", 1000, y) }},
		{"through", func(x, y Stream) Stream {
			return x.Through(&op.Merge{OpName: "m", Schema: testSchema, K: 2}, y)
		}},
	}
	others := []struct {
		name    string
		other   func(b *Builder) Stream
		wantErr string
	}{
		{"bad", func(b *Builder) Stream { return b.Source(testSource("y")).Project("broken", "nope") }, "nope"},
		{"foreign", func(*Builder) Stream { return New().Source(testSource("y")) }, "another builder"},
	}
	for _, w := range wirings {
		for _, o := range others {
			b := New()
			out := w.wire(b.Source(testSource("x")), o.other(b))
			if !out.bad {
				t.Errorf("%s of a %s stream returned a usable stream", w.name, o.name)
			}
			if err := b.Err(); err == nil || !strings.Contains(err.Error(), o.wantErr) {
				t.Errorf("%s of a %s stream: Err() = %v, want %q", w.name, o.name, err, o.wantErr)
			}
			if plan := b.Explain(); strings.Contains(plan, ": m <-") {
				t.Errorf("%s of a %s stream added a node:\n%s", w.name, o.name, plan)
			}
		}
	}
}

// TestDuplicateBadStreamAndCount: Duplicate of a bad stream is n bad
// streams, and n < 1 is refused the way Parallel refuses it.
func TestDuplicateBadStreamAndCount(t *testing.T) {
	b := New()
	outs := b.Source(testSource("s")).Project("broken", "nope").Duplicate("d", 3)
	if len(outs) != 3 {
		t.Fatalf("Duplicate(3) of a bad stream gave %d streams", len(outs))
	}
	for i, o := range outs {
		if !o.bad {
			t.Errorf("copy %d of a bad stream is usable", i)
		}
	}
	outs[2].Collect("sink")
	if b.Graph().NumNodes() != 1 {
		t.Errorf("a bad stream's copies added nodes:\n%s", b.Explain())
	}

	for _, n := range []int{0, -1} {
		b := New()
		if outs := b.Source(testSource("s")).Duplicate("d", n); len(outs) != 0 {
			t.Errorf("Duplicate(%d) gave %d streams", n, len(outs))
		}
		if err := b.Err(); err == nil || !strings.Contains(err.Error(), "need n ≥ 1") {
			t.Errorf("Duplicate(%d): Err() = %v, want a refusal", n, err)
		}
	}
}

func TestQuerySelectWhere(t *testing.T) {
	cat := Catalog{"traffic": testSource("traffic",
		reading(1, 10, 50), reading(2, 20, 30), reading(3, 30, 70),
	)}
	b, s, err := Parse("SELECT * FROM traffic WHERE speed >= 50 AND segment != 3", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 1 || got[0].At(0).AsInt() != 1 {
		t.Fatalf("query output: %v", got)
	}
}

func TestQueryProjection(t *testing.T) {
	cat := Catalog{"traffic": testSource("traffic", reading(1, 10, 50))}
	b, s, err := Parse("SELECT speed, segment FROM traffic", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 1 || got[0].Arity() != 2 || got[0].At(0).AsFloat() != 50 {
		t.Fatalf("projection output: %v", got)
	}
}

func TestQueryGroupByWindow(t *testing.T) {
	cat := Catalog{"traffic": testSource("traffic",
		reading(1, 10, 40), reading(1, 20, 60), reading(2, 30, 30),
	)}
	b, s, err := Parse(
		"SELECT segment, AVG(speed) AS mean FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts", cat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema().Index("mean") != 2 {
		t.Fatalf("alias not applied: %s", s.Schema())
	}
	sink := s.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 2 {
		t.Fatalf("group-by output: %v", got)
	}
	if got[0].At(2).AsFloat() != 50 || got[1].At(2).AsFloat() != 30 {
		t.Fatalf("averages: %v", got)
	}
}

func TestQueryCountStar(t *testing.T) {
	cat := Catalog{"traffic": testSource("traffic",
		reading(1, 10, 40), reading(1, 20, 60),
	)}
	b, s, err := Parse("SELECT segment, COUNT(*) FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 1 || got[0].At(2).AsFloat() != 2 {
		t.Fatalf("count output: %v", got)
	}
}

// TestQueryUnionWithPace parses the paper's §3.3 example syntax.
func TestQueryUnionWithPace(t *testing.T) {
	cat := Catalog{
		"stream1": testSource("stream1", reading(1, 2_000_000, 50)),
		"stream2": testSource("stream2", reading(2, 60_000_000+2_000_001, 60), reading(3, 1_000_000, 70)),
	}
	b, s, err := Parse(
		"SELECT * FROM stream1 UNION stream2 WITH PACE ON MAX(stream1.ts, stream2.ts) 1 MINUTE", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	// Readings lagging the 62 s high watermark by over a minute are
	// dropped by PACE. How many lag depends on the interleaving of the
	// two source goroutines, but the watermark-setting tuple itself must
	// always survive.
	got := sink.Tuples()
	if len(got) < 1 || len(got) > 3 {
		t.Fatalf("pace output: %v", got)
	}
	foundHW := false
	for _, tp := range got {
		if tp.At(0).AsInt() == 2 {
			foundHW = true
		}
	}
	if !foundHW {
		t.Fatalf("watermark tuple missing: %v", got)
	}
}

func TestQueryPlainUnion(t *testing.T) {
	cat := Catalog{
		"a": testSource("a", reading(1, 10, 50)),
		"b": testSource("b", reading(2, 20, 60)),
	}
	bld, s, err := Parse("SELECT * FROM a UNION b", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := bld.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Tuples(); len(got) != 2 {
		t.Fatalf("union output: %v", got)
	}
}

// TestQueryPlainUnionRelaysProgress: a UNION aligns punctuation on whatever
// attribute its inputs punctuate — here an ordered one of streams that have
// no attribute named "ts" — and forwards it once both inputs have asserted it.
func TestQueryPlainUnionRelaysProgress(t *testing.T) {
	schema := stream.MustSchema(stream.F("host", stream.KindString), stream.F("seq", stream.KindInt))
	done := punct.OnAttr(2, 1, punct.Le(stream.Int(20)))
	src := func(name string) *exec.SliceSource {
		s := &exec.SliceSource{SourceName: name, Schema: schema}
		for seq := int64(1); seq <= 20; seq++ {
			s.Items = append(s.Items, queue.TupleItem(stream.NewTuple(stream.String_(name), stream.Int(seq))))
		}
		s.Items = append(s.Items, queue.PunctItem(punct.NewEmbedded(done)))
		return s
	}
	bld, s, err := Parse("SELECT * FROM a UNION b", Catalog{"a": src("a"), "b": src("b")})
	if err != nil {
		t.Fatal(err)
	}
	sink := s.Collect("sink")
	if err := bld.Run(); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != 41 {
		t.Fatalf("sink saw %d items, want 40 tuples and one punctuation", len(items))
	}
	if last := items[40]; last.Kind != queue.ItemPunct || !last.Punct.Pattern.Equal(done) {
		t.Fatalf("sink's last item is %v, want the punctuation %v both inputs asserted", last, done)
	}
}

func TestQueryErrors(t *testing.T) {
	cat := Catalog{"s": testSource("s")}
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM nowhere",
		"SELECT * FROM s WHERE nope = 1",
		"SELECT * FROM s WHERE speed ~ 1",
		"SELECT AVG(speed) FROM s", // aggregate without GROUP BY
		"SELECT segment, speed FROM s GROUP BY segment WINDOW 1 MINUTE ON ts", // no aggregate
		"SELECT * FROM s UNION s WITH PACE ON ts 1 FORTNIGHT",
		"SELECT * FROM s trailing",
	}
	for _, q := range bad {
		if _, _, err := Parse(q, cat); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestQueryFeedbackModeFlowsThrough(t *testing.T) {
	// The builder's defaults make query-produced operators
	// feedback-aware; verify a WHERE stage exploits assumed feedback.
	cat := Catalog{"s": testSource("s", reading(1, 10, 50))}
	b, s, err := Parse("SELECT * FROM s WHERE speed >= 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	if b.Mode != op.FeedbackExploit {
		t.Error("parsed plans must default to feedback exploitation")
	}
}

// join equi-joins l with r on named attribute pairs, through an op.Join
// carrying the builder's feedback settings.
func join(t testing.TB, name string, l, r Stream, leftKeys, rightKeys []string, leftTs, rightTs string) Stream {
	t.Helper()
	lk, err1 := attrs(l.Schema(), leftKeys...)
	rk, err2 := attrs(r.Schema(), rightKeys...)
	lt, err3 := attrs(l.Schema(), leftTs)
	rt, err4 := attrs(r.Schema(), rightTs)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	return l.Through(&op.Join{
		OpName: name, Left: l.Schema(), Right: r.Schema(),
		LeftKeys: lk, RightKeys: rk, LeftTs: lt[0], RightTs: rt[0],
		Mode: l.b.Mode, Propagate: l.b.Propagate,
	}, r)
}

// TestStreamSplit: Split routes every tuple to exactly one partition, all
// of a key's tuples to the same one (round robin without a key), and
// refuses what Duplicate and Parallel refuse.
func TestStreamSplit(t *testing.T) {
	var in []stream.Tuple
	for i := int64(0); i < 24; i++ {
		in = append(in, reading(i%5, 10*i, float64(i)))
	}
	run := func(t *testing.T, n int, key ...string) [][]stream.Tuple {
		t.Helper()
		b := New()
		var sinks []*exec.Collector
		for i, s := range b.Source(testSource("s", in...)).Split("split", n, key...) {
			sinks = append(sinks, s.Collect(nameOf("sink", i)))
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		parts := make([][]stream.Tuple, n)
		total := 0
		for i, c := range sinks {
			parts[i] = c.Tuples()
			total += len(parts[i])
		}
		if total != len(in) {
			t.Fatalf("partitions hold %d tuples, want each of the %d once", total, len(in))
		}
		return parts
	}

	t.Run("key-to-one-partition", func(t *testing.T) {
		owner := map[int64]int{}
		for i, part := range run(t, 3, "segment") {
			for _, tu := range part {
				seg := tu.At(0).AsInt()
				if o, ok := owner[seg]; ok && o != i {
					t.Fatalf("segment %d in partitions %d and %d", seg, o, i)
				}
				owner[seg] = i
			}
		}
		if len(owner) != 5 {
			t.Fatalf("saw %d segments, want 5", len(owner))
		}
	})
	t.Run("round-robin-without-key", func(t *testing.T) {
		for i, part := range run(t, 4) {
			if len(part) != len(in)/4 {
				t.Fatalf("partition %d holds %d tuples, want %d", i, len(part), len(in)/4)
			}
			for j, tu := range part {
				if want := int64(4*j + i); tu.At(2).AsFloat() != float64(want) {
					t.Fatalf("partition %d tuple %d is %v, want input %d", i, j, tu, want)
				}
			}
		}
	})
	t.Run("refuses-count-below-one", func(t *testing.T) {
		for _, n := range []int{0, -1} {
			b := New()
			if outs := b.Source(testSource("s")).Split("split", n, "segment"); len(outs) != 0 {
				t.Errorf("Split(%d) gave %d streams", n, len(outs))
			}
			if err := b.Err(); err == nil || !strings.Contains(err.Error(), "need n ≥ 1") {
				t.Errorf("Split(%d): Err() = %v, want a refusal", n, err)
			}
		}
	})
	t.Run("refuses-unknown-key", func(t *testing.T) {
		b := New()
		if outs := b.Source(testSource("s")).Split("split", 2, "nope"); outs != nil {
			t.Errorf("Split on a missing attribute gave %d streams", len(outs))
		}
		if err := b.Err(); err == nil || !strings.Contains(err.Error(), `"nope"`) {
			t.Errorf("Err() = %v, want the missing attribute named", err)
		}
	})
	t.Run("bad-stream-gives-bad-partitions", func(t *testing.T) {
		b := New()
		outs := b.Source(testSource("s")).Project("broken", "nope").Split("split", 2, "segment")
		if len(outs) != 2 {
			t.Fatalf("Split(2) of a bad stream gave %d streams", len(outs))
		}
		for i, o := range outs {
			if !o.bad {
				t.Errorf("partition %d of a bad stream is usable", i)
			}
		}
		if b.Graph().NumNodes() != 1 {
			t.Errorf("a bad stream's partitions added nodes:\n%s", b.Explain())
		}
	})
}
