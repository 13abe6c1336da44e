package op

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/punct"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// stateRow is one engine Stater brought through a fixed history. Its golden
// blob was captured before the Staters' codecs were derived from declared
// layouts: the same history must still capture to the same bytes, and a twin
// that loads them must capture them again.
type stateRow struct {
	name, golden string
	// open builds the Stater afresh.
	open func() snapshot.Stater
	// feed is an operator's history: the script it plays.
	feed func(t testing.TB, st snapshot.Stater) []exec.Script
	// A source's history is the feedback it hears before its first Next,
	// then nexts Next calls.
	heard []core.Feedback
	nexts int
	// check asserts, when set, what the restored twin holds beyond its bytes;
	// live is the Stater the golden was captured from, blob its capture.
	check func(t testing.TB, live, twin snapshot.Stater, blob []byte)
}

func goldenFeedback(intent core.Intent, p punct.Pattern, hops int, seq int64) core.Feedback {
	return core.Feedback{Intent: intent, Pattern: p, Origin: "viewer", Hops: hops, Seq: seq}
}

// stepped runs a source for n Next calls and then ends its stream, calling at
// where the source is idle: between two Next calls, where a checkpoint cuts
// it. It is the source's Stater, so a restore reaches the source.
type stepped struct {
	exec.Source
	snapshot.Stater
	n  int
	at func()
}

func (s *stepped) Next(ctx exec.Context) (more bool, err error) {
	if s.n > 0 {
		s.n--
		if more, err = s.Source.Next(ctx); s.n > 0 || err != nil {
			return more, err
		}
	}
	s.at()
	return false, nil
}

// restoreSource runs st, a source restored from blob through
// Graph.RestoreChain, for n Next calls and calls at where it ends; it returns
// what the source emitted.
func restoreSource(st snapshot.Stater, blob []byte, n int, at func()) ([]stream.Tuple, error) {
	src := &stepped{Source: st.(exec.Source), Stater: st, n: n, at: at}
	sink := exec.NewCollector("sink", src.OutSchemas()[0])
	g := exec.NewGraph()
	g.Add(sink, exec.From(g.AddSource(src)))
	if err := g.RestoreChain(&snapshot.Snapshot{Nodes: []snapshot.NodeState{
		{ID: 0, Name: src.Name(), State: blob}, {ID: 1, Name: sink.Name()}}}); err != nil {
		return nil, err
	}
	err := g.Run()
	return sink.Tuples(), err
}

// newGoldenReader is the reader-source row's Stater.
func newGoldenReader() *exec.ReaderSource {
	src := exec.NewReaderSource("reader", stream.MustSchema(stream.F("k", stream.KindInt), stream.F("v", stream.KindInt)),
		strings.NewReader("1,10\n2,20\n1,30\n3,40\n"))
	src.PunctAttr, src.PunctEvery, src.Mode = 1, 2, core.ModeExploit
	return src
}

// stateRows lists every engine Stater: the eight operators first (the fuzz
// target runs over them), then the sources and the Collector.
func stateRows() []stateRow {
	var joinAtCut JoinStats
	return []stateRow{
		{
			name:   "aggregate",
			golden: "0102000402010a02020000000000000000027ff000000000000002fff000000000000002011402020000000000000000027ff000000000000002fff000000000000006000103010106000006766965776572040e000103000006024000000000000000067669657765720010000103000404010006766965776572001206000103010106000006766965776572040e00010301010e0104000006766965776572001000010300040401000676696577657200120e000a04000400",
			open: func() snapshot.Stater {
				return &Aggregate{In: trafficSchema, Kind: core.AggCount, TsAttr: 2, ValAttr: -1,
					GroupBy: []int{0}, Window: window.Tumbling(minute), Mode: FeedbackExploit}
			},
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				return []exec.Script{
					exec.Tuples(0, traffic(5, 0, 10, 1), traffic(3, 0, 20, 1), traffic(7, 0, 30, 1), traffic(7, 0, 40, 1), traffic(10, 0, 50, 1)),
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 0, punct.Eq(stream.Int(3))), 2, 7)),         // group: the pattern pins the prefix
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 2, punct.Ge(stream.Float(2))), 0, 8)),       // value on COUNT: one derived pin
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(-1))), 0, 9)), // window-bound
					exec.Tuples(0, traffic(3, 0, 60, 1), traffic(7, 0, 70, 1)),                                                // both pinned shut
				}
			},
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				a := twin.(*Aggregate)
				if a.guardsOut.Active() != 3 || a.guardsPrefix.Active() != 3 {
					t.Fatalf("restored tables hold %d output and %d input guards, want 3 and 3",
						a.guardsOut.Active(), a.guardsPrefix.Active())
				}
			},
		},
		{
			name:   "join",
			golden: "0502080108010404d80402404900000000000000d8040000d6040100c8010100c801010a020001040001010a00000676696577657200060200010400000006024059000000000000067669657765720008040001060001010a0000000006766965776572020600010600000000000602405900000000000006766965776572020802040000000406",
			open: func() snapshot.Stater {
				return &Join{OpName: "j", Left: trafficSchema, Right: trafficSchema,
					LeftKeys: []int{0, 2}, RightKeys: []int{0, 2}, LeftTs: 2, RightTs: 2, LeftOuter: true,
					Impatient: true, ThriftyWindow: &window.Spec{Range: 100, Slide: 100}, ThriftyProbe: 0,
					Mode: FeedbackExploit, Propagate: true}
			},
			feed: func(_ testing.TB, st snapshot.Stater) []exec.Script {
				out := st.(*Join).OutSchemas()[0].Arity()
				return []exec.Script{
					exec.Tuples(0, traffic(1, 1, 10, 40)), // asks for key (1, 10)
					exec.Tuples(0, traffic(2, 1, 20, 30)),
					exec.Tuples(1, traffic(1, 9, 10, 70)), // matches left 1
					exec.Tuples(1, traffic(3, 9, 250, 70)),
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(out, 1, punct.Eq(stream.Int(5))), 1, 3)),     // left-bound: guards input 0
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(out, 5, punct.Ge(stream.Float(100))), 1, 4)), // right-bound: guards input 1
					exec.Punct(1, tsPunct(100)),            // left 2 leaves unmatched
					exec.Punct(0, tsPunct(20)),             // output frontier ≤20; the probe side holds nothing, so no window is checked
					exec.Tuples(0, traffic(4, 2, 300, 50)), // asks for key (4, 300); probe window 3
					exec.Tuples(0, traffic(5, 3, 60, 50)),  // at or below the right frontier: emitted null-padded, not kept, not asked for
					exec.Punct(0, tsPunct(299)),            // probe windows 1 and 2 are empty: thrifty feedback; purges right 3
					exec.Call(func(*exec.Trace) { joinAtCut = st.(*Join).Stats() }),
				}
			},
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				if got, want := twin.(*Join).Stats(), joinAtCut; got != want {
					t.Fatalf("restored join reports %+v, live %+v", got, want)
				}
			},
		},
		{
			name:   "impute",
			golden: "0200010400000304d00f00067669657765720004020202",
			open:   func() snapshot.Stater { return newTestImpute(FeedbackExploit) },
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				return []exec.Script{
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(1000))), 0, 2)),
					exec.Tuples(0,
						trafficNull(1, 1, 500), // skipped
						traffic(1, 1, 5000, 50),
						trafficNull(1, 1, 6000), // imputed
					),
				}
			},
		},
		{
			name:   "pace",
			golden: "01a09c0101b89401010202040000000000d08c0101000002010401010a0000000000000000a0060100000000000000a00601000002010401010a00000002000002",
			open: func() snapshot.Stater {
				return &Pace{OpName: "pace", Schema: trafficSchema, K: 2, TsAttr: 2, Tolerance: 1000, FeedbackEnabled: true}
			},
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				return []exec.Script{
					exec.Tuples(0, traffic(1, 1, 10_000, 50)),
					exec.Tuples(1, traffic(1, 2, 500, 50)), // late: dropped, feedback produced
					exec.Punct(0, tsPunct(9_000)),
					exec.Punct(1, tsPunct(400)),                                                   // aligned: ≤400
					exec.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))))), // pending on input 1
				}
			},
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				if p := twin.(*Pace); !p.hwSet || p.hw != 10_000 || len(p.align.pending) != 1 {
					t.Fatalf("restored pace: high watermark %d %v, %d pending", p.hw, p.hwSet, len(p.align.pending))
				}
			},
		},
		{
			name:   "merge",
			golden: "060000000801d00f01000002010401010a0000000000000000f80a01000004010401010a000000010401010e000404904e00010000000090030100000000000000f80a01000002010401010e000404904e000200010401010400000006766965776572020602",
			open: func() snapshot.Stater {
				return &Merge{OpName: "m", Schema: trafficSchema, K: 3, Mode: FeedbackExploit, Propagate: true}
			},
			feed: func(t testing.TB, st snapshot.Stater) []exec.Script {
				seg5 := punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(5))))
				return []exec.Script{
					exec.Tuples(0, traffic(1, 1, 10, 50)),
					exec.Tuples(1, traffic(2, 1, 20, 55)),
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(2))), 1, 3)),
					exec.Tuples(2, traffic(2, 2, 30, 60)), // suppressed
					exec.Punct(0, tsPunct(1000)),
					exec.Punct(1, tsPunct(700)),
					exec.Punct(2, tsPunct(200)), // aligned: ≤200
					exec.Punct(0, punct.NewEmbedded(punct.OnAttr(4, 1, punct.Le(stream.Int(4))))), // a second attribute's frontier, one input only
					exec.Punct(0, seg5),
					exec.Punct(1, seg5),
					// Covered by input 0's frontier (≤1000), not by input 1's: stays pending.
					exec.Punct(1, punct.NewEmbedded(punct.OnAttr(4, 0, punct.Eq(stream.Int(7))).With(2, punct.Le(stream.TimeMicros(5000))))),
					exec.EOS(2), // releases ≤700 and segment 5
					exec.Call(func(tr *exec.Trace) {
						if got, m := puncts(tr.Out[0]), st.(*Merge); len(got) != 3 || len(m.align.pending) != 1 {
							inRun{t}.Fatalf("history emitted %v with %d pending, want 3 and 1", got, len(m.align.pending))
						}
					}),
				}
			},
		},
		{
			name:   "split",
			golden: "04040001040000000602403c40000000000006766965776572001200010401010e000000067669657765720010000200010401010a00000006766965776572020a020201040000030480ea300006766965776572000e020ec2ac5b352c202a2c202a2c202a5d0008040202",
			open: func() snapshot.Stater {
				return &Split{Schema: trafficSchema, N: 2, Key: []int{0}, Mode: FeedbackExploit, Propagate: true}
			},
			feed: func(t testing.TB, st snapshot.Stater) []exec.Script {
				pinned := punct.OnAttr(4, 0, punct.Eq(stream.Int(5)))
				home := st.(*Split).route(traffic(5, 0, 0, 0))
				return []exec.Script{
					exec.Feedback(home, goldenFeedback(core.Assumed, pinned, 1, 5)),                                         // key-pinned: relayed at once
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 3, punct.Ge(stream.Float(28.25))), 0, 9)), // unpinned, one partition only: held
					exec.Feedback(1, goldenFeedback(core.Demanded, punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(400_000))), 0, 7)),
					exec.Feedback(1-home, goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(7))), 0, 8)), // pinned elsewhere: held
					exec.Tuples(0, traffic(5, 0, 10, 1), traffic(6, 0, 20, 30), traffic(7, 0, 30, 1), traffic(8, 0, 40, 1)),
					exec.Call(func(tr *exec.Trace) {
						if n := len(tr.Sent[0]); n != 1 {
							inRun{t}.Fatalf("relayed %d patterns, want the key-pinned one", n)
						}
					}),
				}
			},
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				if got := twin.(*Split).Relayed(); len(got) != 1 {
					t.Fatalf("restored relayed set %v, want the key-pinned pattern", got)
				}
			},
		},
		{
			name:   "duplicate",
			golden: "04020001040101060000000676696577657200080400010401010600000006766965776572000800010400000404880e0006766965776572000a020c5b332c202a2c202a2c202a5d02",
			open: func() snapshot.Stater {
				return &Duplicate{Schema: trafficSchema, N: 2, Mode: FeedbackExploit, Propagate: true}
			},
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				f := goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(3))), 0, 4)
				return []exec.Script{
					exec.Feedback(0, f),
					exec.Feedback(1, f), // unanimous: relayed
					exec.Feedback(1, goldenFeedback(core.Assumed, punct.OnAttr(4, 2, punct.Le(stream.TimeMicros(900))), 0, 5)),
					exec.Tuples(0, traffic(3, 1, 10, 50), traffic(4, 1, 20, 50)),
				}
			},
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				if got := twin.(*Duplicate).Relayed(); len(got) != 1 || !strings.HasPrefix(got[0], core.Assumed.Sigil()) {
					t.Fatalf("restored relayed set %q, want the unanimous pattern", got)
				}
			},
		},
		{
			name:   "prioritize",
			golden: "04080102010204140240490000000000000008010801020450024050400000000000000201040101040000000200010401010600000006766965776572000408020202",
			open: func() snapshot.Stater {
				return &Prioritize{Schema: trafficSchema, BufferCap: 8, Mode: FeedbackExploit}
			},
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				return []exec.Script{
					exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55), traffic(3, 1, 30, 60)),
					exec.Feedback(0, goldenFeedback(core.Desired, punct.OnAttr(4, 0, punct.Eq(stream.Int(2))), 0, 1)), // promotes segment 2
					exec.Feedback(0, goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(3))), 0, 2)), // drops segment 3
					exec.Tuples(0, traffic(4, 1, 40, 65)),
				}
			},
		},
		{
			name:   "slice-source",
			golden: "0604020001040101020000000473696e6b0202",
			open: func() snapshot.Stater {
				src := exec.NewSliceSource("src", trafficSchema,
					traffic(1, 0, 10, 1), traffic(2, 0, 20, 1), traffic(1, 0, 30, 1), traffic(2, 0, 40, 1))
				src.Mode, src.BatchSize = core.ModeExploit, 3
				return src
			},
			heard: []core.Feedback{{Intent: core.Assumed, Pattern: punct.OnAttr(4, 0, punct.Eq(stream.Int(1))), Origin: "sink", Hops: 1, Seq: 1}},
			nexts: 1,
			check: func(t testing.TB, _, twin snapshot.Stater, _ []byte) {
				if got := twin.(*exec.SliceSource).Suppressed(); got != 2 {
					t.Fatalf("restored source skipped %d, want 2", got)
				}
			},
		},
		{
			name:   "reader-source",
			golden: "1e06040200010201010200067669657765720002",
			open:   func() snapshot.Stater { return newGoldenReader() },
			heard:  []core.Feedback{goldenFeedback(core.Assumed, punct.OnAttr(2, 0, punct.Eq(stream.Int(1))), 0, 1)},
			nexts:  3,
			check: func(t testing.TB, _, _ snapshot.Stater, blob []byte) {
				// Another twin resumes at the fourth line.
				got, err := restoreSource(newGoldenReader(), blob, 1, func() {})
				if err != nil || len(got) != 1 || got[0].At(0).AsInt() != 3 || got[0].Seq != 4 {
					t.Fatalf("restored reader emitted %v (%v), want the fourth line as tuple 4", got, err)
				}
			},
		},
		{
			name:   "collector",
			golden: "0608010801020102041402404900000000000000010801040102042802404b80000000000000000104000004042800010801060102043c02404e00000000000000",
			open:   func() snapshot.Stater { return exec.NewCollector("sink", trafficSchema) },
			feed: func(testing.TB, snapshot.Stater) []exec.Script {
				return []exec.Script{
					exec.Tuples(0, traffic(1, 1, 10, 50), traffic(2, 1, 20, 55)),
					exec.Punct(0, tsPunct(20)),
					exec.Tuples(0, traffic(3, 1, 30, 60)),
				}
			},
		},
		{
			name:   "traffic-source",
			golden: "80b489130212a78aeec0d1abf5d0fc0102bfc4ad5752641e7d000602000104010102000000067669657765720002",
			open: func() snapshot.Stater {
				return &gen.TrafficSource{Generating: exec.Generating{Mode: core.ModeExploit}, Config: gen.TrafficConfig{
					Segments: 2, DetectorsPerSegment: 3, Duration: 10 * 20_000_000, NullRate: 0.3, Noise: 2, Seed: 7}}
			},
			heard: []core.Feedback{goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(1))), 0, 1)},
			nexts: 3,
			check: func(t testing.TB, live, twin snapshot.Stater, _ []byte) {
				if got, want := twin.(*gen.TrafficSource).Suppressed(), live.(*gen.TrafficSource).Suppressed(); got != want || want == 0 {
					t.Fatalf("restored traffic source suppressed %d, live %d", got, want)
				}
			},
		},
		{
			name:   "tick-source",
			golden: "8092f4013c93dbdbcab5d685d920023f97ccfaeeb08c020006023ff1e0109aa6e197023ff0f99b0f28e0e5023ff6f68205b6a8e70000",
			open: func() snapshot.Stater {
				return &gen.TickSource{Config: gen.TickConfig{Duration: 5_000_000, Seed: 11}}
			},
			nexts: 2,
		},
		{
			name:   "probe-source",
			golden: "80e892261cded3a8d7badec3802a023fe2a5cf483025b10008020001030101000000067669657765720002",
			open: func() snapshot.Stater {
				return &gen.ProbeSource{Generating: exec.Generating{Mode: core.ModeExploit}, Config: gen.ProbeConfig{
					Segments: 2, Duration: 10 * 20_000_000, Noise: 3, NoiseRate: 0.1, Seed: 3}}
			},
			heard: []core.Feedback{goldenFeedback(core.Assumed, punct.OnAttr(3, 0, punct.Eq(stream.Int(0))), 0, 1)},
			nexts: 2,
		},
		{
			name:   "rated-source",
			golden: "080202000104010102000000067669657765720002",
			open: func() snapshot.Stater {
				return &gen.RatedSource{Generating: exec.Generating{Mode: core.ModeExploit}, SourceName: "rated",
					Schema: gen.TrafficSchema, Items: gen.ImputationStream(6, 0, 1000, 3), PerSecond: 1e12}
			},
			heard: []core.Feedback{goldenFeedback(core.Assumed, punct.OnAttr(4, 0, punct.Eq(stream.Int(1))), 0, 1)},
			nexts: 1,
			check: func(t testing.TB, live, twin snapshot.Stater, _ []byte) {
				if got, want := twin.(*gen.RatedSource).Suppressed(), live.(*gen.RatedSource).Suppressed(); got != want || want == 0 {
					t.Fatalf("restored rated source skipped %d, live %d", got, want)
				}
			},
		},
	}
}

// liveState builds a row's Stater, drives it through its history and
// returns it with its golden-comparable capture.
func liveState(t testing.TB, row stateRow) (st snapshot.Stater, blob []byte) {
	t.Helper()
	st = row.open()
	capture := func() { blob = captureBlob(inRun{t}, st) }
	var err error
	if src, ok := st.(exec.Source); ok {
		err = exec.DriveSource(&stepped{Source: src, Stater: st, n: row.nexts, at: capture}, row.heard...).Err
	} else {
		err = exec.Drive(st.(exec.Operator), append(row.feed(t, st), exec.Call(func(*exec.Trace) { capture() }))...).Err
	}
	if err != nil {
		t.Fatalf("%s: history: %v", row.name, err)
	}
	return st, blob
}

// TestStateBytesGolden: every engine Stater still writes the bytes it wrote
// before its codec was derived from a declared layout — the Join since its
// layout dropped the entry ids only a delta needed, its history joined on
// (segment, ts), the timestamps being a key pair, and it kept only its two
// sides, its thrifty probe the left input; the traffic, probe, tick
// and rated sources since the source boundary (exec.Generating) keeps the
// suppression count and the guards after their position and a scripted step
// ends at its first punctuation — and a twin that restores them writes them
// again.
func TestStateBytesGolden(t *testing.T) {
	for _, row := range stateRows() {
		t.Run(row.name, func(t *testing.T) {
			live, blob := liveState(t, row)
			if got := hex.EncodeToString(blob); got != row.golden {
				t.Fatalf("captured state changed:\n got %s\nwant %s", got, row.golden)
			}
			twin := row.open()
			check := func() {
				if got := captureBlob(inRun{t}, twin); !bytes.Equal(got, blob) {
					inRun{t}.Fatalf("restored state re-encodes differently:\n got %x\nwant %x", got, blob)
				}
				if row.check != nil {
					row.check(inRun{t}, live, twin, blob)
				}
			}
			var err error
			if _, ok := twin.(exec.Source); ok {
				_, err = restoreSource(twin, blob, 0, check)
			} else {
				err = exec.Drive(twin.(exec.Operator), exec.Restore(blob), exec.Call(func(*exec.Trace) { check() })).Err
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
