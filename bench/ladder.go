package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/op"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// The ladder measures each layer from outside: timed calls into its public
// functions, on this workload's own tuples, patterns and keys, one layer at a
// time on one processor. Each rung's unit cost (ns per tuple, per result, per
// punctuation) multiplies a count from the traced run in the ledger.

// span is one timed interval of a traced run, kept in memory and written out
// at the end. Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Units   int64   `json:"units,omitempty"` // tuples, results or punctuations covered
	PerUnit float64 `json:"ns_per_unit,omitempty"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNs: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int, units int64) time.Duration {
	s := &l.spans[id]
	s.EndNs = int64(time.Since(l.t0))
	s.Units = units
	d := s.EndNs - s.StartNs
	if units > 0 {
		s.PerUnit = float64(d) / float64(units)
	}
	return time.Duration(d)
}

func (l *spanLog) write(workload string, extra map[string]any) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	extra["spans"] = l.spans
	raw, err := json.MarshalIndent(extra, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}

// nullCtx is the runtime surface a rung hands an operator: it counts what
// the operator emits and drops it.
type nullCtx struct {
	ins, outs      int
	tuples, puncts int64
	feedback       int64
}

func (c *nullCtx) Emit(stream.Tuple)                    { c.tuples++ }
func (c *nullCtx) EmitTo(int, stream.Tuple)             { c.tuples++ }
func (c *nullCtx) EmitPunct(punct.Embedded)             { c.puncts++ }
func (c *nullCtx) EmitPunctTo(int, punct.Embedded)      { c.puncts++ }
func (c *nullCtx) SendFeedback(int, core.Feedback)      { c.feedback++ }
func (c *nullCtx) ShutdownUpstream(int)                 {}
func (c *nullCtx) NumInputs() int                       { return c.ins }
func (c *nullCtx) NumOutputs() int                      { return c.outs }
func (c *nullCtx) Logf(string, ...any)                  {}
func (c *nullCtx) EmitBatch(ts []stream.Tuple)          { c.tuples += int64(len(ts)) }
func (c *nullCtx) EmitBatchTo(_ int, ts []stream.Tuple) { c.tuples += int64(len(ts)) }

// ladderTuples is about how many of the workload's tuples a rung runs over
// (whole punctuation blocks); rungReps is how often it repeats.
const (
	ladderTuples = 128 << 10
	rungReps     = 5
	// A smoke run climbs the same rungs over fewer tuples, once.
	smokeLadderTuples = 8 << 10
	// runLen is how many tuples the runtime hands a batching operator per
	// call (exec.DefaultControlInterval).
	runLen = exec.DefaultControlInterval
)

// ladder holds a workload's own material for the rungs.
type ladder struct {
	w      *workload
	in     *input
	log    *spanLog
	parent int
	reps   int

	tuples []stream.Tuple   // the first blocks of the stream
	items  []queue.Item     // the same, as page items
	kept   []stream.Tuple   // those the workload's stateless prefix keeps
	puncts []punct.Embedded // the punctuation after each block
	window window.Spec      // the workload's aggregate window
	guard  punct.Pattern    // a feedback pattern of the viewer's shape over these tuples
	costOf map[string]float64
}

func newLadder(w *workload, in *input, smoke bool, log *spanLog, parent int) *ladder {
	l := &ladder{w: w, in: in, log: log, parent: parent, reps: rungReps, costOf: map[string]float64{}}
	blocks := ladderTuples / in.block
	if smoke {
		l.reps, blocks = 1, smokeLadderTuples/in.block
	}
	n := blocks * in.block
	vals := make([]stream.Value, int(n)*inSchema.Arity())
	l.window = window.Tumbling(w.window)
	for i := int64(0); i < n; i++ {
		v := vals[i*4 : i*4+4 : i*4+4]
		in.fill(v, i)
		t := stream.Tuple{Values: v, Seq: i}
		l.tuples = append(l.tuples, t)
		l.items = append(l.items, queue.TupleItem(t))
		if w.keep(v[colSpeed]) {
			l.kept = append(l.kept, t)
		}
	}
	for k := int64(0); k < blocks; k++ {
		l.puncts = append(l.puncts, in.punctAfter(k))
	}
	// ¬[segment ≠ 3, *, ts within the second quarter of these tuples, *]: the
	// shape the speed map's viewer issues once σ-quality sees it.
	hi := in.punctBound(blocks - 1)
	l.guard = punct.NewPattern(punct.Ne(stream.Int(3)), punct.Wild,
		punct.Range(stream.TimeMicros(hi/4), stream.TimeMicros(hi/2)), punct.Wild)
	return l
}

// rung times fn rungReps times, after one discarded repetition, and records
// the cheapest repetition's cost per unit under name: interference on the
// measured container only ever adds time, and the ledger sets these costs
// against the fastest single-threaded pass, so both sides of it describe the
// undisturbed machine. fn returns how many units it covered;
// setup runs untimed before each repetition. So does a collection: a rung
// that allocates must do so from memory the process already holds, as a
// running plan does — on the measured container a first touch of fresh memory
// costs more than the allocation it serves.
func (l *ladder) rung(name string, setup func(), fn func() int64) {
	per := make([]float64, 0, l.reps)
	for rep := -1; rep < l.reps; rep++ {
		if setup != nil {
			setup()
		}
		runtime.GC()
		id := l.log.begin(name, l.parent)
		units := fn()
		d := l.log.end(id, units)
		if units > 0 && rep >= 0 {
			per = append(per, float64(d)/float64(units))
		}
	}
	if len(per) > 0 { // a rung that failed covered nothing; its caller reports why
		l.costOf[name] = slices.Min(per)
	}
}

var sinkBool bool

// climb measures every rung on one processor.
func (l *ladder) climb() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := int64(len(l.tuples))

	// Generator alone: the benchmark's source into a context that drops.
	l.rung("gen.ns_per_tuple", nil, func() int64 {
		src := &source{name: "gen", in: l.in, n: n}
		ctx := &nullCtx{outs: 1}
		for more := true; more; {
			more, _ = src.Next(ctx)
		}
		return n
	})

	// Page handoff: a producer filling pages and a consumer releasing them
	// across one connection, punctuation flushing every block as in the plan.
	l.rung("queue.handoff_ns_per_tuple", nil, func() int64 {
		conn := queue.New(queue.DefaultOptions())
		go func() {
			for k, e := range l.puncts {
				blk := l.tuples[int64(k)*l.in.block : int64(k+1)*l.in.block]
				for len(blk) > 0 {
					c := min(len(blk), chunk)
					conn.PutTuples(blk[:c])
					blk = blk[c:]
				}
				conn.PutPunct(e)
			}
			conn.CloseSend()
		}()
		for {
			p, ok := conn.Recv()
			if !ok {
				return n
			}
			queue.Release(p)
		}
	})

	// The workload's stateless per-tuple work: its fused kernel, or the lone
	// filter of the uncompiled speed map, fed runs as the runtime feeds them.
	if l.w.prefix != nil {
		prefix, err := l.w.prefix()
		if err != nil {
			return err
		}
		ctx := &nullCtx{ins: 1, outs: 1}
		batcher, _ := prefix.(exec.TupleBatcher)
		l.rung("fuse.kernel_ns_per_tuple", func() { prefix.Open(ctx) }, func() int64 {
			for i := 0; i < len(l.items); i += runLen {
				run := l.items[i:min(i+runLen, len(l.items))]
				if batcher != nil {
					batcher.ProcessTupleBatch(0, run, ctx)
					continue
				}
				for j := range run {
					prefix.ProcessTuple(0, run[j].Tuple, ctx)
				}
			}
			return n
		})
	}
	expr := hotSelect().Expr
	l.rung("op.expr_ns_per_tuple", nil, func() int64 {
		for _, t := range l.tuples {
			sinkBool = expr.Eval(t)
		}
		return n
	})
	l.rung("stream.tuple_build_ns", nil, func() int64 {
		idx := []int{colSegment, colTs, colSpeed}
		for _, t := range l.tuples {
			sinkBool = t.Project(idx).Seq == 0
		}
		return n
	})

	// Aggregate: folds timed apart from the punctuations that emit.
	var folds, emits []float64
	var groupsMax int64
	for rep := -1; rep < l.reps; rep++ {
		agg := averageOp("avg", l.window.Range)
		agg.Cost, agg.EmitCost = l.w.foldCost, l.w.emitCost
		ctx := &nullCtx{ins: 1, outs: 1}
		agg.Open(ctx)
		runtime.GC()
		fold := l.log.begin("op.agg_fold_ns_per_tuple", l.parent)
		var emit time.Duration
		at := 0
		for k, e := range l.puncts {
			// Tuples kept by the prefix, up to the end of block k.
			end := at
			for end < len(l.kept) && l.kept[end].Seq < int64(k+1)*l.in.block {
				end++
			}
			for i := at; i < end; i += runLen {
				agg.ApplyTupleBatch(0, l.kept[i:min(i+runLen, end)], ctx)
			}
			at = end
			groupsMax = max(groupsMax, int64(agg.Stats().OpenGroups))
			t0 := time.Now()
			agg.ProcessPunct(0, e, ctx)
			emit += time.Since(t0)
		}
		total := l.log.end(fold, int64(len(l.kept)))
		if rep >= 0 {
			folds = append(folds, float64(total-emit)/float64(len(l.kept)))
			emits = append(emits, float64(emit)/float64(max(ctx.tuples, 1)))
		}
	}
	l.costOf["op.agg_fold_ns_per_tuple"] = slices.Min(folds)
	l.costOf["op.agg_emit_ns_per_result"] = slices.Min(emits)
	l.costOf["op.agg_groups_max"] = float64(groupsMax)

	l.rung("window.assign_ns", nil, func() int64 {
		for _, t := range l.tuples {
			lo, hi := l.window.WindowsOf(t.Values[colTs].I)
			sinkBool = lo == hi
		}
		return n
	})

	// Exchange: hash routing of runs, and alignment of the partitions'
	// punctuation at the merge.
	split := &op.Split{OpName: "split", Schema: inSchema, N: 2, Key: []int{colSegment}, Mode: op.FeedbackExploit}
	splitCtx := &nullCtx{ins: 1, outs: 2}
	l.rung("op.split_route_ns_per_tuple", func() { split.Open(splitCtx) }, func() int64 {
		for i := 0; i < len(l.kept); i += runLen {
			split.ApplyTupleBatch(0, l.kept[i:min(i+runLen, len(l.kept))], splitCtx)
		}
		return int64(len(l.kept))
	})
	resultSchema := averageOp("avg", l.window.Range).OutSchemas()[0]
	merge := &op.Merge{OpName: "merge", Schema: resultSchema, K: 2, Mode: op.FeedbackExploit}
	mergeCtx := &nullCtx{ins: 2, outs: 1}
	wstartPuncts := make([]punct.Embedded, len(l.puncts))
	for k := range wstartPuncts {
		wstartPuncts[k] = punct.NewEmbedded(punct.OnAttr(resultSchema.Arity(), colResultTime,
			punct.Le(stream.TimeMicros(l.in.punctBound(int64(k))))))
	}
	l.rung("op.merge_align_ns_per_punct", func() { merge.Open(mergeCtx) }, func() int64 {
		for _, e := range wstartPuncts {
			merge.ProcessPunct(0, e, mergeCtx)
			merge.ProcessPunct(1, e, mergeCtx)
		}
		return 2 * int64(len(wstartPuncts))
	})

	// Punctuation and guards.
	compiled := l.guard.Compile(stream.Schema{})
	l.rung("punct.match_ns", nil, func() int64 {
		for _, t := range l.tuples {
			sinkBool = compiled.Matches(t)
		}
		return n
	})
	l.rung("punct.observe_ns", nil, func() int64 {
		scheme := punct.NewScheme(inSchema.Arity())
		for _, e := range l.puncts {
			scheme.Observe(e)
		}
		return int64(len(l.puncts))
	})
	empty := core.NewGuardTable(inSchema.Arity())
	l.rung("core.suppress_ns_empty", nil, func() int64 {
		for _, t := range l.tuples {
			sinkBool = empty.Suppress(t)
		}
		return n
	})
	active := core.NewGuardTable(inSchema.Arity())
	active.Install(core.NewAssumed(l.guard))
	l.rung("core.suppress_ns_active", nil, func() int64 {
		for _, t := range l.tuples {
			sinkBool = active.Suppress(t)
		}
		return n
	})

	// Snapshot: capture and encode of one open window's groups.
	var keys int64
	l.rung("snapshot.encode_ns_per_key", nil, func() int64 {
		agg := averageOp("avg", l.window.Range)
		ctx := &nullCtx{ins: 1, outs: 1}
		agg.Open(ctx)
		agg.ApplyTupleBatch(0, l.kept[:min(len(l.kept), 16*punctEvery)], ctx)
		keys = int64(agg.Stats().OpenGroups)
		enc := snapshot.NewEncoder()
		c, err := agg.CaptureState(snapshot.CaptureFull)
		if err == nil {
			err = c.Encode(enc)
		}
		if err != nil {
			return 0
		}
		return keys
	})

	// The benchmark's own sink, digesting results shaped like the plan's.
	shaped := make([]queue.Item, len(l.tuples))
	for i, t := range l.tuples {
		shaped[i] = queue.TupleItem(t.Project([]int{colSegment, colTs, colSpeed}))
	}
	l.rung("bench.sink_ns_per_result", nil, func() int64 {
		snk := &sink{name: "sink", schema: resultSchema}
		for i := 0; i < len(shaped); i += runLen {
			snk.ProcessTupleBatch(0, shaped[i:min(i+runLen, len(shaped))], nil)
		}
		return n
	})

	if err := l.remoteRung(); err != nil {
		return err
	}
	l.otherOperators()
	return nil
}

// remoteRung sends the tuples through a remote sink, loopback TCP and a
// remote source: framing, the wire, and decoding, per tuple.
func (l *ladder) remoteRung() error {
	n := int64(len(l.tuples))
	var rungErr error
	l.rung("remote.roundtrip_ns_per_tuple", nil, func() int64 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rungErr = err
			return 0
		}
		defer ln.Close()
		out, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			rungErr = err
			return 0
		}
		in, err := ln.Accept()
		if err != nil {
			out.Close()
			rungErr = err
			return 0
		}
		snk := remote.NewSink("to", inSchema, out)
		src := remote.NewSource("from", inSchema, in)
		sendCtx, recvCtx := &nullCtx{ins: 1}, &nullCtx{outs: 1}
		var wg sync.WaitGroup
		wg.Add(1)
		var sendErr error
		go func() {
			defer wg.Done()
			sendErr = snk.Open(sendCtx)
			for k, e := range l.puncts {
				for _, t := range l.tuples[int64(k)*l.in.block : int64(k+1)*l.in.block] {
					if sendErr == nil {
						sendErr = snk.ProcessTuple(0, t, sendCtx)
					}
				}
				if sendErr == nil {
					sendErr = snk.ProcessPunct(0, e, sendCtx)
				}
			}
			if err := snk.Close(sendCtx); sendErr == nil {
				sendErr = err
			}
		}()
		err = src.Open(recvCtx)
		for more := err == nil; more; {
			more, err = src.Next(recvCtx)
		}
		src.Close(recvCtx)
		wg.Wait()
		if err == nil {
			err = sendErr
		}
		if err == nil && recvCtx.tuples != n {
			err = fmt.Errorf("remote rung: %d of %d tuples arrived", recvCtx.tuples, n)
		}
		if err != nil {
			rungErr = err
			return 0
		}
		return n
	})
	return rungErr
}

// otherOperators times the operators no workload's plan holds: they appear
// in the ladder only.
func (l *ladder) otherOperators() {
	m := min(8*punctEvery, len(l.tuples)/2)
	build, probe := l.tuples[:m], l.tuples[m:2*m]
	join := &op.Join{OpName: "join", Left: inSchema, Right: inSchema,
		LeftKeys: []int{colSegment, colDetector}, RightKeys: []int{colSegment, colDetector},
		LeftTs: colTs, RightTs: colTs, Mode: op.FeedbackExploit}
	joinCtx := &nullCtx{ins: 2, outs: 1}
	l.rung("op.join_probe_ns", func() {
		join.Open(joinCtx)
		for _, t := range build {
			join.ProcessTuple(1, t, joinCtx)
		}
	}, func() int64 {
		for _, t := range probe {
			join.ProcessTuple(0, t, joinCtx)
		}
		return int64(m)
	})
	pace := &op.Pace{OpName: "pace", Schema: inSchema, K: 2, TsAttr: colTs, Tolerance: 4 * punctEvery, FeedbackEnabled: true}
	paceCtx := &nullCtx{ins: 2, outs: 1}
	l.rung("op.pace_ns_per_tuple", func() { pace.Open(paceCtx) }, func() int64 {
		for i, t := range l.tuples {
			pace.ProcessTuple(i&1, t, paceCtx)
		}
		return int64(len(l.tuples))
	})
	store := archive.NewStore(0)
	store.SeedDiurnal(256, mapDetectors)
	impute := &op.Impute{OpName: "impute", Schema: inSchema, SegAttr: colSegment, DetAttr: colDetector,
		TsAttr: colTs, SpeedAttr: colSpeed, Store: store, Mode: op.FeedbackExploit}
	dirty := make([]stream.Tuple, m)
	for i := range dirty {
		dirty[i] = l.tuples[i].Clone()
		dirty[i].Values[colSpeed] = stream.Null
	}
	imputeCtx := &nullCtx{ins: 1, outs: 1}
	l.rung("op.impute_ns_per_tuple", func() { impute.Open(imputeCtx) }, func() int64 {
		for _, t := range dirty {
			impute.ProcessTuple(0, t, imputeCtx)
		}
		return int64(m)
	})
}
