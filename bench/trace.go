package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fuse"
	"repro/internal/op"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// The traced run gives the per-layer numbers. Its counts are read from what
// the engine exports (edge and operator statistics, checkpoint statuses, the
// epoch timeline, remote frame and byte counters, the Go runtime); its unit
// costs come from the ladder. The ledger multiplies the two per layer and
// reports what is left of the single-threaded ns/tuple as the residue.

// tracedPasses is how many measured passes a traced drain phase makes.
const tracedPasses = 4

// counts is what one instrumented pass exported, per layer.
type counts struct {
	tuples             int64 // input tuples
	edgeTuples         int64 // tuples carried over all edges
	edgePuncts, pages  int64
	depthMax           int
	results            int64
	folded, aggOut     int64
	aggInSuppressed    int64
	splitIn            int64
	splitSkew          float64
	mergePuncts        int64
	selectIn, selectUp int64 // σ-quality: tuples in, tuples its guards suppressed
	// Feedback accounting the operators export as telemetry vars, summed over
	// the plan, and the groups AVERAGE purged in response.
	fbReceived, fbExploited, fbForwarded int64
	purged                               int64
	frames, wireBytes                    int64
	epochs                               int
	holdNs, encodeNs                     int64
	bytesFull, nFull                     int64
	bytesDelta, nDelta                   int64
	alignNs                              int64
}

// sampleDepth polls the registry's edge snapshots while a pass runs and
// keeps the deepest queue it sees.
func sampleDepth(tel *telemetry.Telemetry, stop <-chan struct{}, wg *sync.WaitGroup, out *int) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
		for _, e := range tel.Registry.EdgeSnapshots() {
			*out = max(*out, e.Depth)
		}
	}
}

// instrumented runs one pass with a telemetry registry attached and collects
// what the engine exported about it.
func (r *runner) instrumented(p pass) (*passResult, *counts, error) {
	p.tel = telemetry.New()
	c := &counts{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go sampleDepth(p.tel, stop, &wg, &c.depthMax)
	pr, err := r.runPass(p)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	c.tuples = pr.n
	c.results = pr.results
	for _, g := range pr.rig.graphs {
		for _, e := range g.Edges() {
			c.edgeTuples += e.Stats.Tuples
			c.edgePuncts += e.Stats.Puncts
			c.pages += e.Stats.Pages
			c.depthMax = max(c.depthMax, e.Depth)
			if _, ok := operatorNamed(g, e.Consumer).(*op.Merge); ok {
				c.mergePuncts += e.Stats.Puncts
			}
		}
		for id := 0; id < g.NumNodes(); id++ {
			if g.IsSource(exec.NodeID(id)) {
				continue
			}
			o := g.OperatorAt(exec.NodeID(id))
			if pre, ok := o.(*fuse.Prefixed); ok {
				o = pre.Inner()
			}
			if ve, ok := o.(telemetry.VarExporter); ok {
				for _, v := range ve.TelemetryVars() {
					switch v.Name {
					case "pace_op_feedback_received_total":
						c.fbReceived += v.Value()
					case "pace_op_feedback_exploited_total":
						c.fbExploited += v.Value()
					case "pace_op_feedback_forwarded_total":
						c.fbForwarded += v.Value()
					case "pace_remote_frames_sent_total":
						c.frames += v.Value()
					case "pace_remote_bytes_sent_total":
						c.wireBytes += v.Value()
					}
				}
			}
			switch o := o.(type) {
			case *op.Aggregate:
				st := o.Stats()
				c.folded += st.Folded
				c.aggOut += st.Out
				c.aggInSuppressed += st.InSuppressed
				c.purged += st.Purged
			case *op.Split:
				in, per, _ := o.Stats()
				c.splitIn = in
				if in > 0 {
					c.splitSkew = float64(slices.Max(per)) * float64(len(per)) / float64(in)
				}
			case *op.Select:
				c.selectIn, _, c.selectUp = o.Stats()
			}
		}
		// Checkpoints: each graph's own statuses, and from its timeline how
		// long each epoch took from trigger to the last node's cut.
		var hold, encode int64
		for _, st := range g.CheckpointStatuses() {
			hold += int64(st.BarrierHold)
			encode += int64(st.Encode)
			if st.Base == 0 {
				c.bytesFull += int64(st.Bytes)
				c.nFull++
			} else {
				c.bytesDelta += int64(st.Bytes)
				c.nDelta++
			}
		}
		c.holdNs += hold
		c.encodeNs += encode
		c.epochs = max(c.epochs, len(g.CheckpointStatuses()))
		if tel := g.Telemetry(); tel != nil {
			triggered := map[int64]time.Time{}
			for _, ev := range tel.Timeline.Events() {
				switch ev.Phase {
				case "trigger":
					triggered[ev.Epoch] = ev.At
				case "barrier-hold":
					if at, ok := triggered[ev.Epoch]; ok {
						c.alignNs += int64(ev.At.Sub(at))
					}
				}
			}
		}
	}
	return pr, c, nil
}

// gcCPU is the CPU time the collector has used so far, in seconds. The
// ladder's rungs collect between repetitions, not during them, so the ledger
// carries the collector as a line of its own.
func gcCPU() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

func operatorNamed(g *exec.Graph, name string) exec.Operator {
	for id := 0; id < g.NumNodes(); id++ {
		nid := exec.NodeID(id)
		if !g.IsSource(nid) && g.NameAt(nid) == name {
			return g.OperatorAt(nid)
		}
	}
	return nil
}

// describedTuples is the generator's oracle for guard_hit_frac: how many of
// the first n tuples the issued feedback describes (a segment off screen in a
// period that was announced).
func describedTuples(n, announced int64) int64 {
	var described int64
	for round := int64(0); round < n/mapRound; round++ {
		p := round * mapPeriodUS / mapSwitchUS
		if p >= 1 && p <= announced {
			described += mapRound - mapDetectors
		}
	}
	return described
}

// notApplicable lists the per-layer metrics this workload's plan cannot
// produce — it has no checkpoints and no wire, issues no feedback, or has no
// stateless prefix to time. They are reported as 0; every other metric
// BENCHMARK.json names must have been computed.
func (w *workload) notApplicable() []string {
	var na []string
	if w.ckptEvery == 0 {
		na = append(na, "snapshot.capture_ms", "exec.barrier_align_ms", "snapshot.bytes_full", "snapshot.bytes_delta",
			"remote.bytes_per_tuple", "remote.frames")
	}
	if !w.feedback {
		na = append(na, "core.feedback_issued", "core.feedback_received", "core.feedback_exploited", "core.feedback_forwarded",
			"core.groups_purged", "core.feedback_leaked_results", "core.suppressed_tuples", "core.guard_hit_frac")
	}
	if w.prefix == nil {
		na = append(na, "fuse.kernel_ns_per_tuple")
	}
	return na
}

// fillPerLayer builds the traced result from the metrics actually computed.
// A name BENCHMARK.json promises that was neither computed nor listed as not
// applicable, one computed although listed, and one computed that
// BENCHMARK.json does not name are all errors: a metric cannot silently read 0.
func fillPerLayer(res *result, spec *benchSpec, computed map[string]float64, notApplicable []string) error {
	named := map[string]bool{}
	for _, ms := range spec.PerLayer {
		named[ms.Name] = true
		v, ok := computed[ms.Name]
		switch na := slices.Contains(notApplicable, ms.Name); {
		case ok && na:
			return fmt.Errorf("per-layer metric %s was computed but is listed as not applicable", ms.Name)
		case !ok && !na:
			return fmt.Errorf("per-layer metric %s is named in BENCHMARK.json but was not computed", ms.Name)
		}
		res.Metrics[ms.Name] = metric{v, ms.Unit}
	}
	for name := range computed {
		if !named[name] {
			return fmt.Errorf("per-layer metric %s was computed but BENCHMARK.json does not name it", name)
		}
	}
	return nil
}

// ledgerLine is one layer's share of the single-threaded cost per input
// tuple: how often the layer runs per tuple, times the ladder's unit cost.
type ledgerLine struct {
	layer    string
	perTuple float64
	unitNs   float64
}

func (l ledgerLine) ns() float64 { return l.perTuple * l.unitNs }

func (r *runner) ledger(c *counts, cost map[string]float64) []ledgerLine {
	per := func(x int64) float64 { return float64(x) / float64(c.tuples) }
	lines := []ledgerLine{
		{"gen", 1, cost["gen.ns_per_tuple"]},
		{"queue.handoff", per(c.edgeTuples), cost["queue.handoff_ns_per_tuple"]},
	}
	add := func(present bool, layer string, perTuple, unitNs float64) {
		if present {
			lines = append(lines, ledgerLine{layer, perTuple, unitNs})
		}
	}
	// The prefix runs on every tuple its own guards do not suppress first.
	add(r.w.prefix != nil, "fuse.kernel", per(c.tuples-c.selectUp), cost["fuse.kernel_ns_per_tuple"])
	add(c.selectUp+c.aggInSuppressed > 0, "core.suppress", per(c.selectUp+c.aggInSuppressed), cost["core.suppress_ns_active"])
	add(c.frames > 0, "remote.roundtrip", 1, cost["remote.roundtrip_ns_per_tuple"])
	add(c.splitIn > 0, "op.split_route", per(c.splitIn), cost["op.split_route_ns_per_tuple"])
	add(c.folded > 0, "op.agg_fold", per(c.folded), cost["op.agg_fold_ns_per_tuple"])
	add(c.aggOut > 0, "op.agg_emit", per(c.aggOut), cost["op.agg_emit_ns_per_result"])
	add(c.mergePuncts > 0, "op.merge_align", per(c.mergePuncts), cost["op.merge_align_ns_per_punct"])
	add(c.epochs > 0, "snapshot", per(int64(c.epochs)), float64(c.holdNs+c.encodeNs)/float64(max(c.epochs, 1)))
	return append(lines, ledgerLine{"bench.sink", per(c.results), cost["bench.sink_ns_per_result"]})
}

// traced runs the phases with instrumentation and the ladder, and reports
// the per-layer metrics BENCHMARK.json names.
func (r *runner) traced(spec *benchSpec) (*result, error) {
	log := &spanLog{t0: time.Now()}
	root := log.begin("traced-run", -1)
	var t tally
	if !r.smoke {
		r.passes = tracedPasses
	}
	m := map[string]float64{}

	// Single-threaded baseline, bare, then one instrumented pass for counts.
	id := log.begin("drain_1p", root)
	d1, err := r.drain(1, r.w.drain1p, &t)
	if err != nil {
		return nil, err
	}
	log.end(id, d1.n*int64(len(d1.rates)))
	ns1p := 1e9 / slices.Max(d1.rates) // the fastest pass: see ladder.rung
	prev := runtime.GOMAXPROCS(1)
	id = log.begin("drain_1p instrumented", root)
	var compileTime time.Duration
	gc0 := gcCPU()
	p1, c1, err := r.instrumented(pass{n: d1.n, compiled: &compileTime})
	c1GC := gcCPU() - gc0
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	t.add(p1.outcome)
	log.end(id, d1.n)

	// All cores: bare and instrumented passes alternate, so both see the
	// same machine; their ratio is the tracing overhead.
	id = log.begin("drain_np bare/instrumented", root)
	n := r.size(r.w.drainNp, r.in.block)
	var bare, inst []float64
	var ms0, ms1 runtime.MemStats
	var bareCPU time.Duration
	for i := -1; i < r.passes; i++ {
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		pr, err := r.runPass(pass{n: n})
		if err != nil {
			return nil, err
		}
		t.add(pr.outcome)
		if i >= 0 {
			runtime.ReadMemStats(&ms1)
			bareCPU += cpuTime() - cpu0
			m["go.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
			m["go.allocs_per_tuple"] += float64(ms1.Mallocs - ms0.Mallocs)
			bare = append(bare, pr.rate())
		}
		pi, _, err := r.instrumented(pass{n: n})
		if err != nil {
			return nil, err
		}
		t.add(pi.outcome)
		if i >= 0 {
			inst = append(inst, pi.rate())
		}
	}
	log.end(id, 2*n*int64(r.passes))
	measured := float64(n) * float64(len(bare))
	m["go.allocs_per_tuple"] /= measured
	m["go.cpu_ns_per_tuple"] = float64(bareCPU) / measured
	m["telemetry.overhead_frac"] = median(bare)/median(inst) - 1

	// Paced, instrumented, half length.
	id = log.begin("paced instrumented", root)
	pc, err := r.paced(r.w.pacedTuples/2, true, &t)
	if err != nil {
		return nil, err
	}
	log.end(id, pc.n)
	cp := pc.counts

	// Fixed cost of a run: the plan over no input.
	fixed := make([]float64, 0, rungReps)
	for i := 0; i < rungReps; i++ {
		pr, err := r.runPass(pass{n: 0})
		if err != nil {
			return nil, err
		}
		fixed = append(fixed, ms(pr.dur))
	}

	id = log.begin("ladder", root)
	lad := newLadder(r.w, r.in, r.smoke, log, id)
	if err := lad.climb(); err != nil {
		return nil, err
	}
	log.end(id, 0)
	log.end(root, 0)
	for k, v := range lad.costOf {
		m[k] = v
	}

	// Counts.
	m["gen.late_p99_ms"] = ms(pc.lateP99)
	m["queue.pages"] = float64(c1.pages)
	m["queue.page_fill_frac"] = float64(cp.edgeTuples+cp.edgePuncts) / float64(cp.pages) / queue.DefaultPageSize
	m["queue.depth_max"] = float64(c1.depthMax)
	m["op.split_skew"] = c1.splitSkew
	m["snapshot.epochs"] = float64(c1.epochs)
	if r.w.ckptEvery > 0 {
		epochs := float64(max(c1.epochs, 1))
		m["snapshot.capture_ms"] = float64(c1.holdNs) / 1e6 / epochs
		m["exec.barrier_align_ms"] = float64(c1.alignNs) / 1e6 / epochs
		m["snapshot.bytes_full"] = float64(c1.bytesFull) / float64(max(c1.nFull, 1))
		m["snapshot.bytes_delta"] = float64(c1.bytesDelta) / float64(max(c1.nDelta, 1))
		m["remote.bytes_per_tuple"] = float64(c1.wireBytes) / float64(c1.tuples)
		m["remote.frames"] = float64(c1.frames)
	}
	if fed := p1.outcome; r.w.feedback {
		m["core.feedback_issued"] = float64(len(fed.issued))
		m["core.feedback_received"] = float64(c1.fbReceived)
		m["core.feedback_exploited"] = float64(c1.fbExploited)
		m["core.feedback_forwarded"] = float64(c1.fbForwarded)
		m["core.groups_purged"] = float64(c1.purged)
		m["core.feedback_leaked_results"] = float64(fed.leaks)
		m["core.suppressed_tuples"] = float64(fed.suppressed)
		m["core.guard_hit_frac"] = float64(fed.suppressed) / float64(describedTuples(d1.n, fed.announced))
	}
	m["exec.run_fixed_ms"] = median(fixed)
	m["plan.compile_ms"] = ms(compileTime)
	m["exec.latency_p50_ms"], m["exec.latency_p90_ms"] = ms(pc.p50), ms(pc.p90)
	m["latency_p99_ms"], m["latency_max_ms"] = ms(pc.p99), ms(pc.max)

	// The ledger.
	lines := append(r.ledger(c1, lad.costOf), ledgerLine{"go.gc", 1, c1GC * 1e9 / float64(c1.tuples)})
	var sum float64
	fmt.Printf("  ledger (drain_1p: fastest pass %.1f ns/tuple, median %.0f tuples/s; drain_np %.0f tuples/s bare, %.0f instrumented)\n",
		ns1p, d1.median, median(bare), median(inst))
	fmt.Printf("    %-18s %12s %12s %12s %7s\n", "layer", "per tuple", "unit ns", "ns/tuple", "share")
	for _, l := range lines {
		sum += l.ns()
		fmt.Printf("    %-18s %12.4f %12.2f %12.2f %6.1f%%\n", l.layer, l.perTuple, l.unitNs, l.ns(), 100*l.ns()/ns1p)
	}
	m["exec.residue_ns_per_tuple"] = ns1p - sum
	fmt.Printf("    %-18s %12s %12s %12.2f %6.1f%%\n", "exec.residue", "", "", ns1p-sum, 100*(ns1p-sum)/ns1p)

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if err := fillPerLayer(res, spec, m, r.w.notApplicable()); err != nil {
		return nil, err
	}
	printMetrics(res)
	path, err := log.write(r.w.name, map[string]any{"workload": r.w.name, "metrics": res.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s; %d phases measured again\n", len(log.spans), path, r.repeats)
	return res, nil
}
