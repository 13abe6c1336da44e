package op

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/snapshot"
)

// What the stateful operators keep across a checkpoint. Each embeds
// snapshot.State and declares its blob, field by field, at the end of Open;
// capture, encode and bounded restore are derived from the declaration
// (DESIGN.md §6.2). The fields written out below are the shapes snapshot has
// no constructor for: the aggregate's and the join's stores, and the join's
// probe counts.
//
// A restore also honors the paper's state-purging argument: state an
// assumed-feedback guard in the cut covers is dropped once the blob's guards
// are in, even where the live operator had retained it — the feedback's
// issuer has disclaimed the subset, and Definition 1 permits any response up
// to full suppression (§6.3).

// aggLayout opens every Aggregate state blob. It is negative because the
// layout before it began with an entry count, which never is: a blob written
// by that build is refused, not misparsed.
const aggLayout = -1

func (a *Aggregate) keepState() {
	a.Keep(a.Name(),
		snapshot.Marker(aggLayout),
		a.storeField(),
		snapshot.Guards(a.guardsOut),
		snapshot.Guards(a.guardsPrefix),
		snapshot.Int64(&a.inTuples, &a.outTuples, &a.folded, &a.inSuppressed,
			&a.outSuppressed, &a.purged, &a.partialsEmitted))
}

// storeField keeps the aggregate's groups. Phase 1 copies them out of the
// store; the windows they sat in may close and be reused before phase 2 runs.
// A blob loads into a fresh store, and the groups the cut's guards cover are
// dropped once the guards are in.
func (a *Aggregate) storeField() snapshot.Field {
	var (
		loaded aggStore
		refs   []aggRef
	)
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			return a.store.capture().encodeGroups
		},
		Load: func(dec *snapshot.Decoder) (err error) {
			loaded.reset(len(a.GroupBy))
			refs, err = a.decodeGroups(dec, &loaded)
			return err
		},
		Settle: func() error {
			a.store, loaded = loaded, aggStore{}
			a.dropCovered(refs)
			refs = nil
			return nil
		},
	}
}

// encodeGroups writes the captured groups window by window in slot order,
// which is canonical (DESIGN.md §10.6): equal histories encode to equal
// bytes, in the live operator and in a twin restored from its capture.
func (c *aggCapture) encodeGroups(enc *snapshot.Encoder) {
	enc.PutInt(len(c.wins))
	at := int32(0)
	for _, cw := range c.wins {
		enc.PutInt64(cw.wid)
		enc.PutInt(cw.n)
		for i := at; i < at+int32(cw.n); i++ {
			g := &c.groups[i]
			enc.PutValues(c.key(i))
			enc.PutInt64(g.count)
			enc.PutFloat64(g.sum)
			enc.PutFloat64(g.min)
			enc.PutFloat64(g.max)
		}
		at += int32(cw.n)
	}
}

// errGroupWidth reports a snapshot whose groups do not have the operator's
// GroupBy width.
func (a *Aggregate) errGroupWidth(got int) error {
	return fmt.Errorf("op: aggregate %q: groups by %d attributes but the snapshot's groups carry %d (plan drift)",
		a.Name(), len(a.GroupBy), got)
}

// decodeGroups reads what encodeGroups wrote into st, in blob order, and
// returns where each group landed.
func (a *Aggregate) decodeGroups(dec *snapshot.Decoder, st *aggStore) ([]aggRef, error) {
	var refs []aggRef
	nw := dec.GetCount()
	for i := 0; i < nw && dec.Err() == nil; i++ {
		wid := dec.GetInt64()
		n := dec.GetCount()
		for j := 0; j < n && dec.Err() == nil; j++ {
			key := dec.GetValues()
			acc := aggGroup{count: dec.GetInt64(), sum: dec.GetFloat64(), min: dec.GetFloat64(), max: dec.GetFloat64()}
			if dec.Err() != nil {
				break
			}
			if len(key) != len(st.cols) {
				return nil, a.errGroupWidth(len(key))
			}
			w, slot := st.restore(wid, key, acc)
			refs = append(refs, aggRef{w, slot})
		}
	}
	return refs, dec.Err()
}

// aggRef names one group of the store.
type aggRef struct {
	w    *aggWindow
	slot int32
}

// dropCovered applies assumption-driven state dropping to restored groups:
// guards asserted at the cut cover subsets the consumer disclaimed, so their
// state need not survive recovery. A blob may name a group twice (nothing this
// build writes does): it landed in one slot, which is purged once.
func (a *Aggregate) dropCovered(refs []aggRef) {
	for _, r := range refs {
		if r.w.groups[r.slot].dead {
			continue
		}
		if a.guardsPrefix.Suppress(a.probePrefix(r.w, r.slot)) ||
			a.guardsOut.Suppress(a.probeResult(r.w, r.slot)) {
			a.purged++
			r.w.purge(r.slot)
		}
	}
}

// joinLayout opens every Join state blob. Like aggLayout it is negative: the
// layout before −1 began with an entry count, −1's entries carried the ids
// only a delta needed, and −2 kept the impatient join's asked keys and the
// thrifty join's probe window counts beside the two sides.
const joinLayout = -3

func (j *Join) keepState() {
	j.Keep(j.Name(),
		snapshot.Marker(joinLayout),
		j.storeField(),
		snapshot.Int64(&j.wm[0].v), snapshot.Bool(&j.wm[0].set, &j.wm[0].eos),
		snapshot.Int64(&j.wm[1].v), snapshot.Bool(&j.wm[1].set, &j.wm[1].eos),
		snapshot.Int64(&j.lastOutWM), snapshot.Bool(&j.lastOutWMSet),
		snapshot.Int64(&j.feedbackSeq),
		snapshot.Guards(j.guardsIn[0]),
		snapshot.Guards(j.guardsIn[1]),
		snapshot.Guards(j.guardsOut),
		snapshot.Int64(&j.emitted, &j.outerEmitted, &j.suppressedIn, &j.suppressedOut,
			&j.purgedByFeedback, &j.thriftySent, &j.impatientSent))
}

// storeField keeps the join's two sides, left then right, each as its
// entries in arrival order. A load decodes every side before it links them
// into emptied sides, and once the cut's input guards are in, the entries
// they cover go (§6.3). An entry's tuple must have its side's arity: the key
// projection indexes it.
func (j *Join) storeField() snapshot.Field {
	var loaded [2][]joinEntry
	arity := [2]int{j.Left.Arity(), j.Right.Arity()}
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			var sides [2][]joinEntry
			for i := range j.sides {
				sides[i] = slices.Clone(j.sides[i].entries)
			}
			return func(enc *snapshot.Encoder) {
				for _, entries := range sides {
					enc.PutInt(len(entries))
					for e := range entries {
						e := &entries[e]
						enc.PutTuple(e.t)
						enc.PutInt64(e.ts)
						enc.PutBool(e.matched)
					}
				}
			}
		},
		Load: func(dec *snapshot.Decoder) error {
			for i := range loaded {
				n := dec.GetCount()
				loaded[i] = make([]joinEntry, 0, n)
				for k := 0; k < n && dec.Err() == nil; k++ {
					loaded[i] = append(loaded[i], joinEntry{t: dec.GetTupleArity(arity[i]), ts: dec.GetInt64(), matched: dec.GetBool()})
				}
			}
			return nil
		},
		Settle: func() error {
			j.resetSides()
			for i := range j.sides {
				j.sides[i].load(loaded[i])
			}
			loaded = [2][]joinEntry{}
			for side, guards := range j.guardsIn {
				if guards.Active() > 0 {
					n := j.sides[side].removeWhere(func(e *joinEntry) bool { return guards.Suppress(e.t) }, nil)
					j.purgedByFeedback += int64(n)
				}
			}
			return nil
		},
	}
}

// keepState: the guard table is the whole point — losing it on crash would
// re-expose the archive to lookups the feedback already disclaimed.
func (im *Impute) keepState() {
	im.Keep(im.Name(), snapshot.Guards(im.guards), snapshot.Int64(&im.imputed, &im.skipped, &im.passed))
}

// fields declares the alignment state: per input its EOS and its tracker
// (frontier, then recorded patterns), then the asserted frontier and the
// pending list. All of it must survive recovery, otherwise a restored fan-in
// could re-emit punctuation it already promised (downstream would purge
// twice, harmless) or forward a pattern a lagging input has not re-covered
// (unsound).
func (al *aligner) fields() []snapshot.Field {
	arity := al.schema.Arity()
	frontier := func(s *punct.Scheme) (fs []snapshot.Field) {
		wm, set, _ := s.State()
		for a := range wm {
			fs = append(fs, snapshot.Int64(&wm[a]), snapshot.Bool(&set[a]))
		}
		return fs
	}
	ins := snapshot.Group(len(al.promised), func(i int) []snapshot.Field {
		_, _, recorded := al.promised[i].State()
		fs := append([]snapshot.Field{snapshot.Bool(&al.ended[i])}, frontier(al.promised[i])...)
		return append(fs, snapshot.Patterns(recorded, arity))
	})
	fs := append([]snapshot.Field{ins}, frontier(al.sent)...)
	return append(fs, snapshot.Patterns(&al.pending, arity))
}

// paceLayout opens every Pace state blob. It is negative because the layout
// before it began with the high watermark, a timestamp, which no source in
// the tree makes negative: a blob written by that build is refused, not
// misparsed.
const paceLayout = -1

// keepState: the high watermark and feedback cutoff are what make a restored
// PACE keep its promises — a fresh one would re-admit tuples the old
// instance's feedback already disclaimed — and the alignment state is what
// keeps its punctuation sound.
func (p *Pace) keepState() {
	fs := []snapshot.Field{
		snapshot.Marker(paceLayout),
		snapshot.Int64(&p.hw), snapshot.Bool(&p.hwSet),
		snapshot.Int64(&p.lastCutoff), snapshot.Bool(&p.cutoffSet),
		snapshot.Int64(&p.feedbackSeq, &p.feedbackSent),
	}
	fs = append(fs, p.align.fields()...)
	for i := range p.perIn {
		fs = append(fs, snapshot.Int64(&p.perIn[i].Passed, &p.perIn[i].Dropped))
	}
	p.Keep(p.Name(), fs...)
}

func (m *Merge) keepState() {
	m.Keep(m.Name(), append(m.align.fields(),
		snapshot.Guards(m.guards),
		snapshot.Int64(&m.suppressed))...)
}

// keepState: per-partition assumed and demanded tables — what each partition
// has asserted, and the record of what has travelled upstream: a restored
// split relays only what changes them — and the round-robin cursor, which
// matters for keyless splits, where a restored run must continue the same
// routing sequence to stay canonically identical. The desired tables are not
// kept: a desired pattern lost at a restore relays once more, and the
// receiver's table absorbs it.
func (s *Split) keepState() {
	counters := []*int64{&s.in, &s.suppressed}
	for i := range s.outPer {
		counters = append(counters, &s.outPer[i])
	}
	demanded := s.Holds(core.Demanded)
	s.Keep(s.Name(),
		snapshot.Group(s.n(), func(i int) []snapshot.Field {
			return []snapshot.Field{snapshot.Guards(s.perOut[i]), snapshot.Guards(demanded[i])}
		}),
		snapshot.Int(&s.rr),
		snapshot.Int64(counters...))
}

// keepState mirrors Split's: per-consumer assumed guards — the record of what
// has travelled upstream — and the suppressed count. Without them a restored
// instance forgot every assertion its consumers had made and could relay the
// same pattern upstream a second time.
func (d *Duplicate) keepState() {
	d.Keep(d.Name(),
		snapshot.Group(d.n(), func(i int) []snapshot.Field { return []snapshot.Field{snapshot.Guards(d.perOut[i])} }),
		snapshot.Int64(&d.suppressed))
}

// keepState: the reorder buffer holds tuples already consumed from upstream
// but not yet emitted, so a restore without it drops rows from the result.
// The patterns to promote and the assumed guards ride along; their expiry
// trackers rebuild from post-restore punctuation.
func (p *Prioritize) keepState() {
	p.Keep(p.Name(),
		snapshot.Tuples(&p.pending, p.Schema.Arity()),
		snapshot.Desired(p.desired, p.demanded),
		snapshot.Guards(p.guards),
		snapshot.Int64(&p.in, &p.out, &p.promoted, &p.dropped))
}
