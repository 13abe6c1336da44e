package snapshot

import (
	"repro/internal/core"
)

// Guard-table persistence. A guard table's durable content is the set of
// installed feedback punctuations (each Guard's pattern equals its source
// feedback's pattern); the compiled probe forms are rebuilt on load
// (core.GuardTable.Restore), and the punctuation-expiration tracker restarts empty — guards
// whose subsets the stream has already promised complete simply expire
// again when the next covering punctuation arrives, which is safe because
// an unexpired guard can only suppress tuples the stream will never
// produce (DESIGN.md §6.3).

// GuardsView snapshots a guard table's installed feedback list into an
// immutable slice for a phase-1 capture (the table itself keeps mutating
// after the barrier releases; Feedback values are immutable). A nil table
// yields nil.
func GuardsView(g *core.GuardTable) []core.Feedback {
	if g == nil {
		return nil
	}
	guards := g.Guards()
	if len(guards) == 0 {
		return nil
	}
	fs := make([]core.Feedback, len(guards))
	for i, gd := range guards {
		fs[i] = gd.Source
	}
	return fs
}

// PutGuardsView appends a captured guard list; GetGuards reads it back.
func PutGuardsView(e *Encoder, fs []core.Feedback) {
	e.PutInt(len(fs))
	for _, f := range fs {
		e.PutFeedback(f)
	}
}

// GetGuards reads a captured guard list back into g, replacing what it
// held. A guard whose pattern arity does not match the table's is corruption
// or plan drift (its compiled probe would index past the tuple) and poisons
// the decoder rather than panicking later on the probe path; g is then left
// as it was.
func GetGuards(d *Decoder, g *core.GuardTable) {
	n := d.GetInt()
	fs := make([]core.Feedback, 0, d.CountHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		f := d.GetFeedback()
		if d.Err() != nil {
			return
		}
		if f.Pattern.Arity() != g.Arity() {
			d.fail("guard pattern arity %d does not match stream arity %d (corrupt snapshot or plan drift)",
				f.Pattern.Arity(), g.Arity())
			return
		}
		fs = append(fs, f)
	}
	if d.Err() == nil {
		g.Restore(fs)
	}
}
