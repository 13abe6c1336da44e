package snapshot

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

// State is the Stater of an operator or source that declares what it keeps
// (DESIGN.md §6.2). The owner embeds it and, in Open, declares the fields of
// its blob in order with Keep; CaptureState and LoadState are derived from
// that list. A field is a codec built from closures over the owner's own
// variables — no reflection:
//
//   - phase 1 runs every field's Capture in order, each taking the view it
//     needs and returning the encoder of that view;
//   - phase 2 runs those encoders in the same order;
//   - a load runs every field's decode in order, refuses a blob with bytes
//     left over, and only then runs the fields' Settle steps.
type State struct {
	owner  string
	fields []Field
}

// Field is one thing a Stater keeps. The constructors below cover the shapes
// the engine's Staters keep; a field of another shape fills the struct.
type Field struct {
	// Capture takes the field's phase-1 view and returns the phase-2 encoder
	// of that view. The view must not alias anything the owner mutates after
	// the barrier releases.
	Capture func() func(*Encoder)
	// Load reads what a capture wrote. It is bounded by the bytes received: a
	// count it reads sizes nothing beyond them (GetCount).
	Load func(*Decoder) error
	// Settle, when set, runs once every field of a blob has been read and no
	// byte is left over, in field order.
	Settle func() error
}

// Keep declares the fields, in the order the blob holds them; owner names
// the Stater in load errors. Open calls it, so it replaces any earlier
// declaration.
func (s *State) Keep(owner string, fields ...Field) {
	*s = State{owner: owner, fields: fields}
}

// CaptureState implements Stater. The mode is ignored: every capture is full.
func (s *State) CaptureState(CaptureMode) (Capture, error) {
	encode := captureAll(s.fields)
	return Capture{Encode: func(e *Encoder) error {
		encode(e)
		return nil
	}}, nil
}

// LoadState implements Stater.
func (s *State) LoadState(dec *Decoder) error {
	err := loadAll(s.fields, dec)
	if err == nil && dec.Remaining() > 0 {
		err = fmt.Errorf("snapshot: %d bytes left unread after the last field (a blob of another layout)", dec.Remaining())
	}
	for _, f := range s.fields {
		if err == nil && f.Settle != nil {
			err = f.Settle()
		}
	}
	if err != nil {
		return fmt.Errorf("state of %q: %w", s.owner, err)
	}
	return nil
}

// captureAll runs the fields' phase 1 and returns their phase 2 in one.
func captureAll(fields []Field) func(*Encoder) {
	encs := make([]func(*Encoder), 0, len(fields))
	for _, f := range fields {
		if f.Capture != nil {
			encs = append(encs, f.Capture())
		}
	}
	return func(e *Encoder) {
		for _, enc := range encs {
			enc(e)
		}
	}
}

// loadAll reads the fields in order, up to the first error.
func loadAll(fields []Field, dec *Decoder) error {
	for _, f := range fields {
		if f.Load == nil {
			continue
		}
		if err := f.Load(dec); err != nil {
			return err
		}
		if err := dec.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Marker opens a blob with a layout number. A load refuses any other, so a
// blob another version of the owner wrote is refused, not misparsed.
func Marker(layout int64) Field {
	return Field{
		Capture: func() func(*Encoder) { return func(e *Encoder) { e.PutInt64(layout) } },
		Load: func(d *Decoder) error {
			if got := d.GetInt64(); d.err == nil && got != layout {
				return fmt.Errorf("snapshot: blob has layout %d, this build reads layout %d (written by another version of its owner)", got, layout)
			}
			return nil
		},
	}
}

// scalars keeps values read and written through pointers, one after another.
func scalars[T any](ps []*T, put func(*Encoder, T), get func(*Decoder) T) Field {
	return Field{
		Capture: func() func(*Encoder) {
			vs := make([]T, len(ps))
			for i, p := range ps {
				vs[i] = *p
			}
			return func(e *Encoder) {
				for _, v := range vs {
					put(e, v)
				}
			}
		},
		Load: func(d *Decoder) error {
			for _, p := range ps {
				*p = get(d)
			}
			return nil
		},
	}
}

// Int64, Int, Bool and Float64 keep scalars: counters, positions, flags.
func Int64(ps ...*int64) Field     { return scalars(ps, (*Encoder).PutInt64, (*Decoder).GetInt64) }
func Int(ps ...*int) Field         { return scalars(ps, (*Encoder).PutInt, (*Decoder).GetInt) }
func Bool(ps ...*bool) Field       { return scalars(ps, (*Encoder).PutBool, (*Decoder).GetBool) }
func Float64(ps ...*float64) Field { return scalars(ps, (*Encoder).PutFloat64, (*Decoder).GetFloat64) }

// list keeps a counted slice.
func list[T any](p *[]T, put func(*Encoder, T), get func(*Decoder) T) Field {
	return Field{
		Capture: func() func(*Encoder) {
			vs := slices.Clone(*p)
			return func(e *Encoder) {
				e.PutInt(len(vs))
				for _, v := range vs {
					put(e, v)
				}
			}
		},
		Load: func(d *Decoder) error {
			n := d.GetCount()
			vs := make([]T, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				vs = append(vs, get(d))
			}
			*p = vs
			return nil
		},
	}
}

// Tuples keeps a list of tuples of the given arity; a load refuses a tuple of
// another. The tuples are immutable once stored, so the capture copies only
// the slice.
func Tuples(p *[]stream.Tuple, arity int) Field {
	return list(p, (*Encoder).PutTuple, func(d *Decoder) stream.Tuple { return d.GetTupleArity(arity) })
}

// Patterns keeps a list of punctuation patterns of the given arity; a load
// refuses a pattern of another.
func Patterns(p *[]punct.Pattern, arity int) Field {
	return list(p, (*Encoder).PutPattern, func(d *Decoder) punct.Pattern { return d.GetPatternArity(arity) })
}

// Guards keeps a guard table as its installed feedback list. The compiled
// probe forms are rebuilt on load and the expiration tracker restarts empty:
// a guard whose subset the stream already promised complete expires again at
// the next covering punctuation, and until then can only suppress tuples the
// stream will never produce (DESIGN.md §6.3). A guard whose pattern arity is
// not the table's is refused: its probe would index past the tuple.
func Guards(g *core.GuardTable) Field {
	return held([]*core.GuardTable{g}, (*Encoder).PutFeedback, func(d *Decoder) core.Feedback {
		f := d.GetFeedback()
		if d.err == nil && f.Pattern.Arity() != g.Arity() {
			d.fail("guard pattern arity %d does not match stream arity %d (corrupt snapshot or plan drift)", f.Pattern.Arity(), g.Arity())
		}
		return f
	})
}

// Desired keeps tables of patterns an operator promotes — PRIORITIZE's
// desired and demanded tables — as one pattern list, the layout of Patterns:
// a promotion needs neither the intent nor the origin of the feedback that
// asked for it. A load installs every pattern into the first table as desired
// feedback, and refuses one of another arity.
func Desired(tables ...*core.GuardTable) Field {
	return held(tables, func(e *Encoder, f core.Feedback) { e.PutPattern(f.Pattern) },
		func(d *Decoder) core.Feedback { return core.NewDesired(d.GetPatternArity(tables[0].Arity())) })
}

// held keeps the feedback the tables hold as one counted list, each entry
// written by put and read by get; a load restores the list into the first.
func held(tables []*core.GuardTable, put func(*Encoder, core.Feedback), get func(*Decoder) core.Feedback) Field {
	return Field{
		Capture: func() func(*Encoder) {
			var fs []core.Feedback
			for _, t := range tables {
				for _, g := range t.Guards() {
					fs = append(fs, g.Source)
				}
			}
			return func(e *Encoder) {
				e.PutInt(len(fs))
				for _, f := range fs {
					put(e, f)
				}
			}
		},
		Load: func(d *Decoder) error {
			n := d.GetCount()
			fs := make([]core.Feedback, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				fs = append(fs, get(d))
			}
			if d.err == nil {
				tables[0].Restore(fs)
			}
			return nil
		},
	}
}

// Group keeps n like groups of fields — one per port, input or pair —
// behind their count, which a load checks against n: a blob of a plan with
// another fan is refused, not loaded into the wrong groups. The fields of a
// group settle nothing.
func Group(n int, each func(i int) []Field) Field {
	var fields []Field
	for i := 0; i < n; i++ {
		fields = append(fields, each(i)...)
	}
	return Field{
		Capture: func() func(*Encoder) {
			encode := captureAll(fields)
			return func(e *Encoder) {
				e.PutInt(n)
				encode(e)
			}
		},
		Load: func(d *Decoder) error {
			if got := d.GetInt(); d.err == nil && got != n {
				return fmt.Errorf("snapshot: blob carries %d groups but the plan has %d (plan drift)", got, n)
			}
			return loadAll(fields, d)
		},
	}
}

// Then is a field that keeps nothing: fn runs once a blob has loaded whole,
// for a check or a step that needs every field in place.
func Then(fn func() error) Field {
	return Field{Settle: fn}
}
