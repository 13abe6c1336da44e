package stream

import (
	"fmt"
	"strings"
)

// Field is one attribute of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the attributes of a stream. Schemas are immutable after
// construction; operators share them by value.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. Names must be unique and non-empty.
func NewSchema(fields ...Field) (Schema, error) {
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return Schema{}, fmt.Errorf("stream: schema field %d has empty name", i)
		}
		if _, dup := idx[f.Name]; dup {
			return Schema{}, fmt.Errorf("stream: duplicate schema field %q", f.Name)
		}
		idx[f.Name] = i
	}
	return Schema{fields: append([]Field(nil), fields...), index: idx}, nil
}

// MustSchema is NewSchema that panics on error; for statically-known schemas.
func MustSchema(fields ...Field) Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// F is shorthand for constructing a Field.
func F(name string, kind Kind) Field { return Field{Name: name, Kind: kind} }

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.fields) }

// Field returns the i-th attribute.
func (s Schema) Field(i int) Field { return s.fields[i] }

// Index returns the position of the named attribute, or -1.
func (s Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Equal reports structural equality (same names and kinds in order).
func (s Schema) Equal(o Schema) bool {
	if len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}

// Concat returns the schema of s followed by o, renaming collisions in o
// with the given prefix (e.g. "right."). Used by join output schemas.
func (s Schema) Concat(o Schema, collisionPrefix string) (Schema, error) {
	out := make([]Field, 0, len(s.fields)+len(o.fields))
	out = append(out, s.fields...)
	for _, f := range o.fields {
		name := f.Name
		if s.Has(name) {
			name = collisionPrefix + name
		}
		out = append(out, Field{Name: name, Kind: f.Kind})
	}
	return NewSchema(out...)
}

// String renders the schema as (name:kind, ...).
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// CheckValue validates that v is storable in attribute i: either Null or the
// declared kind (with int→float widening allowed).
func (s Schema) CheckValue(i int, v Value) error {
	if i < 0 || i >= len(s.fields) {
		return fmt.Errorf("stream: attribute index %d out of range for %s", i, s)
	}
	if v.Kind == KindNull {
		return nil
	}
	want := s.fields[i].Kind
	if v.Kind == want {
		return nil
	}
	if want == KindFloat && v.Kind == KindInt {
		return nil
	}
	return fmt.Errorf("stream: attribute %q wants %v, got %v", s.fields[i].Name, want, v.Kind)
}
