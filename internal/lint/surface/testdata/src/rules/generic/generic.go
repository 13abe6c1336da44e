// Package generic: a method whose signature mentions a type parameter is
// reached through a generic interface whose method is called, or through
// one instance of it.
package generic

// Putter is called through.
type Putter[T any] interface{ Put(T) }

// Box holds one value.
type Box[T any] struct{ v T }

// Put is reached through Putter.
func (b *Box[T]) Put(v T) { b.v = v }

// Take is in no called interface.
func (b *Box[T]) Take() T { return b.v } // want "Box.Take is exported but no non-test code reaches it"

func fill[T any](p Putter[T], v T) { p.Put(v) }

func init() { fill[int](&Box[int]{}, 1) }

// Slot holds one value.
type Slot[T any] struct{ v T }

// Set is reached through Setter[int], an instance of the interface.
func (s *Slot[T]) Set(v T) { s.v = v }

// Setter is called through at one instance.
type Setter[T any] interface{ Set(T) }

func init() {
	var s Setter[int] = &Slot[int]{}
	s.Set(1)
}
