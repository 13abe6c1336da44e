// Package embedded: a method promoted from an embedded type is reached
// when the embedding type implements a called interface, though the
// embedded type alone does not.
package embedded

// Shape is called through.
type Shape interface {
	Girth() int
	Label() string
}

// Base supplies Girth but not Label.
type Base struct{}

// Girth is reached through Outer's Shape.
func (Base) Girth() int { return 1 }

// Spare is promoted too, but no interface has it.
func (Base) Spare() {} // want "Base.Spare is exported but no non-test code reaches it"

// Outer embeds Base and completes Shape.
type Outer struct{ Base }

// Label implements Shape.
func (Outer) Label() string { return "o" }

var _ = describe(Outer{})

func describe(s Shape) int {
	_ = s.Label()
	return s.Girth()
}
