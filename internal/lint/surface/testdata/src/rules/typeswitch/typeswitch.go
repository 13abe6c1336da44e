// Package typeswitch: a type switch case asserts its interface, so it
// reaches every method of it.
package typeswitch

// Shutter is named in a type switch, never called.
type Shutter interface{ Shut() }

// T is switched on.
type T struct{}

// Shut is reached by the switch case alone.
func (T) Shut() {}

// Unasked is in no switched interface.
func (T) Unasked() {} // want "T.Unasked is exported but no non-test code reaches it"

var _ = kind(T{})

func kind(v any) int {
	switch v.(type) {
	case Shutter:
		return 1
	}
	return 0
}
