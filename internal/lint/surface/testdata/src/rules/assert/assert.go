// Package assert: asserting a value to an interface reaches every method
// of that interface, though nothing calls them (a marker interface).
package assert

// Marker is asserted, never called.
type Marker interface{ Mark() }

// T is asserted to Marker.
type T struct{}

// Mark is reached by the assertion alone.
func (T) Mark() {}

// Unasked is in no asserted interface.
func (T) Unasked() {} // want "T.Unasked is exported but no non-test code reaches it"

var _ = isMarker(T{})

func isMarker(v any) bool {
	_, ok := v.(Marker)
	return ok
}
