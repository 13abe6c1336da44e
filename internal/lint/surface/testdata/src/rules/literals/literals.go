// Package literals: a field set to one constant at every site that
// chooses it is a finding; a literal that leaves the field out gives it
// its zero value, a second value. Positional literals set every field.
package literals

// Opts is built three times.
type Opts struct {
	Same  int // want "field Opts.Same is set to 5 by every non-test assignment"
	Mixed int // 5 twice, left out once: 5 and 0
}

// Point is built positionally.
type Point struct {
	X int // want "field Point.X is set to 1 by every non-test assignment"
	Y int // 2 and 3
}

// Build returns what the literals built.
func Build() []any {
	return []any{
		Opts{Same: 5, Mixed: 5},
		Opts{Same: 5, Mixed: 5},
		Opts{Same: 5},
		Point{1, 2},
		Point{1, 3},
	}
}

var _ = Build()
