// Package methodvalue: a method value or method expression reaches the
// method without calling it.
package methodvalue

// T has three methods.
type T struct{}

// Value is taken as a method value.
func (T) Value() {}

// Expr is taken as a method expression.
func (T) Expr() {}

// Neither is not taken.
func (T) Neither() {} // want "T.Neither is exported but no non-test code reaches it"

var (
	_ = T{}.Value
	_ = T.Expr
)
