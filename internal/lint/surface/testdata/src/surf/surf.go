// Package surf is the surface analyzer's fixture: what it declares is
// reached from package user, from surf_test.go only, or from nowhere.
package surf

// Unreached is called by nothing.
func Unreached() {} // want "Unreached is exported but no non-test code reaches it"

// Orphan is a type nothing names.
type Orphan struct{} // want "Orphan is exported but no non-test code reaches it"

// Used is reached from package user.
type Used struct {
	Never     int  // want "field Used.Never is never set by non-test code"
	Fixed     bool // want "field Used.Fixed is set to true by every non-test assignment"
	Varied    int
	Defaulted int // want "field Used.Defaulted is only ever filled in by a default: no non-test code chooses it"
}

// Method is called by nothing.
func (Used) Method() {} // want "Used.Method is exported but no non-test code reaches it"

// TestOnly is called from surf_test.go alone.
func (Used) TestOnly() {} // want "Used.TestOnly is exported but no non-test code reaches it"

// Called is called from package user.
func (Used) Called() {}

// Fill fills in the default.
func (u *Used) Fill() {
	if u.Defaulted == 0 {
		u.Defaulted = 9
	}
}

// Shape is an interface package user calls.
type Shape interface{ Area() int }

// Square is reached as a Shape, and its Area only through the interface.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 4 }

// Waived is unreached and says why.
//
//pace:allow-unreached the fixture's reasoned waiver
func Waived() {}

//pace:allow-unreached
func Bare() {} // want "//pace:allow-unreached on Bare needs a reason"

// Stale is reached, so its waiver covers nothing.
//
//pace:allow-unreached reached after all // want "covers nothing that is unreached; delete it"
func Stale() {}
