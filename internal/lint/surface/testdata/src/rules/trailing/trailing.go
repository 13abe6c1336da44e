// Package trailing: a waiver trailing a declaration or a field covers it,
// and not the line below it.
package trailing

func Trail() {} //pace:allow-unreached the fixture's trailing waiver

// Conf is reached; its fields are not set.
type Conf struct {
	Knob int //pace:allow-unreached the fixture's trailing field waiver
	Bare int // want "field Conf.Bare is never set by non-test code"
}

// Loose is not covered.
func Loose() {} // want "Loose is exported but no non-test code reaches it"

var _ Conf
