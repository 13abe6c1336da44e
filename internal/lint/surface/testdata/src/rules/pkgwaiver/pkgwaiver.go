// Package pkgwaiver is waived as a whole: nothing in it is reported.
//
//pace:allow-unreached the fixture's package waiver
package pkgwaiver

// Alone is unreached.
func Alone() {}

// Kind is unreached, and its field never set.
type Kind struct{ Never int }
