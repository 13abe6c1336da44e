// Package typewaiver: a waiver on a type covers the type, its methods and
// its fields, and nothing else.
package typewaiver

// Legacy is unreached, as are its method and field.
//
//pace:allow-unreached the fixture's type waiver
type Legacy struct{ Knob int }

// Old is covered by Legacy's waiver.
func (Legacy) Old() {}

// Loose is not covered.
func Loose() {} // want "Loose is exported but no non-test code reaches it"
