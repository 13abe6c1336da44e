// Package values: exported variables and constants are reached by use,
// and a waiver in their doc comment covers them.
package values

// Limit is used by nothing.
const Limit = 3 // want "Limit is exported but no non-test code reaches it"

// Default is used by nothing.
var Default = 4 // want "Default is exported but no non-test code reaches it"

// Used is read below.
const Used = 1

// Tuning is unused and waived.
//
//pace:allow-unreached the fixture's value waiver
var Tuning = 2

var _ = Used
