// Package user is the surface fixture's caller.
package user

import "repro/internal/lint/surface/testdata/src/surf"

func init() {
	u := surf.Used{Fixed: true, Varied: 1}
	u.Called()
	u.Fill()
	v := surf.Used{Fixed: true, Varied: 2}
	_ = v
	var s surf.Shape = surf.Square{}
	_ = s.Area()
	surf.Stale()
}
