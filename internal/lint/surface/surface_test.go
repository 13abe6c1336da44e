package surface_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/surface"
)

func TestSurface(t *testing.T) {
	linttest.Run(t, surface.Analyzer, "surf", "user")
}

// TestSurfaceRules runs one fixture per rule of what counts as reached,
// set or waived (the package comment), each a program of its own.
func TestSurfaceRules(t *testing.T) {
	for _, rule := range []string{
		"assert", "typeswitch", "external", "embedded", "generic", "methodvalue",
		"fields", "literals", "values", "typewaiver", "pkgwaiver", "trailing",
	} {
		t.Run(rule, func(t *testing.T) { linttest.Run(t, surface.Analyzer, "rules/"+rule) })
	}
}
