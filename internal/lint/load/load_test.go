package load

import (
	"strings"
	"testing"
)

// TestDependents: the modules nested in the repository that require it
// (bench/) are loaded as callers, type-checked against it; a directory
// outside any module is an error.
func TestDependents(t *testing.T) {
	t.Run("nested-requiring-modules", func(t *testing.T) {
		pkgs, err := Dependents(".")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatal("no dependent packages: bench/ requires the root module")
		}
		for _, p := range pkgs {
			if p.PkgPath != "repro/bench" && !strings.HasPrefix(p.PkgPath, "repro/bench/") {
				t.Errorf("loaded %s, which is not in a module that requires repro", p.PkgPath)
			}
			if p.Types == nil || len(p.Syntax) == 0 {
				t.Errorf("%s was not parsed and type-checked", p.PkgPath)
			}
		}
	})
	t.Run("outside-any-module", func(t *testing.T) {
		if _, err := Dependents(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no go.mod") {
			t.Fatalf("Dependents outside a module: err = %v", err)
		}
	})
}
