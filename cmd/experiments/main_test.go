package main

import (
	"io"
	"strings"
	"testing"
)

// TestSubcommands runs the real experiments once, through all, at -quick
// scale: it exits 0 and prints the three section headers in order. Dispatch
// of a single name is checked against stub sections, so that no experiment
// runs twice: each name runs its own section alone, with -quick passed on,
// and prints its header once. A name that is not a subcommand exits non-zero
// and lists the ones that are.
func TestSubcommands(t *testing.T) {
	checkHeaders := func(t *testing.T, args []string, want []section) {
		t.Helper()
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errs.String())
		}
		rest := out.String()
		for _, s := range want {
			i := strings.Index(rest, s.header)
			if i < 0 {
				t.Fatalf("%v: header %q missing (or out of order) in:\n%s", args, s.header, out.String())
			}
			rest = rest[i+len(s.header):]
		}
		if n := strings.Count(out.String(), "--- "); n != len(want) {
			t.Errorf("%v: %d section headers printed, want %d", args, n, len(want))
		}
	}
	t.Run("all", func(t *testing.T) {
		checkHeaders(t, []string{"-quick", "all"}, sections)
	})

	saved := sections
	t.Cleanup(func() { sections = saved })
	type call struct {
		name  string
		quick bool
	}
	var ran []call
	sections = nil
	for _, s := range saved {
		name := s.name
		sections = append(sections, section{name, s.header, func(_ io.Writer, quick bool) error {
			ran = append(ran, call{name, quick})
			return nil
		}})
	}
	for i, s := range sections {
		t.Run(s.name, func(t *testing.T) {
			ran = nil
			checkHeaders(t, []string{"-quick", s.name}, sections[i:i+1])
			if len(ran) != 1 || ran[0].name != s.name {
				t.Errorf("ran %v, want only %s", ran, s.name)
			} else if !ran[0].quick {
				t.Errorf("-quick not passed on")
			}
		})
	}

	for _, args := range [][]string{{"nope"}, {"-quick"}, {"tables", "speedmap"}, {"-hours", "1", "speedmap"}} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		for _, name := range names() {
			if !strings.Contains(errs.String(), name) {
				t.Errorf("%v: stderr does not list %q:\n%s", args, name, errs.String())
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, out.String())
		}
	}
}
