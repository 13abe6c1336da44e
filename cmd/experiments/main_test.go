package main

import (
	"strings"
	"testing"
)

// TestSubcommands runs every subcommand at -quick scale: each exits 0 and
// prints its own section header (all prints all three, in order); a name that
// is not a subcommand exits non-zero and lists the ones that are.
func TestSubcommands(t *testing.T) {
	cases := map[string][]section{"all": sections}
	for i, s := range sections {
		cases[s.name] = sections[i : i+1]
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errs strings.Builder
			if code := run([]string{"-quick", name}, &out, &errs); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errs.String())
			}
			rest := out.String()
			for _, s := range want {
				i := strings.Index(rest, s.header)
				if i < 0 {
					t.Fatalf("header %q missing (or out of order) in:\n%s", s.header, out.String())
				}
				rest = rest[i+len(s.header):]
			}
			if n := strings.Count(out.String(), "--- "); n != len(want) {
				t.Errorf("%d section headers printed, want %d", n, len(want))
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
