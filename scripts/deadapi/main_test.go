package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module whose internal/lib package has one exported
// identifier of each kind the checker judges: called only from a test,
// called from main, allow-listed, reached through an anonymous interface,
// serving errors.Is and errors.Unwrap, and promoted through an embedded
// field into a type that satisfies a named interface.
const fixture = "testdata/fixture"

func TestFixture(t *testing.T) {
	for _, tc := range []struct {
		name  string
		allow string
		want  []string
	}{{
		name:  "allow-listed",
		allow: filepath.Join(fixture, "allow.txt"),
		want: []string{
			"unreferenced outside tests: internal/lib.TestOnly (internal/lib/lib.go:7)",
		},
	}, {
		name:  "no allow-list",
		allow: filepath.Join(t.TempDir(), "missing.txt"),
		want: []string{
			"unreferenced outside tests: internal/lib.Kept (internal/lib/lib.go:13)",
			"unreferenced outside tests: internal/lib.TestOnly (internal/lib/lib.go:7)",
		},
	}, {
		name:  "stale entries",
		allow: writeAllow(t, "internal/lib.Kept reason\ninternal/lib.Used reason\ninternal/lib.Gone reason\n"),
		want: []string{
			"unreferenced outside tests: internal/lib.TestOnly (internal/lib/lib.go:7)",
			"allow-list entry referenced or gone: internal/lib.Gone",
			"allow-list entry referenced or gone: internal/lib.Used",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			n, err := run(fixture, tc.allow, &out)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			got := lines[:len(lines)-1] // the last line is the summary
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") || n != len(tc.want) {
				t.Fatalf("%d findings:\n%s\nwant:\n%s", n, out.String(), strings.Join(tc.want, "\n"))
			}
		})
	}
}

func TestAllowEntryNeedsReason(t *testing.T) {
	if _, err := run(fixture, writeAllow(t, "internal/lib.Kept\n"), &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "has no reason") {
		t.Fatalf("err = %v, want a missing-reason error", err)
	}
}

func writeAllow(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
