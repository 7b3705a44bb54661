package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passing = `
name: tiny
defaults:
  workload: {mix: w1, load: 0.5, ncpu: 32, window_s: 60, seed: 3}
  options: {policy: equip}
events:
  - submit: {name: a}
  - wait: {run: a, state: done}
assertions:
  - state: {run: a, is: done}
`

const failing = `
name: wrong
defaults:
  workload: {mix: w1, load: 0.5, ncpu: 32, window_s: 60, seed: 3}
  options: {policy: equip}
events:
  - submit: {name: a}
  - wait: {run: a, state: done}
assertions:
  - state: {run: a, is: failed}
`

func TestRunExitCodes(t *testing.T) {
	pass := write(t, "pass.yaml", passing)
	fail := write(t, "fail.yaml", failing)
	bad := write(t, "bad.yaml", "name: [unclosed")

	var out, errOut bytes.Buffer
	if code := run([]string{"run", pass}, &out, &errOut); code != 0 {
		t.Fatalf("passing scenario exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "scenario tiny: PASS") {
		t.Fatalf("text report missing verdict:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"run", fail}, &out, &errOut); code != 1 {
		t.Fatalf("failing scenario exit %d, want 1", code)
	}

	errOut.Reset()
	if code := run([]string{"run", bad}, &out, &errOut); code != 2 {
		t.Fatalf("malformed scenario exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "bad.yaml") {
		t.Fatalf("stderr %q does not name the bad file", errOut.String())
	}

	if code := run([]string{"frobnicate"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown command exit %d, want 2", code)
	}

	// A spec the daemon would reject is bad input, not a failing scenario.
	errOut.Reset()
	badSpec := write(t, "badspec.yaml", strings.Replace(passing, "mix: w1", "mix: w9", 1))
	if code := run([]string{"run", badSpec}, &out, &errOut); code != 2 {
		t.Fatalf("scenario with mix w9 exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown mix "w9"`) {
		t.Fatalf("stderr %q does not name the bad mix", errOut.String())
	}
}

func TestRunJSONDeterministic(t *testing.T) {
	pass := write(t, "pass.yaml", passing)
	render := func() string {
		var out, errOut bytes.Buffer
		if code := run([]string{"run", "-json", "-seed", "9", pass}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errOut.String())
		}
		return out.String()
	}
	first := render()
	if !strings.Contains(first, `"pass": true`) {
		t.Fatalf("JSON report:\n%s", first)
	}
	if second := render(); second != first {
		t.Fatalf("JSON reports diverge:\n%s\n---\n%s", first, second)
	}
}

func TestRunMultiFileJSON(t *testing.T) {
	pass := write(t, "pass.yaml", passing)
	fail := write(t, "fail.yaml", failing)
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-json", pass, fail}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	s := out.String()
	if !strings.Contains(s, `"pass": false`) || !strings.Contains(s, `"scenarios"`) {
		t.Fatalf("multi-file JSON:\n%s", s)
	}
}

func TestValidate(t *testing.T) {
	pass := write(t, "pass.yaml", passing)
	var out, errOut bytes.Buffer
	if code := run([]string{"validate", pass}, &out, &errOut); code != 0 {
		t.Fatalf("validate exit %d, stderr %q", code, errOut.String())
	}
	bad := write(t, "bad.yaml", "events: {not: a, list: here}")
	if code := run([]string{"validate", bad}, &out, &errOut); code != 2 {
		t.Fatalf("validate bad exit %d, want 2", code)
	}
	badSpec := write(t, "badspec.yaml", strings.Replace(passing, "mix: w1", "mix: w9", 1))
	if code := run([]string{"validate", badSpec}, &out, &errOut); code != 2 {
		t.Fatalf("validate of a scenario with mix w9 exit %d, want 2", code)
	}
}

func TestOutputFile(t *testing.T) {
	pass := write(t, "pass.yaml", passing)
	dst := filepath.Join(t.TempDir(), "report.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-json", "-o", dst, pass}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty with -o: %q", out.String())
	}
	b, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"scenario": "tiny"`) {
		t.Fatalf("report file:\n%s", b)
	}
}
