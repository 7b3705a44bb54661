package scenario

import (
	"errors"
	"testing"
)

// FuzzParseScenario: malformed input must never panic and must always fail
// with a typed *ParseError — the contract that lets the CLI distinguish bad
// input (exit 2) from failing scenarios (exit 1).
func FuzzParseScenario(f *testing.F) {
	f.Add(validDoc)
	f.Add("name: x\nevents:\n  - submit: {name: a}\n")
	f.Add("")
	f.Add("---\n")
	f.Add("a: [1, {b: 2}, 'c']\n")
	f.Add("\ta: tab")
	f.Add("a: &anchor b")
	f.Add("a: |\n  block")
	f.Add("events:\n- submit:\n   name: \"xé\"\n")
	f.Add("{a: 1, a: 2}")
	f.Add("seed: 99999999999999999999999999")
	f.Add("name: x\nevents:\n  - arrivals: {prefix: p, count: 100000000}\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse([]byte(src))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T (%v), want *ParseError", err, err)
			}
			return
		}
		if s.Name == "" || len(s.Events) == 0 {
			t.Fatalf("Parse accepted a scenario Validate should reject: %+v", s)
		}
	})
}
