package core

import (
	"testing"

	"pdpasim/internal/obs"
)

// TestPolicyStateNames pins the name table obs uses to render recorded
// From/To state values to core.State's own names: obs cannot import core, so
// the mapping is duplicated and this test keeps the copies in sync.
func TestPolicyStateNames(t *testing.T) {
	for _, s := range []State{NoRef, Inc, Dec, Stable} {
		e := obs.Export(0, obs.Event{Kind: obs.KindPolicyState, From: int32(s), To: int32(s)})
		if e.From != s.String() || e.To != s.String() {
			t.Errorf("exported state %d as %q/%q, core name %q", int(s), e.From, e.To, s.String())
		}
	}
}
