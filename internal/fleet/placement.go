package fleet

import (
	"fmt"

	"pdpasim/internal/runqueue"
	"pdpasim/internal/workload"
)

// Placement names a coordinator routing strategy. The first two are the
// classic dispatcher strategies; LPT is the classic
// longest-processing-time-first greedy for sweep sharding.
type Placement string

// Placement strategies.
const (
	// PlaceRoundRobin cycles through eligible nodes in registration order
	// regardless of load.
	PlaceRoundRobin Placement = "round_robin"
	// PlaceLeastLoaded picks the eligible node with the fewest pending
	// runs (ties to registration order). A run is pending on a node while
	// it is not terminal and its placement names that node; the count is
	// read from the coordinator's run ledger, not from heartbeat snapshots:
	// the ledger moves synchronously with placement, so the choice is
	// deterministic regardless of heartbeat timing.
	PlaceLeastLoaded Placement = "least_loaded"
	// PlaceLPT orders a batch's members by estimated cost (simulated window
	// × load), longest first, and greedily assigns each to the eligible
	// node whose pending runs sum to the smallest estimated cost — the
	// makespan heuristic. Single runs place like least-loaded-by-cost.
	PlaceLPT Placement = "lpt"
)

// ParsePlacement validates a placement name ("" = round_robin).
func ParsePlacement(s string) (Placement, error) {
	switch Placement(s) {
	case "":
		return PlaceRoundRobin, nil
	case PlaceRoundRobin, PlaceLeastLoaded, PlaceLPT:
		return Placement(s), nil
	}
	return "", fmt.Errorf("fleet: unknown placement %q (want round_robin, least_loaded, or lpt)", s)
}

// estCost is a member's LPT weight: how much simulated work it asks for.
// An unset window or load takes the workload generator's default.
func estCost(spec runqueue.Spec) float64 {
	w := spec.Workload.WindowS
	if w <= 0 {
		w = workload.DefaultWindow.Seconds()
	}
	l := spec.Workload.Load
	if l <= 0 {
		l = workload.DefaultLoad
	}
	return w * l
}

// pickLocked chooses the node for one run among the eligible candidates
// (non-empty, registration order). Caller holds c.mu; the choice reads the
// run ledger (load-based placements) or the round-robin cursor, never the
// network.
func (c *Coordinator) pickLocked(cands []*node) *node {
	if c.placement == PlaceRoundRobin {
		n := cands[c.rrNext%len(cands)]
		c.rrNext++
		return n
	}
	pending := c.pendingLocked()
	load := func(n *node) float64 {
		if c.placement == PlaceLeastLoaded {
			return float64(len(pending[n.ID]))
		}
		sum := 0.0
		for _, cr := range pending[n.ID] {
			sum += estCost(cr.Spec)
		}
		return sum
	}
	best, bestLoad := cands[0], load(cands[0])
	for _, n := range cands[1:] {
		if l := load(n); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// lptOrder returns member indexes in LPT dispatch order: descending
// estimated cost, ties broken by grid index so the order is total and
// deterministic. Other placements dispatch in grid order.
func (c *Coordinator) lptOrder(members []runqueue.Spec) []int {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	if c.placement != PlaceLPT {
		return order
	}
	costs := make([]float64, len(members))
	for i, m := range members {
		costs[i] = estCost(m)
	}
	// Insertion sort keeps it dependency-free and stable on ties.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && costs[order[j]] > costs[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}
