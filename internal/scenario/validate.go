package scenario

import (
	"fmt"
	"reflect"

	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
)

// maxArrivals bounds the runs a scenario's arrivals events generate in
// total. Each arrival is a real in-process simulation that the runner must
// drain within waitTimeout, and Validate names every one of them to catch
// collisions, so a larger count is a wedged scenario and a slow parse, not
// a bigger test.
const maxArrivals = 10000

// Validate checks what the decoder cannot: required and enumerated values,
// ranges, and references across the timeline. It fills the defaults a rule
// implies (a wait's state "terminal", the "burst" arrivals pattern, a
// diurnal period of one cycle per phase, equals folded into min and max).
// Its last pass checks every spec the timeline can submit with the daemon's
// own validation, so a scenario that parses never fails on a spec the
// server rejects. Every error is a *ParseError.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return failf("scenario needs a name")
	}
	if len(s.Events) == 0 {
		return failf("scenario %q declares no events", s.Name)
	}
	if err := nonNegative("pool", s.Pool); err != nil {
		return err
	}
	nodeRef := func(n int, where string) error {
		if s.Fleet == nil {
			return failf("%s needs a fleet: stanza", where)
		}
		if n < 0 || n >= s.Fleet.Nodes {
			return failf("%s: node %d out of range (fleet has %d nodes)", where, n, s.Fleet.Nodes)
		}
		return nil
	}
	if f := s.Fleet; f != nil {
		if f.Nodes < 1 {
			return failf("fleet needs a positive nodes count")
		}
		if _, err := fleet.ParsePlacement(f.Placement); err != nil {
			return failf("fleet.placement: %v", err)
		}
		if err := nonNegative("fleet", *f); err != nil {
			return err
		}
		for i, nf := range f.NodeFaults {
			where := fmt.Sprintf("fleet.node_faults[%d]", i)
			if nf.Rule.Kind == 0 { // every parsed rule has a kind
				return failf("%s needs a rule string (\"<site>:<kind> [options]\")", where)
			}
			if err := nodeRef(nf.Node, where); err != nil {
				return err
			}
		}
	}

	named := map[string]bool{}
	refs := func(name, where string) error {
		if !named[name] {
			return failf("%s references run %q before any event names it", where, name)
		}
		return nil
	}
	sweeps := map[string]bool{}
	sweepRefs := func(name, where string) error {
		if !sweeps[name] {
			return failf("%s references sweep %q before any event names it", where, name)
		}
		return nil
	}
	durableRef := func(where string) error {
		if s.Fleet == nil {
			return failf("%s needs a fleet: stanza", where)
		}
		if !s.Fleet.Durable {
			return failf("%s needs fleet.durable: true (nothing survives a coordinator kill without a store)", where)
		}
		return nil
	}
	coordDown := false
	arrivals := 0
	for i, e := range s.Events {
		where := fmt.Sprintf("events[%d]", i)
		var err error
		switch {
		case e.Submit != nil:
			if e.Submit.Name == "" {
				return failf("%s.submit needs a name", where)
			}
			if named[e.Submit.Name] {
				return failf("%s: duplicate run name %q", where, e.Submit.Name)
			}
			named[e.Submit.Name] = true
		case e.Arrivals != nil:
			if err := e.Arrivals.validate(where + ".arrivals"); err != nil {
				return err
			}
			if e.Arrivals.Count > maxArrivals-arrivals {
				return failf("%s.arrivals: count %d takes the scenario past %d generated arrivals",
					where, e.Arrivals.Count, maxArrivals)
			}
			arrivals += e.Arrivals.Count
			for j := 0; j < e.Arrivals.Count; j++ {
				n := fmt.Sprintf("%s%d", e.Arrivals.Prefix, j)
				if named[n] {
					return failf("%s: generated run name %q collides", where, n)
				}
				named[n] = true
			}
		case e.SetPolicy != nil:
			if e.SetPolicy.Policy == "" {
				return failf("%s.set_policy needs a policy", where)
			}
		case e.Wait != nil:
			if e.Wait.State == "" {
				e.Wait.State = "terminal"
			}
			switch e.Wait.State {
			case "terminal", "running", string(runqueue.Done), string(runqueue.Failed), string(runqueue.Canceled):
			default:
				return failf("%s.wait.state %q invalid (terminal, running, done, failed, canceled)", where, e.Wait.State)
			}
			err = refs(e.Wait.Run, where)
		case e.Cancel != nil:
			err = refs(e.Cancel.Run, where)
		case e.KillNode != nil:
			err = nodeRef(e.KillNode.Node, where+".kill_node")
		case e.CordonNode != nil:
			err = nodeRef(e.CordonNode.Node, where+".cordon_node")
		case e.DrainNode != nil:
			err = nodeRef(e.DrainNode.Node, where+".drain_node")
		case e.SubmitSweep != nil:
			sw := e.SubmitSweep
			switch {
			case sw.Name == "":
				return failf("%s.submit_sweep needs a name", where)
			case len(sw.Policies) == 0 || len(sw.Mixes) == 0:
				return failf("%s.submit_sweep needs at least one policy and one mix", where)
			case sweeps[sw.Name]:
				return failf("%s: duplicate sweep name %q", where, sw.Name)
			}
			sweeps[sw.Name] = true
		case e.WaitSweep != nil:
			w := e.WaitSweep
			if (w.State == "") == (w.Done == 0) {
				return failf("%s.wait_sweep needs exactly one of state: <terminal> or done: <n>", where)
			}
			if w.Done < 0 {
				return failf("%s.wait_sweep.done must be positive", where)
			}
			switch w.State {
			case "", "done", "failed", "canceled":
			default:
				return failf("%s.wait_sweep.state %q invalid (done, failed, canceled)", where, w.State)
			}
			err = sweepRefs(w.Sweep, where+".wait_sweep")
		case e.WaitNode != nil:
			if !nodeState(e.WaitNode.State) {
				return failf("%s.wait_node.state %q invalid (healthy, cordoned, unhealthy, drained)", where, e.WaitNode.State)
			}
			err = nodeRef(e.WaitNode.Node, where+".wait_node")
		case e.KillCoordinator:
			if err := durableRef(where + ".kill_coordinator"); err != nil {
				return err
			}
			if coordDown {
				return failf("%s.kill_coordinator: the coordinator is already down", where)
			}
			coordDown = true
		case e.RestartCoordinator:
			if err := durableRef(where + ".restart_coordinator"); err != nil {
				return err
			}
			if !coordDown {
				return failf("%s.restart_coordinator without a preceding kill_coordinator", where)
			}
			coordDown = false
		}
		if err != nil {
			return err
		}
		if coordDown && !e.KillCoordinator && !e.RestartCoordinator {
			return failf("%s: only restart_coordinator may follow kill_coordinator (the coordinator is down)", where)
		}
	}
	if coordDown {
		return failf("scenario ends with the coordinator down: add a restart_coordinator event")
	}

	for i, a := range s.Assertions {
		where := fmt.Sprintf("assertions[%d]", i)
		var check []string
		var err error
		switch {
		case a.State != nil:
			err = terminalState(a.State.Is, where+".state.is")
			check = []string{a.State.Run}
		case a.States != nil:
			err = a.States.validate(where + ".states")
		case a.Admission != nil:
			switch a.Admission.Is {
			case admFresh, admCacheHit, admDedup, admShed:
			default:
				return failf("%s.admission.is %q invalid (fresh, cache_hit, dedup, shed)", where, a.Admission.Is)
			}
			check = []string{a.Admission.Run}
		case a.ErrorContains != nil:
			if a.ErrorContains.Substr == "" {
				return failf("%s.error_contains needs a substr", where)
			}
			check = []string{a.ErrorContains.Run}
		case a.Metric != nil:
			if a.Metric.Name == "" {
				return failf("%s.metric needs a name", where)
			}
			err = a.Metric.Bounds.validate(where + ".metric")
		case a.Outcome != nil:
			o := a.Outcome
			if o.MakespanSMin != nil && o.MakespanSMax != nil && *o.MakespanSMin > *o.MakespanSMax {
				return failf("%s.outcome: makespan_min_s %s > makespan_max_s %s", where, trimFloat(*o.MakespanSMin), trimFloat(*o.MakespanSMax))
			}
			check = []string{o.Run}
		case a.SameResult != nil:
			if len(a.SameResult.Runs) < 2 {
				return failf("%s.same_result needs at least two runs", where)
			}
			check = a.SameResult.Runs
		case a.Injected != nil:
			if a.Injected.Site == nil {
				return failf("%s.injected needs a site", where)
			}
		case a.NodeStates != nil:
			for j, st := range a.NodeStates.Are {
				if !nodeState(st) {
					return failf("%s.node_states.are[%d]: %q is not a node state (healthy, cordoned, unhealthy, drained)", where, j, st)
				}
			}
			if len(a.NodeStates.Are) == 0 {
				return failf("%s.node_states needs are: [...]", where)
			}
			if s.Fleet == nil {
				return failf("%s.node_states needs a fleet: stanza", where)
			}
		case a.SweepState != nil:
			switch a.SweepState.Is {
			case "done", "failed", "canceled":
			default:
				return failf("%s.sweep_state.is %q invalid (done, failed, canceled)", where, a.SweepState.Is)
			}
			err = sweepRefs(a.SweepState.Sweep, where+".sweep_state")
		case a.SweepOracle != nil:
			err = sweepRefs(a.SweepOracle.Sweep, where+".sweep_cells_match_oracle")
		case a.ReconciledRuns != nil:
			err = s.fleetCounter(a.ReconciledRuns, where+".reconciled_runs")
		case a.AdoptedResults != nil:
			err = s.fleetCounter(a.AdoptedResults, where+".adopted_results")
		}
		if err != nil {
			return err
		}
		for _, n := range check {
			if err := refs(n, where); err != nil {
				return err
			}
		}
	}
	return s.validateSpecs()
}

// validateSpecs runs the daemon's spec validation over every spec the
// timeline can submit: each submit merged onto the template in effect
// (set_policy rewrites it), each arrivals phase's template at the loads it
// sweeps, and each sweep grid.
func (s *Scenario) validateSpecs() error {
	template := s.Defaults
	for i, e := range s.Events {
		var err error
		where := fmt.Sprintf("events[%d]", i)
		switch {
		case e.Submit != nil:
			err = e.Submit.spec(template).Validate()
			where += fmt.Sprintf(".submit %q", e.Submit.Name)
		case e.Arrivals != nil:
			loads := []float64{template.Workload.Load}
			if e.Arrivals.Pattern == "diurnal" {
				loads = []float64{e.Arrivals.LoadMin, e.Arrivals.LoadMax}
			}
			for _, load := range loads {
				spec := template
				spec.Workload.Load = load
				if err = spec.Validate(); err != nil {
					break
				}
			}
			where += ".arrivals"
		case e.SetPolicy != nil:
			template.Options.Policy = e.SetPolicy.Policy
		case e.SubmitSweep != nil:
			err = runqueue.SweepSpec(e.SubmitSweep.SweepSpec).Validate()
			where += fmt.Sprintf(".submit_sweep %q", e.SubmitSweep.Name)
		}
		if err != nil {
			return failf("%s: %v", where, err)
		}
	}
	return nil
}

func (e *ArrivalsEvent) validate(where string) error {
	if e.Prefix == "" {
		return failf("%s needs a prefix", where)
	}
	if e.Count <= 0 {
		return failf("%s needs a positive count", where)
	}
	switch e.Pattern {
	case "", "burst":
		e.Pattern = "burst"
	case "uniform":
	case "diurnal":
		if e.LoadMin <= 0 || e.LoadMax < e.LoadMin {
			return failf("%s: diurnal needs 0 < load_min <= load_max", where)
		}
		if e.Period <= 0 {
			e.Period = e.Count
		}
	default:
		return failf("%s.pattern %q invalid (burst, uniform, diurnal)", where, e.Pattern)
	}
	return nil
}

func (a *StatesAssertion) validate(where string) error {
	for j, st := range a.Are {
		// Rejected submissions never reach a run state; they report their
		// rejection verdict in the state's place.
		if st != admShed {
			if err := terminalState(st, fmt.Sprintf("%s.are[%d]", where, j)); err != nil {
				return err
			}
		}
	}
	if a.All != "" {
		if err := terminalState(a.All, where+".all"); err != nil {
			return err
		}
	}
	if (len(a.Are) == 0) == (a.All == "") {
		return failf("%s needs exactly one of are: [...] or all: <state>", where)
	}
	return nil
}

// validate folds Equals into Min and Max and checks the range is bounded
// and non-empty.
func (b *Bounds) validate(where string) error {
	if b.Equals != nil {
		if b.Min != nil || b.Max != nil {
			return failf("%s: equals excludes min/max", where)
		}
		b.Min, b.Max, b.Equals = b.Equals, b.Equals, nil
	}
	if b.Min == nil && b.Max == nil {
		return failf("%s needs equals, min, or max", where)
	}
	if b.Min != nil && b.Max != nil && *b.Min > *b.Max {
		return failf("%s: min %s > max %s", where, trimFloat(*b.Min), trimFloat(*b.Max))
	}
	return nil
}

// fleetCounter validates a bound on one of the coordinator's recovery
// counters.
func (s *Scenario) fleetCounter(b *Bounds, where string) error {
	if err := b.validate(where); err != nil {
		return err
	}
	if s.Fleet == nil {
		return failf("%s needs a fleet: stanza", where)
	}
	return nil
}

func terminalState(st, where string) error {
	if !runqueue.State(st).Terminal() {
		return failf("%s: %q is not a terminal state (done, failed, canceled)", where, st)
	}
	return nil
}

func nodeState(st string) bool {
	switch fleet.NodeState(st) {
	case fleet.StateHealthy, fleet.StateCordoned, fleet.StateUnhealthy, fleet.StateDrained:
		return true
	}
	return false
}

// nonNegative rejects a negative integer in a sizing stanza (pool:, fleet:),
// where every integer is a size or a count.
func nonNegative(stanza string, params any) error {
	v := reflect.ValueOf(params)
	for _, k := range keysOf(v.Type()) {
		if f := v.FieldByIndex(k.index); f.Kind() == reflect.Int && f.Int() < 0 {
			return failf("%s.%s must not be negative (got %d)", stanza, k.name, f.Int())
		}
	}
	return nil
}
