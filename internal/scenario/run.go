package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/invariant"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// Admission verdicts recorded per submission and checkable by assertions.
const (
	admFresh     = "fresh"
	admCacheHit  = "cache_hit"
	admDedup     = "dedup"
	admShed      = "shed"
	admQueueFull = "queue_full"
)

// waitTimeout bounds each wait event and the final drain. Scenarios run
// in-process simulations that finish in milliseconds; a scenario that needs
// half a minute for one step is wedged, not slow.
const waitTimeout = 30 * time.Second

// submission is the runner's record of one named submit.
type submission struct {
	name      string
	id        string
	admission string
	submitErr error
}

// sweepSub is the runner's record of one named sweep submission; the spec is
// kept so the oracle assertion can replay the same grid standalone.
type sweepSub struct {
	name string
	id   string
	spec *SubmitSweepEvent
}

// admitResult is how a target resolved one submission. A rejection (shed,
// queue full) is a recorded verdict, not a fatal error.
type admitResult struct {
	id        string
	admission string
	reject    error
}

// runStatus is a run's state as a target reports it.
type runStatus struct {
	state  string
	errMsg string
	result []byte
}

func (s runStatus) terminal() bool { return runqueue.State(s.state).Terminal() }

// sweepStatus is a sweep's progress as a target reports it; cells carries
// the reassembled per-cell JSON once every member is done.
type sweepStatus struct {
	state string
	done  int
	total int
	cells []byte
}

func (s sweepStatus) terminal() bool {
	return s.state == "done" || s.state == "failed" || s.state == "canceled"
}

// target abstracts where a scenario executes: an in-process pool (the
// default), or an in-process coordinator + node fleet driven through the v1
// HTTP surface. The runner's timeline and assertions are target-agnostic.
type target interface {
	submit(spec runqueue.Spec) (admitResult, error)
	status(id string) (runStatus, error)
	cancel(id string) error
	// nodeEvent applies kill_node / cordon_node / drain_node (fleet only).
	nodeEvent(kind string, node int) error
	// coordEvent applies kill_coordinator / restart_coordinator (durable
	// fleets only).
	coordEvent(kind string) error
	// submitSweep submits one sweep grid and returns its ID (fleet only).
	submitSweep(spec *SubmitSweepEvent) (string, error)
	// sweepStatus reports a sweep's progress (frozen after settle).
	sweepStatus(id string) (sweepStatus, error)
	// nodeState reports one node's live state by registration index.
	nodeState(node int) (string, error)
	// settle waits until every admitted run (ids) is terminal, freezes the
	// state assertions read, and releases everything the target started —
	// so a no_leaks assertion evaluated afterwards sees a quiet process.
	settle(ctx context.Context, ids []string) error
	metric(name, label string) (float64, bool)
	injected(site faults.Site) int
	// nodeStates lists fleet node states in node-ID order (nil for a pool).
	nodeStates() []string
}

// runner holds one scenario execution's mutable state.
type runner struct {
	s   *Scenario
	tgt target

	mu       sync.Mutex
	checkers []*invariant.Checker

	subs   []*submission
	byName map[string]*submission
	// sweeps records named submit_sweep events; byNameSweep resolves waits
	// and sweep assertions.
	sweeps      []*sweepSub
	byNameSweep map[string]*sweepSub
	// template is the current defaults spec; set_policy events mutate it.
	template runqueue.Spec
	// arrivalIdx numbers generated submissions across all arrival phases, so
	// derived workload seeds never repeat within a scenario.
	arrivalIdx int
}

// simulate is the Simulate hook every target's pool runs: each simulation
// attempt streams its decision trace through a fresh invariant checker; the
// "invariants" assertion reads their verdicts after the drain. Attaching an
// observer never changes the outcome.
func (r *runner) simulate(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	ws, opts := spec.Facade()
	chk := invariant.New()
	opts.Observer = pdpasim.ObserverFunc(chk.Observe)
	r.mu.Lock()
	r.checkers = append(r.checkers, chk)
	r.mu.Unlock()
	return pdpasim.RunContext(ctx, ws, opts)
}

// Run executes the scenario and returns its report. Runtime failures (a wait
// that never settles, a drain that times out) are reported in Report.Error
// with Pass=false; Run itself only errs on input that Parse should have
// rejected.
func Run(s *Scenario) *Report {
	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
	}

	var baseline leakcheck.Baseline
	wantLeakCheck := false
	for _, a := range s.Assertions {
		if a.NoLeaks {
			wantLeakCheck = true
		}
	}
	if wantLeakCheck {
		baseline = leakcheck.Snapshot()
	}

	r := &runner{
		s:           s,
		byName:      map[string]*submission{},
		byNameSweep: map[string]*sweepSub{},
		template:    s.Defaults,
	}
	if s.Fleet != nil {
		tgt, err := newFleetTarget(s, r.simulate)
		if err != nil {
			rep.Error = err.Error()
			return rep
		}
		r.tgt = tgt
	} else {
		r.tgt = newPoolTarget(s, r.simulate)
	}

	err := r.events()
	var ids []string
	for _, sub := range r.subs {
		if sub.submitErr == nil {
			ids = append(ids, sub.id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	settleErr := r.tgt.settle(ctx, ids)
	cancel()
	if err == nil && settleErr != nil {
		err = fmt.Errorf("drain: %w", settleErr)
	}

	for _, sub := range r.subs {
		sr := SubReport{Name: sub.name, ID: sub.id, Admission: sub.admission}
		if sub.submitErr != nil {
			sr.Error = sub.submitErr.Error()
		} else if st, gerr := r.tgt.status(sub.id); gerr == nil {
			sr.State = st.state
			sr.Error = st.errMsg
		}
		rep.Submissions = append(rep.Submissions, sr)
	}
	for _, sw := range r.sweeps {
		sr := SweepReport{Name: sw.name, ID: sw.id}
		if st, gerr := r.tgt.sweepStatus(sw.id); gerr == nil {
			sr.State, sr.Done, sr.Total = st.state, st.done, st.total
		}
		rep.Sweeps = append(rep.Sweeps, sr)
	}

	if err != nil {
		rep.Error = err.Error()
		return rep
	}

	rep.Pass = true
	for _, a := range s.Assertions {
		ar := r.evaluate(a, baseline)
		if !ar.Pass {
			rep.Pass = false
		}
		rep.Assertions = append(rep.Assertions, ar)
	}
	return rep
}

// events walks the timeline in order; the first failing event aborts the
// scenario.
func (r *runner) events() error {
	for i, e := range r.s.Events {
		var err error
		switch {
		case e.Submit != nil:
			err = r.submit(e.Submit.Name, e.Submit.spec(r.template))
		case e.Arrivals != nil:
			err = r.arrivals(e.Arrivals)
		case e.SetPolicy != nil:
			r.template.Options.Policy = e.SetPolicy.Policy
		case e.Wait != nil:
			err = r.wait(e.Wait.Run, e.Wait.State)
		case e.WaitAll:
			err = r.waitAll()
		case e.Cancel != nil:
			err = r.cancel(e.Cancel.Run)
		case e.KillNode != nil:
			err = r.tgt.nodeEvent("kill", e.KillNode.Node)
		case e.CordonNode != nil:
			err = r.tgt.nodeEvent("cordon", e.CordonNode.Node)
		case e.DrainNode != nil:
			err = r.tgt.nodeEvent("drain", e.DrainNode.Node)
		case e.SubmitSweep != nil:
			err = r.submitSweep(e.SubmitSweep)
		case e.WaitSweep != nil:
			err = r.waitSweep(e.WaitSweep)
		case e.WaitNode != nil:
			err = r.waitNode(e.WaitNode)
		case e.KillCoordinator:
			err = r.tgt.coordEvent("kill")
		case e.RestartCoordinator:
			err = r.tgt.coordEvent("restart")
		}
		if err != nil {
			return fmt.Errorf("events[%d]: %w", i, err)
		}
	}
	return nil
}

func (r *runner) submit(name string, spec runqueue.Spec) error {
	res, err := r.tgt.submit(spec)
	if err != nil {
		return fmt.Errorf("submit %q: %w", name, err)
	}
	sub := &submission{name: name, id: res.id, admission: res.admission, submitErr: res.reject}
	r.subs = append(r.subs, sub)
	r.byName[name] = sub
	return nil
}

// arrivals submits one generated phase. Each submission derives its workload
// seed from the master seed and its phase-global index unless the template
// pins one, so phases reshuffle coherently under a seed override and distinct
// arrivals never collapse into one cache entry.
func (r *runner) arrivals(e *ArrivalsEvent) error {
	for j := 0; j < e.Count; j++ {
		spec := r.template
		if spec.Workload.Seed == 0 {
			spec.Workload.Seed = derivedSeed(r.s.Seed, r.arrivalIdx)
		}
		if e.Pattern == "diurnal" {
			phase := 2 * math.Pi * float64(j) / float64(e.Period)
			spec.Workload.Load = e.LoadMin + (e.LoadMax-e.LoadMin)*(0.5-0.5*math.Cos(phase))
		}
		r.arrivalIdx++
		if err := r.submit(fmt.Sprintf("%s%d", e.Prefix, j), spec); err != nil {
			return err
		}
	}
	return nil
}

// derivedSeed is a splitmix64 step over the master seed and index — stable,
// well-spread, and never zero-colliding for adjacent indices.
func derivedSeed(master int64, idx int) int64 {
	z := uint64(master) + uint64(idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

func (r *runner) admitted(name string) (*submission, error) {
	sub, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("run %q was never submitted", name)
	}
	if sub.submitErr != nil {
		return nil, fmt.Errorf("run %q was not admitted (%s)", name, sub.admission)
	}
	return sub, nil
}

func (r *runner) wait(name, state string) error {
	sub, err := r.admitted(name)
	if err != nil {
		return err
	}
	wantTerminal := state == "terminal" || runqueue.State(state).Terminal()
	deadline := time.Now().Add(waitTimeout)
	for {
		st, err := r.tgt.status(sub.id)
		if err != nil {
			return fmt.Errorf("wait %q: %w", name, err)
		}
		if st.state == state || (state == "terminal" && st.terminal()) {
			return nil
		}
		if st.terminal() {
			return fmt.Errorf("wait %q: wanted %s, run settled as %s", name, state, st.state)
		}
		if time.Now().After(deadline) {
			if wantTerminal {
				return fmt.Errorf("wait %q: still not terminal after %v", name, waitTimeout)
			}
			return fmt.Errorf("wait %q: not %s after %v (still %s)", name, state, waitTimeout, st.state)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) waitAll() error {
	for _, sub := range r.subs {
		if sub.submitErr != nil {
			continue
		}
		deadline := time.Now().Add(waitTimeout)
		for {
			st, err := r.tgt.status(sub.id)
			if err != nil {
				return fmt.Errorf("wait_all %q: %w", sub.name, err)
			}
			if st.terminal() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("wait_all: %q still not terminal after %v", sub.name, waitTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (r *runner) cancel(name string) error {
	sub, err := r.admitted(name)
	if err != nil {
		return err
	}
	if err := r.tgt.cancel(sub.id); err != nil {
		return fmt.Errorf("cancel %q: %w", name, err)
	}
	return nil
}

func (r *runner) submitSweep(e *SubmitSweepEvent) error {
	id, err := r.tgt.submitSweep(e)
	if err != nil {
		return fmt.Errorf("submit_sweep %q: %w", e.Name, err)
	}
	sw := &sweepSub{name: e.Name, id: id, spec: e}
	r.sweeps = append(r.sweeps, sw)
	r.byNameSweep[e.Name] = sw
	return nil
}

func (r *runner) sweepNamed(name string) (*sweepSub, error) {
	sw, ok := r.byNameSweep[name]
	if !ok {
		return nil, fmt.Errorf("sweep %q was never submitted", name)
	}
	return sw, nil
}

func (r *runner) waitSweep(e *WaitSweepEvent) error {
	sw, err := r.sweepNamed(e.Sweep)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(waitTimeout)
	for {
		st, err := r.tgt.sweepStatus(sw.id)
		if err != nil {
			return fmt.Errorf("wait_sweep %q: %w", e.Sweep, err)
		}
		switch {
		case e.Done > 0:
			if st.done >= e.Done {
				return nil
			}
		case st.state == e.State:
			return nil
		case st.terminal():
			return fmt.Errorf("wait_sweep %q: wanted %s, sweep settled as %s", e.Sweep, e.State, st.state)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wait_sweep %q: still %s (%d/%d done) after %v",
				e.Sweep, st.state, st.done, st.total, waitTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) waitNode(e *WaitNodeEvent) error {
	deadline := time.Now().Add(waitTimeout)
	for {
		st, err := r.tgt.nodeState(e.Node)
		if err != nil {
			return fmt.Errorf("wait_node %d: %w", e.Node, err)
		}
		if st == e.State {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wait_node %d: not %s after %v (still %s)", e.Node, e.State, waitTimeout, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// evaluate checks one assertion against the settled target.
func (r *runner) evaluate(a Assertion, baseline leakcheck.Baseline) AssertReport {
	switch {
	case a.State != nil:
		return r.checkState(a.State)
	case a.States != nil:
		return r.checkStates(a.States)
	case a.Admission != nil:
		return r.checkAdmission(a.Admission)
	case a.ErrorContains != nil:
		return r.checkErrorContains(a.ErrorContains)
	case a.Metric != nil:
		return r.checkMetric(a.Metric)
	case a.Outcome != nil:
		return r.checkOutcome(a.Outcome)
	case a.SameResult != nil:
		return r.checkSameResult(a.SameResult)
	case a.Injected != nil:
		got := r.tgt.injected(*a.Injected.Site)
		return AssertReport{
			Kind:     "injected",
			Detail:   fmt.Sprintf("site=%s count=%d", *a.Injected.Site, a.Injected.Count),
			Observed: fmt.Sprintf("%d", got),
			Pass:     got == a.Injected.Count,
		}
	case a.NodeStates != nil:
		return r.checkNodeStates(a.NodeStates)
	case a.SweepState != nil:
		return r.checkSweepState(a.SweepState)
	case a.SweepOracle != nil:
		return r.checkSweepOracle(a.SweepOracle)
	case a.ReconciledRuns != nil:
		return r.checkCounter("reconciled_runs", "pdpad_fleet_reconciled_runs_total", a.ReconciledRuns)
	case a.AdoptedResults != nil:
		return r.checkCounter("adopted_results", "pdpad_fleet_adopted_results_total", a.AdoptedResults)
	case a.Invariants:
		return r.checkInvariants()
	case a.NoLeaks:
		ar := AssertReport{Kind: "no_leaks", Detail: "no goroutines leaked", Pass: true}
		if err := baseline.Wait(leakcheck.Grace); err != nil {
			ar.Pass = false
			ar.Observed = err.Error()
		}
		return ar
	}
	return AssertReport{Kind: "unknown", Detail: "empty assertion", Pass: false}
}

// statusFor resolves a run name to its settled status for an assertion.
func (r *runner) statusFor(name string) (runStatus, string) {
	sub, ok := r.byName[name]
	if !ok {
		return runStatus{}, fmt.Sprintf("run %q was never submitted", name)
	}
	if sub.submitErr != nil {
		return runStatus{}, fmt.Sprintf("run %q was not admitted (%s)", name, sub.admission)
	}
	st, err := r.tgt.status(sub.id)
	if err != nil {
		return runStatus{}, fmt.Sprintf("run %q: %v", name, err)
	}
	return st, ""
}

func (r *runner) checkState(a *StateAssertion) AssertReport {
	ar := AssertReport{Kind: "state", Detail: fmt.Sprintf("run=%s is=%s", a.Run, a.Is)}
	st, msg := r.statusFor(a.Run)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	ar.Observed = st.state
	ar.Pass = st.state == a.Is
	return ar
}

func (r *runner) checkStates(a *StatesAssertion) AssertReport {
	ar := AssertReport{Kind: "states"}
	var got []string
	for _, sub := range r.subs {
		if !strings.HasPrefix(sub.name, a.Prefix) {
			continue
		}
		if sub.submitErr != nil {
			got = append(got, sub.admission)
			continue
		}
		st, err := r.tgt.status(sub.id)
		if err != nil {
			got = append(got, "unknown")
			continue
		}
		got = append(got, st.state)
	}
	ar.Observed = strings.Join(got, ",")
	if a.All != "" {
		ar.Detail = fmt.Sprintf("prefix=%s all=%s", a.Prefix, a.All)
		ar.Pass = len(got) > 0
		for _, s := range got {
			if s != a.All {
				ar.Pass = false
			}
		}
		return ar
	}
	ar.Detail = fmt.Sprintf("prefix=%s are=%s", a.Prefix, strings.Join(a.Are, ","))
	ar.Pass = len(got) == len(a.Are)
	if ar.Pass {
		for i := range got {
			if got[i] != a.Are[i] {
				ar.Pass = false
			}
		}
	}
	return ar
}

func (r *runner) checkAdmission(a *AdmissionAssertion) AssertReport {
	ar := AssertReport{Kind: "admission", Detail: fmt.Sprintf("run=%s is=%s", a.Run, a.Is)}
	sub, ok := r.byName[a.Run]
	if !ok {
		ar.Observed = fmt.Sprintf("run %q was never submitted", a.Run)
		return ar
	}
	ar.Observed = sub.admission
	ar.Pass = sub.admission == a.Is
	return ar
}

func (r *runner) checkErrorContains(a *ErrorContainsAssertion) AssertReport {
	ar := AssertReport{Kind: "error_contains", Detail: fmt.Sprintf("run=%s substr=%q", a.Run, a.Substr)}
	sub, ok := r.byName[a.Run]
	if !ok {
		ar.Observed = fmt.Sprintf("run %q was never submitted", a.Run)
		return ar
	}
	var msg string
	if sub.submitErr != nil {
		msg = sub.submitErr.Error()
	} else if st, err := r.tgt.status(sub.id); err == nil {
		msg = st.errMsg
	}
	if msg == "" {
		ar.Observed = "no error"
		return ar
	}
	ar.Observed = msg
	ar.Pass = strings.Contains(msg, a.Substr)
	return ar
}

func (r *runner) checkMetric(a *MetricAssertion) AssertReport {
	ar := AssertReport{Kind: "metric", Detail: metricDetail(a)}
	v, ok := r.tgt.metric(a.Name, a.Label)
	if !ok {
		ar.Observed = "no such series"
		return ar
	}
	ar.Observed = trimFloat(v)
	ar.Pass = (a.Min == nil || v >= *a.Min) && (a.Max == nil || v <= *a.Max)
	return ar
}

func metricDetail(a *MetricAssertion) string {
	name := a.Name
	if a.Label != "" {
		name += "{" + a.Label + "}"
	}
	if a.Min != nil && a.Max != nil && *a.Min == *a.Max {
		return fmt.Sprintf("%s equals %s", name, trimFloat(*a.Min))
	}
	s := name
	if a.Min != nil {
		s += fmt.Sprintf(" min=%s", trimFloat(*a.Min))
	}
	if a.Max != nil {
		s += fmt.Sprintf(" max=%s", trimFloat(*a.Max))
	}
	return s
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// outcomeWire is the slice of the result JSON the outcome assertion reads.
type outcomeWire struct {
	Policy    string            `json:"policy"`
	Workload  string            `json:"workload"`
	MakespanS float64           `json:"makespan_s"`
	Jobs      []json.RawMessage `json:"jobs"`
}

func (r *runner) checkOutcome(a *OutcomeAssertion) AssertReport {
	ar := AssertReport{Kind: "outcome", Detail: outcomeDetail(a)}
	st, msg := r.statusFor(a.Run)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	if len(st.result) == 0 {
		ar.Observed = fmt.Sprintf("run %q has no result (state %s)", a.Run, st.state)
		return ar
	}
	var w outcomeWire
	if err := json.Unmarshal(st.result, &w); err != nil {
		ar.Observed = fmt.Sprintf("bad result JSON: %v", err)
		return ar
	}
	ar.Observed = fmt.Sprintf("policy=%s workload=%s jobs=%d makespan_s=%s",
		w.Policy, w.Workload, len(w.Jobs), trimFloat(w.MakespanS))
	ar.Pass = (a.Policy == "" || w.Policy == a.Policy) &&
		(a.Workload == "" || w.Workload == a.Workload) &&
		(a.Jobs == nil || len(w.Jobs) == *a.Jobs) &&
		(a.MakespanSMin == nil || w.MakespanS >= *a.MakespanSMin) &&
		(a.MakespanSMax == nil || w.MakespanS <= *a.MakespanSMax)
	return ar
}

func outcomeDetail(a *OutcomeAssertion) string {
	parts := []string{"run=" + a.Run}
	if a.Policy != "" {
		parts = append(parts, "policy="+a.Policy)
	}
	if a.Workload != "" {
		parts = append(parts, "workload="+a.Workload)
	}
	if a.Jobs != nil {
		parts = append(parts, fmt.Sprintf("jobs=%d", *a.Jobs))
	}
	if a.MakespanSMin != nil {
		parts = append(parts, "makespan_min_s="+trimFloat(*a.MakespanSMin))
	}
	if a.MakespanSMax != nil {
		parts = append(parts, "makespan_max_s="+trimFloat(*a.MakespanSMax))
	}
	return strings.Join(parts, " ")
}

func (r *runner) checkSameResult(a *SameResultAssertion) AssertReport {
	ar := AssertReport{Kind: "same_result", Detail: "runs=" + strings.Join(a.Runs, ",")}
	var first []byte
	for i, name := range a.Runs {
		st, msg := r.statusFor(name)
		if msg != "" {
			ar.Observed = msg
			return ar
		}
		if len(st.result) == 0 {
			ar.Observed = fmt.Sprintf("run %q has no result (state %s)", name, st.state)
			return ar
		}
		if i == 0 {
			first = st.result
		} else if !bytes.Equal(first, st.result) {
			ar.Observed = fmt.Sprintf("run %q diverges from %q", name, a.Runs[0])
			return ar
		}
	}
	ar.Observed = fmt.Sprintf("%d identical results", len(a.Runs))
	ar.Pass = true
	return ar
}

func (r *runner) checkNodeStates(a *NodeStatesAssertion) AssertReport {
	ar := AssertReport{Kind: "node_states", Detail: "are=" + strings.Join(a.Are, ",")}
	got := r.tgt.nodeStates()
	ar.Observed = strings.Join(got, ",")
	ar.Pass = len(got) == len(a.Are)
	if ar.Pass {
		for i := range got {
			if got[i] != a.Are[i] {
				ar.Pass = false
			}
		}
	}
	return ar
}

func (r *runner) sweepStatusFor(name string) (sweepStatus, string) {
	sw, ok := r.byNameSweep[name]
	if !ok {
		return sweepStatus{}, fmt.Sprintf("sweep %q was never submitted", name)
	}
	st, err := r.tgt.sweepStatus(sw.id)
	if err != nil {
		return sweepStatus{}, fmt.Sprintf("sweep %q: %v", name, err)
	}
	return st, ""
}

func (r *runner) checkSweepState(a *SweepStateAssertion) AssertReport {
	ar := AssertReport{Kind: "sweep_state", Detail: fmt.Sprintf("sweep=%s is=%s", a.Sweep, a.Is)}
	st, msg := r.sweepStatusFor(a.Sweep)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	ar.Observed = fmt.Sprintf("%s (%d/%d done)", st.state, st.done, st.total)
	ar.Pass = st.state == a.Is
	return ar
}

// checkSweepOracle replays the sweep's grid on a fresh standalone
// single-worker daemon — no faults, no fleet — and requires the target's
// reassembled cells to match the oracle's byte for byte.
func (r *runner) checkSweepOracle(a *SweepOracleAssertion) AssertReport {
	ar := AssertReport{Kind: "sweep_cells_match_oracle", Detail: "sweep=" + a.Sweep}
	st, msg := r.sweepStatusFor(a.Sweep)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	if len(st.cells) == 0 {
		ar.Observed = fmt.Sprintf("sweep has no cells (state %s, %d/%d done)", st.state, st.done, st.total)
		return ar
	}
	want, err := r.oracleCells(r.byNameSweep[a.Sweep].spec)
	if err != nil {
		ar.Observed = fmt.Sprintf("oracle: %v", err)
		return ar
	}
	if !bytes.Equal(st.cells, want) {
		ar.Observed = fmt.Sprintf("cells diverge from the standalone oracle (%d vs %d bytes)", len(st.cells), len(want))
		return ar
	}
	ar.Observed = fmt.Sprintf("%d cell bytes byte-identical to the standalone oracle", len(st.cells))
	ar.Pass = true
	return ar
}

// oracleCells runs the grid on a clean standalone daemon and returns its
// cells JSON. The oracle pool shares the runner's Simulate hook, so its
// attempts are invariant-checked like every other simulation.
func (r *runner) oracleCells(spec *SubmitSweepEvent) ([]byte, error) {
	pool := runqueue.New(runqueue.Config{Simulate: r.simulate})
	srv := httptest.NewServer(server.New(pool))
	cli := client.New(srv.URL)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
		pool.Drain(ctx)
		cancel()
		srv.Close()
		cli.CloseIdleConnections()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	sub, err := cli.SubmitSweep(ctx, client.SubmitSweepRequest{SweepSpec: spec.SweepSpec})
	if err != nil {
		return nil, err
	}
	v, err := cli.WaitSweep(ctx, sub.ID, 0)
	if err != nil {
		return nil, err
	}
	if v.State != "done" {
		return nil, fmt.Errorf("oracle sweep settled as %s (errors %v)", v.State, v.Errors)
	}
	return v.Cells, nil
}

// checkCounter evaluates a recovery-counter assertion by bounding its metric
// series under the assertion's own kind.
func (r *runner) checkCounter(kind, series string, b *Bounds) AssertReport {
	ar := r.checkMetric(&MetricAssertion{Name: series, Bounds: *b})
	ar.Kind = kind
	return ar
}

func (r *runner) checkInvariants() AssertReport {
	ar := AssertReport{Kind: "invariants", Pass: true}
	r.mu.Lock()
	checkers := r.checkers
	r.mu.Unlock()
	ar.Detail = fmt.Sprintf("all invariants hold across %d simulation attempts", len(checkers))
	for _, chk := range checkers {
		if err := chk.Err(); err != nil {
			ar.Pass = false
			ar.Observed = err.Error()
			return ar
		}
	}
	ar.Observed = "clean"
	return ar
}
