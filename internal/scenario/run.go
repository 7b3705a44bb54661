package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
	"pdpasim/internal/invariant"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// Admission verdicts recorded per submission and checkable by assertions.
const (
	admFresh    = "fresh"
	admCacheHit = "cache_hit"
	admDedup    = "dedup"
	admShed     = "shed"
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
	// reject is the error envelope's message when admission turned the
	// submission away; empty when it was admitted.
	reject string
}

// sweepSub is the runner's record of one named sweep submission; the spec is
// kept so the oracle assertion can replay the same grid standalone.
type sweepSub struct {
	name string
	id   string
	spec *SubmitSweepEvent
}

// runner holds one scenario execution's mutable state. Every run and sweep
// goes through cli, over the v1 wire, to the daemon d: the scenario's pool,
// or the fleet's coordinator.
type runner struct {
	s *Scenario

	hc  *http.Client
	cli *client.Client
	d   *fleet.Daemon
	// nodes are a fleet's node daemons, in registration order, and injs
	// every armed injector (the pool's, or the coordinator's and each
	// node's).
	nodes []*fleet.Daemon
	injs  []*faults.Injector
	// storeDir holds a durable coordinator's journal; frozenNodes are the
	// node states settle froze.
	storeDir    string
	frozenNodes []string

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

	// settled is set once settle has frozen every run's and sweep's final
	// view and torn the backend down; status reads come from the frozen
	// views after it.
	settled      bool
	frozenRuns   map[string]client.RunView
	frozenSweeps map[string]client.SweepView
}

// simulate is the Simulate hook every pool runs: each simulation attempt
// streams its decision trace through a fresh invariant checker; the
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

// startPool serves a pool sized by p, with inj armed at its fault sites and
// at http_request; join, when set, makes it a fleet node named name.
func (r *runner) startPool(p PoolParams, inj *faults.Injector, join, name string) (*fleet.Daemon, error) {
	cfg := p.config()
	cfg.Faults = inj
	cfg.Simulate = r.simulate
	return fleet.StartDaemon(fleet.DaemonConfig{Addr: "127.0.0.1:0", Pool: cfg, Join: join, Name: name})
}

// start serves the scenario's backend — its pool, or a coordinator with its
// nodes — and points the client at it.
func (r *runner) start() error {
	r.hc = &http.Client{}
	if r.s.Fleet != nil {
		if err := r.startFleet(); err != nil {
			return err
		}
	} else {
		inj := faults.New(r.s.Seed, r.s.Faults...)
		d, err := r.startPool(r.s.Pool, inj, "", "")
		if err != nil {
			return err
		}
		r.d, r.injs = d, []*faults.Injector{inj}
	}
	r.cli = client.New(r.d.URL(), client.WithHTTPClient(r.hc))
	return nil
}

// Run executes the scenario and returns its report. Runtime failures (a wait
// that never settles, a drain that times out) are reported in Report.Error
// with Pass=false. s must have passed Validate (Parse runs it): Run relies
// on it, for one, to hold node and coordinator events to fleet scenarios.
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
		s:            s,
		byName:       map[string]*submission{},
		byNameSweep:  map[string]*sweepSub{},
		template:     s.Defaults,
		frozenRuns:   map[string]client.RunView{},
		frozenSweeps: map[string]client.SweepView{},
	}
	if err := r.start(); err != nil {
		rep.Error = err.Error()
		return rep
	}

	err := r.events()
	if settleErr := r.settle(); err == nil && settleErr != nil {
		err = fmt.Errorf("drain: %w", settleErr)
	}

	for _, sub := range r.subs {
		sr := SubReport{Name: sub.name, ID: sub.id, Admission: sub.admission, Error: sub.reject}
		if v, err := r.status(sub.id); err == nil && sub.reject == "" {
			sr.State, sr.Error = v.State, v.Error
		}
		rep.Submissions = append(rep.Submissions, sr)
	}
	for _, sw := range r.sweeps {
		sr := SweepReport{Name: sw.name, ID: sw.id}
		if v, err := r.sweepStatus(sw.id); err == nil {
			sr.State, sr.Done, sr.Total = v.State, v.Done, v.Total
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

// settle drains the backend, freezes every admitted run's and every sweep's
// final view over the wire (and a fleet's node states), and tears down
// everything start-up started, so a no_leaks assertion evaluated afterwards
// sees a quiet process. The views are frozen even after a failed drain,
// which cancels what it could not finish.
func (r *runner) settle() error {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	err := r.d.Drain(ctx)
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	freeze := func() error {
		for _, sub := range r.subs {
			if sub.reject != "" {
				continue
			}
			v, err := r.cli.Run(ctx, sub.id)
			if err != nil {
				return fmt.Errorf("freeze run %s: %w", sub.id, err)
			}
			r.frozenRuns[sub.id] = v
		}
		for _, sw := range r.sweeps {
			v, err := r.cli.Sweep(ctx, sw.id)
			if err != nil {
				return fmt.Errorf("freeze sweep %s: %w", sw.id, err)
			}
			r.frozenSweeps[sw.id] = v
		}
		if r.s.Fleet != nil {
			return r.freezeNodes(ctx)
		}
		return nil
	}
	if ferr := freeze(); err == nil {
		err = ferr
	}
	r.teardown(ctx)
	r.settled = true
	return err
}

// teardown releases everything start-up started: the served daemon first
// (the pool, or the coordinator, the nodes' traffic source), then each node,
// whose drain lets a killed node's abandoned work finish.
func (r *runner) teardown(ctx context.Context) {
	r.d.Close()
	for _, n := range r.nodes {
		n.Drain(ctx)
		n.Close()
	}
	os.RemoveAll(r.storeDir)
	r.hc.CloseIdleConnections()
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
			r.nodes[e.KillNode.Node].Kill()
		case e.CordonNode != nil:
			_, err = r.cli.CordonNode(context.Background(), r.nodes[e.CordonNode.Node].Agent().ID())
		case e.DrainNode != nil:
			// The agent stops first: a drained node that keeps heartbeating
			// gets 404 and re-registers under a fresh ID.
			n := r.nodes[e.DrainNode.Node]
			n.Agent().Stop()
			_, err = r.cli.DrainNode(context.Background(), n.Agent().ID())
		case e.SubmitSweep != nil:
			err = r.submitSweep(e.SubmitSweep)
		case e.WaitSweep != nil:
			err = r.waitSweep(e.WaitSweep)
		case e.WaitNode != nil:
			err = r.waitNode(e.WaitNode)
		case e.KillCoordinator:
			err = r.d.Kill()
			r.hc.CloseIdleConnections()
		case e.RestartCoordinator:
			err = r.d.Restart()
		}
		if err != nil {
			return fmt.Errorf("events[%d]: %w", i, err)
		}
	}
	return nil
}

// submit posts one run and records how admission resolved it. A shed
// submission is a recorded verdict carrying the envelope's message,
// not a fatal error.
func (r *runner) submit(name string, spec runqueue.Spec) error {
	res, err := r.cli.SubmitRun(context.Background(),
		client.SubmitRunRequest{Workload: spec.Workload, Options: spec.Options})
	sub := &submission{name: name, id: res.ID, admission: admFresh}
	var ae *client.APIError
	switch {
	case err == nil && res.CacheHit:
		sub.admission = admCacheHit
	case err == nil && res.Deduped:
		sub.admission = admDedup
	case err == nil:
	case errors.As(err, &ae) && ae.Code == server.CodeOverloaded:
		sub.admission, sub.reject = admShed, ae.Message
	default:
		return fmt.Errorf("submit %q: %w", name, err)
	}
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
	if sub.reject != "" {
		return nil, fmt.Errorf("run %q was not admitted (%s)", name, sub.admission)
	}
	return sub, nil
}

// status is a run's view: live before settle, frozen after it.
func (r *runner) status(id string) (client.RunView, error) {
	if r.settled {
		v, ok := r.frozenRuns[id]
		if !ok {
			return v, fmt.Errorf("run %s was not frozen at settle", id)
		}
		return v, nil
	}
	return r.cli.Run(context.Background(), id)
}

// sweepStatus is a sweep's view: live before settle, frozen after it.
func (r *runner) sweepStatus(id string) (client.SweepView, error) {
	if r.settled {
		v, ok := r.frozenSweeps[id]
		if !ok {
			return v, fmt.Errorf("sweep %s was not frozen at settle", id)
		}
		return v, nil
	}
	return r.cli.Sweep(context.Background(), id)
}

func (r *runner) wait(name, state string) error {
	sub, err := r.admitted(name)
	if err != nil {
		return err
	}
	wantTerminal := state == "terminal" || client.Terminal(state)
	deadline := time.Now().Add(waitTimeout)
	for {
		v, err := r.status(sub.id)
		if err != nil {
			return fmt.Errorf("wait %q: %w", name, err)
		}
		if v.State == state || (state == "terminal" && v.Terminal()) {
			return nil
		}
		if v.Terminal() {
			return fmt.Errorf("wait %q: wanted %s, run settled as %s", name, state, v.State)
		}
		if time.Now().After(deadline) {
			if wantTerminal {
				return fmt.Errorf("wait %q: still not terminal after %v", name, waitTimeout)
			}
			return fmt.Errorf("wait %q: not %s after %v (still %s)", name, state, waitTimeout, v.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) waitAll() error {
	for _, sub := range r.subs {
		if sub.reject != "" {
			continue
		}
		deadline := time.Now().Add(waitTimeout)
		for {
			v, err := r.status(sub.id)
			if err != nil {
				return fmt.Errorf("wait_all %q: %w", sub.name, err)
			}
			if v.Terminal() {
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
	if _, err := r.cli.CancelRun(context.Background(), sub.id); err != nil {
		return fmt.Errorf("cancel %q: %w", name, err)
	}
	return nil
}

func (r *runner) submitSweep(e *SubmitSweepEvent) error {
	res, err := r.cli.SubmitSweep(context.Background(), client.SubmitSweepRequest{SweepSpec: e.SweepSpec})
	if err != nil {
		return fmt.Errorf("submit_sweep %q: %w", e.Name, err)
	}
	sw := &sweepSub{name: e.Name, id: res.ID, spec: e}
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
		v, err := r.sweepStatus(sw.id)
		if err != nil {
			return fmt.Errorf("wait_sweep %q: %w", e.Sweep, err)
		}
		switch {
		case e.Done > 0:
			if v.Done >= e.Done {
				return nil
			}
		case v.State == e.State:
			return nil
		case client.Terminal(v.State):
			return fmt.Errorf("wait_sweep %q: wanted %s, sweep settled as %s", e.Sweep, e.State, v.State)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wait_sweep %q: still %s (%d/%d done) after %v",
				e.Sweep, v.State, v.Done, v.Total, waitTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// evaluate checks one assertion against the settled run.
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
		got := 0
		for _, inj := range r.injs {
			got += inj.Injected(*a.Injected.Site)
		}
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
func (r *runner) statusFor(name string) (client.RunView, string) {
	sub, err := r.admitted(name)
	if err != nil {
		return client.RunView{}, err.Error()
	}
	v, err := r.status(sub.id)
	if err != nil {
		return client.RunView{}, fmt.Sprintf("run %q: %v", name, err)
	}
	return v, ""
}

func (r *runner) checkState(a *StateAssertion) AssertReport {
	ar := AssertReport{Kind: "state", Detail: fmt.Sprintf("run=%s is=%s", a.Run, a.Is)}
	st, msg := r.statusFor(a.Run)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	ar.Observed = st.State
	ar.Pass = st.State == a.Is
	return ar
}

func (r *runner) checkStates(a *StatesAssertion) AssertReport {
	ar := AssertReport{Kind: "states"}
	var got []string
	for _, sub := range r.subs {
		if !strings.HasPrefix(sub.name, a.Prefix) {
			continue
		}
		if sub.reject != "" {
			got = append(got, sub.admission)
			continue
		}
		v, err := r.status(sub.id)
		if err != nil {
			got = append(got, "unknown")
			continue
		}
		got = append(got, v.State)
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
	msg := sub.reject
	if msg == "" {
		if v, err := r.status(sub.id); err == nil {
			msg = v.Error
		}
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
	v, ok := r.metric(a.Name, a.Label)
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
	if len(st.Result) == 0 {
		ar.Observed = fmt.Sprintf("run %q has no result (state %s)", a.Run, st.State)
		return ar
	}
	var w outcomeWire
	if err := json.Unmarshal(st.Result, &w); err != nil {
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
		if len(st.Result) == 0 {
			ar.Observed = fmt.Sprintf("run %q has no result (state %s)", name, st.State)
			return ar
		}
		if i == 0 {
			first = st.Result
		} else if !bytes.Equal(first, st.Result) {
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
	got := r.frozenNodes
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

func (r *runner) sweepStatusFor(name string) (client.SweepView, string) {
	sw, err := r.sweepNamed(name)
	if err != nil {
		return client.SweepView{}, err.Error()
	}
	v, err := r.sweepStatus(sw.id)
	if err != nil {
		return client.SweepView{}, fmt.Sprintf("sweep %q: %v", name, err)
	}
	return v, ""
}

func (r *runner) checkSweepState(a *SweepStateAssertion) AssertReport {
	ar := AssertReport{Kind: "sweep_state", Detail: fmt.Sprintf("sweep=%s is=%s", a.Sweep, a.Is)}
	st, msg := r.sweepStatusFor(a.Sweep)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	ar.Observed = fmt.Sprintf("%s (%d/%d done)", st.State, st.Done, st.Total)
	ar.Pass = st.State == a.Is
	return ar
}

// checkSweepOracle replays the sweep's grid on a fresh standalone
// single-worker daemon — no faults, no fleet — and requires the sweep's
// reassembled cells to match the oracle's byte for byte.
func (r *runner) checkSweepOracle(a *SweepOracleAssertion) AssertReport {
	ar := AssertReport{Kind: "sweep_cells_match_oracle", Detail: "sweep=" + a.Sweep}
	st, msg := r.sweepStatusFor(a.Sweep)
	if msg != "" {
		ar.Observed = msg
		return ar
	}
	if len(st.Cells) == 0 {
		ar.Observed = fmt.Sprintf("sweep has no cells (state %s, %d/%d done)", st.State, st.Done, st.Total)
		return ar
	}
	want, err := r.oracleCells(r.byNameSweep[a.Sweep].spec)
	if err != nil {
		ar.Observed = fmt.Sprintf("oracle: %v", err)
		return ar
	}
	if !bytes.Equal(st.Cells, want) {
		ar.Observed = fmt.Sprintf("cells diverge from the standalone oracle (%d vs %d bytes)", len(st.Cells), len(want))
		return ar
	}
	ar.Observed = fmt.Sprintf("%d cell bytes byte-identical to the standalone oracle", len(st.Cells))
	ar.Pass = true
	return ar
}

// oracleCells runs the grid on a clean standalone daemon (a pool started
// like a scenario's, at zero PoolParams and without faults) and returns its
// cells JSON. The oracle pool shares the runner's Simulate hook, so its
// attempts are invariant-checked like every other simulation.
func (r *runner) oracleCells(spec *SubmitSweepEvent) ([]byte, error) {
	d, err := r.startPool(PoolParams{}, nil, "", "")
	if err != nil {
		return nil, err
	}
	cli := client.New(d.URL())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
		d.Drain(ctx)
		cancel()
		d.Close()
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

// metric reads a series from the served daemon's registry or, failing
// that, sums it over a fleet's node pools: a coordinator's own series, else
// its nodes' pool series; a pool scenario's daemon is its only pool.
func (r *runner) metric(name, label string) (float64, bool) {
	if v, ok := r.d.Metrics().Value(name, label); ok {
		return v, true
	}
	var sum float64
	found := false
	for _, n := range r.nodes {
		if v, ok := n.Metrics().Value(name, label); ok {
			sum += v
			found = true
		}
	}
	return sum, found
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
