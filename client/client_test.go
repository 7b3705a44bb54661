package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// strictDecode decodes a response body into its client type, refusing any
// field the type lacks, and fails unless the type marshals back to the same
// JSON value. A failure means the daemon answered with a shape the client
// schema does not describe.
func strictDecode[T any](t *testing.T, name string, body []byte) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: %s does not decode into %T: %v", name, body, v, err)
	}
	var want, got any
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(mustJSON(t, v)), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s drift:\nwire   %s\nclient %s", name, body, mustJSON(t, v))
	}
	return v
}

// rawCall performs one v1 call and returns the response body undecoded.
func rawCall(ctx context.Context, t *testing.T, cli *client.Client, method, path string, in any) []byte {
	t.Helper()
	var raw json.RawMessage
	if err := cli.Do(ctx, method, path, in, &raw); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return raw
}

// TestWireDrift pins the run plane's wire to the client types. The runqueue
// types that carry simulator methods are built from the client types and
// must marshal to the same JSON for the same values, and every body a
// standalone daemon answers with must decode into its client type with no
// field left over.
func TestWireDrift(t *testing.T) {
	spec := client.Spec{
		Workload: client.Workload{Mix: "w1", Load: 0.6, NCPU: 32, WindowS: 60, Seed: 7, UniformRequest: 4},
		Options: client.RunOptions{Policy: "pdpa", TargetEff: 0.7, HighEff: 0.9, Step: 2, BaseMPL: 3,
			MaxStableTransitions: 5, FixedMPL: 8, NoiseSigma: 0.01, Seed: 9, NUMANodeSize: 4},
	}
	if a, b := mustJSON(t, runqueue.Spec(spec)), mustJSON(t, spec); a != b {
		t.Errorf("Spec drift:\nrunqueue %s\nclient   %s", a, b)
	}
	// The zero-value shapes must agree too: omitempty mismatches only show
	// up on zero fields.
	if a, b := mustJSON(t, runqueue.Spec{}), mustJSON(t, client.Spec{}); a != b {
		t.Errorf("Spec zero drift:\nrunqueue %s\nclient   %s", a, b)
	}

	sweep := client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Loads: []float64{0.5},
		Seeds: []int64{1, 2}, NCPU: 32, WindowS: 30, UniformRequest: 2,
		Options: spec.Options,
	}
	if a, b := mustJSON(t, runqueue.SweepSpec(sweep)), mustJSON(t, sweep); a != b {
		t.Errorf("SweepSpec drift:\nrunqueue %s\nclient   %s", a, b)
	}
	if a, b := mustJSON(t, runqueue.SweepSpec{}), mustJSON(t, client.SweepSpec{}); a != b {
		t.Errorf("SweepSpec zero drift:\nrunqueue %s\nclient   %s", a, b)
	}

	cli, _ := newDaemon(t, runqueue.Config{Warmup: time.Millisecond, Simulate: instantSim})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	strictDecode[client.VersionInfo](t, "VersionInfo", rawCall(ctx, t, cli, http.MethodGet, "/v1/version", nil))
	strictDecode[client.Health](t, "Health", rawCall(ctx, t, cli, http.MethodGet, "/healthz", nil))

	sub := strictDecode[client.SubmitResult](t, "SubmitResult", rawCall(ctx, t, cli, http.MethodPost, "/v1/runs",
		client.SubmitRunRequest{Workload: client.Workload{Mix: "w1", Seed: 1}, Options: client.RunOptions{Policy: "equip"}}))
	if _, err := cli.WaitRun(ctx, sub.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	strictDecode[client.RunView](t, "RunView", rawCall(ctx, t, cli, http.MethodGet, "/v1/runs/"+sub.ID, nil))
	strictDecode[client.RunPage](t, "RunPage", rawCall(ctx, t, cli, http.MethodGet, "/v1/runs", nil))
	rec := strictDecode[client.ReconcileResult](t, "ReconcileResult", rawCall(ctx, t, cli, http.MethodPost, "/v1/runs/reconcile",
		client.ReconcileRequest{IDs: []string{sub.ID, "run-999999"}}))
	if len(rec.Runs) != 1 || len(rec.Missing) != 1 {
		t.Errorf("reconcile = %+v, want one run and one missing", rec)
	}

	ssub := strictDecode[client.SweepSubmitResult](t, "SweepSubmitResult", rawCall(ctx, t, cli, http.MethodPost, "/v1/sweeps",
		client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
			Policies: []string{"equip"}, Mixes: []string{"w1"}, Loads: []float64{0.5}, Seeds: []int64{1, 2}, NCPU: 32, WindowS: 30,
		}}))
	if _, err := cli.WaitSweep(ctx, ssub.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	strictDecode[client.SweepView](t, "SweepView", rawCall(ctx, t, cli, http.MethodGet, "/v1/sweeps/"+ssub.ID, nil))
	strictDecode[client.SweepPage](t, "SweepPage", rawCall(ctx, t, cli, http.MethodGet, "/v1/sweeps", nil))
}

// TestNodePlaneWireDrift pins the node plane the same way TestWireDrift pins
// the run plane: register, heartbeat, the node list and the node actions
// answer in the client's Node* shapes, and every fleet.NodeState the
// coordinator reports is the string the client types document.
func TestNodePlaneWireDrift(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	cli := client.New(ts.URL)
	t.Cleanup(func() {
		coord.Close()
		ts.Close()
		cli.CloseIdleConnections()
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A registration with every optional field left out must be accepted:
	// the zero-value shape is what omitempty puts on the wire.
	reg := strictDecode[client.NodeRegisterResponse](t, "NodeRegisterResponse", rawCall(ctx, t, cli, http.MethodPost,
		"/v1/nodes/register", client.NodeRegisterRequest{Addr: "http://127.0.0.1:1", APIRevision: server.APIRevision}))
	if reg.ID == "" || reg.HeartbeatIntervalS <= 0 {
		t.Fatalf("register = %+v", reg)
	}
	beat := func(req client.NodeHeartbeatRequest, want fleet.NodeState) {
		t.Helper()
		resp := strictDecode[client.NodeHeartbeatResponse](t, "NodeHeartbeatResponse",
			rawCall(ctx, t, cli, http.MethodPost, "/v1/nodes/"+reg.ID+"/heartbeat", req))
		if resp.State != string(want) {
			t.Errorf("heartbeat state = %q, want %q", resp.State, want)
		}
	}
	beat(client.NodeHeartbeatRequest{}, fleet.StateHealthy)
	beat(client.NodeHeartbeatRequest{QueueDepth: 3, Inflight: 2, Draining: true}, fleet.StateHealthy)

	page := strictDecode[client.NodePage](t, "NodePage", rawCall(ctx, t, cli, http.MethodGet, "/v1/nodes", nil))
	if len(page.Nodes) != 1 || page.Nodes[0].State != string(fleet.StateHealthy) || page.Nodes[0].QueueDepth != 3 || !page.Nodes[0].Draining {
		t.Fatalf("nodes = %+v", page)
	}
	health := strictDecode[client.Health](t, "Health", rawCall(ctx, t, cli, http.MethodGet, "/healthz", nil))
	if health.Nodes == nil || *health.Nodes != 1 || health.Healthy == nil || *health.Healthy != 1 {
		t.Fatalf("coordinator health = %+v, want node counts of 1", health)
	}
	// The node gauges count what /healthz counts: a node draining its own
	// pool is healthy (it only gets no placements).
	met, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met["pdpad_fleet_nodes_healthy"] != float64(*health.Healthy) || met["pdpad_fleet_nodes"] != float64(*health.Nodes) {
		t.Errorf("node gauges = %v/%v, /healthz = %d/%d", met["pdpad_fleet_nodes_healthy"], met["pdpad_fleet_nodes"],
			*health.Healthy, *health.Nodes)
	}

	v := strictDecode[client.NodeView](t, "NodeView", rawCall(ctx, t, cli, http.MethodPost, "/v1/nodes/"+reg.ID+"/cordon", nil))
	if v.State != string(fleet.StateCordoned) || !v.Cordoned {
		t.Errorf("cordoned view = %+v", v)
	}
	beat(client.NodeHeartbeatRequest{}, fleet.StateCordoned)

	v = strictDecode[client.NodeView](t, "NodeView", rawCall(ctx, t, cli, http.MethodPost, "/v1/nodes/"+reg.ID+"/drain", nil))
	if v.State != string(fleet.StateDrained) {
		t.Errorf("drained view = %+v", v)
	}
	// A node drained by hand is out of the fleet: its next heartbeat is
	// told to re-register. Only a scale-down drain answers "drained".
	var resp client.NodeHeartbeatResponse
	err = cli.Do(ctx, http.MethodPost, "/v1/nodes/"+reg.ID+"/heartbeat", client.NodeHeartbeatRequest{}, &resp)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeNotFound {
		t.Errorf("heartbeat after drain: resp %+v, err %v, want 404 %s", resp, err, server.CodeNotFound)
	}
}

func newDaemon(t *testing.T, cfg runqueue.Config, opts ...server.Option) (*client.Client, *runqueue.Pool) {
	t.Helper()
	pool := runqueue.New(cfg)
	ts := httptest.NewServer(server.New(pool, opts...))
	cli := client.New(ts.URL)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		pool.Drain(ctx)
		cancel()
		ts.Close()
		cli.CloseIdleConnections()
	})
	return cli, pool
}

func instantSim(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	ws := pdpasim.WorkloadSpec{Mix: spec.Workload.Mix, Load: 0.2, NCPU: 8,
		Window: 5 * time.Second, Seed: spec.Workload.Seed}
	return pdpasim.RunContext(ctx, ws, pdpasim.Options{Policy: pdpasim.Equipartition})
}

func TestClientEndToEnd(t *testing.T) {
	cli, _ := newDaemon(t, runqueue.Config{Warmup: time.Millisecond, Simulate: instantSim})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	v, err := cli.Version(ctx)
	if err != nil || v.Role != server.RoleStandalone || v.APIRevision != server.APIRevision {
		t.Fatalf("version = %+v, err %v", v, err)
	}
	h, err := cli.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, err %v", h, err)
	}

	sub, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 1},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := cli.WaitRun(ctx, sub.ID, 0)
	if err != nil || run.State != "done" || len(run.Result) == 0 {
		t.Fatalf("run = %+v, err %v", run, err)
	}
	// The stubbed simulator records no decision trace; the absence must
	// surface as the typed 404, not a contract violation.
	if _, err := cli.Trace(ctx, sub.ID); err != nil {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("trace: %v", err)
		}
	}

	var states []string
	if err := cli.FollowRun(ctx, sub.ID, func(ev client.Event) bool {
		states = append(states, ev.State)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Errorf("SSE states = %v", states)
	}

	// Pagination: five runs, pages of two, walked to exhaustion.
	for seed := int64(2); seed <= 5; seed++ {
		if _, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := cli.AllRuns(ctx, client.ListOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("AllRuns = %d runs, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID < all[i].ID {
			t.Fatalf("AllRuns not newest-first: %s before %s", all[i-1].ID, all[i].ID)
		}
	}

	sw, err := cli.SubmitSweep(ctx, client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Seeds: []int64{1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := cli.WaitSweep(ctx, sw.ID, 0)
	if err != nil || sv.State != "done" || len(sv.Cells) == 0 {
		t.Fatalf("sweep = %+v, err %v", sv, err)
	}
	page, err := cli.Sweeps(ctx, client.ListOptions{})
	if err != nil || len(page.Sweeps) != 1 {
		t.Fatalf("sweeps page = %+v, err %v", page, err)
	}

	met, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met["pdpad_runs_finished_total"] < 5 {
		t.Errorf("runs_finished_total = %v, want >= 5", met["pdpad_runs_finished_total"])
	}
}

func TestNotFoundIsAPIError(t *testing.T) {
	cli, _ := newDaemon(t, runqueue.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := cli.Run(ctx, "run-999999")
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeNotFound {
		t.Fatalf("err = %v, want 404 %s", err, server.CodeNotFound)
	}
}

// TestRetriesShed: the client retries 429 sheds for the advertised pause
// and succeeds once capacity returns.
func TestRetriesShed(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			server.WriteRetryError(w, http.StatusTooManyRequests, server.CodeOverloaded,
				fmt.Errorf("shed"), 1)
			return
		}
		server.WriteJSON(w, http.StatusAccepted, client.SubmitResult{ID: "run-000001", State: "queued"})
	}))
	defer ts.Close()
	cli := client.New(ts.URL, client.WithRetries(3), client.WithRetryWaitCap(time.Millisecond))
	defer cli.CloseIdleConnections()
	sub, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "run-000001" || calls.Load() != 3 {
		t.Fatalf("sub = %+v after %d calls", sub, calls.Load())
	}
}

// TestRetryBudgetExhausted: with no retries, a shed surfaces as *APIError
// carrying the hint.
func TestRetryBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteRetryError(w, http.StatusTooManyRequests, server.CodeOverloaded, fmt.Errorf("shed"), 7)
	}))
	defer ts.Close()
	cli := client.New(ts.URL)
	defer cli.CloseIdleConnections()
	_, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || !apiErr.IsShed() || apiErr.RetryAfterSeconds != 7 {
		t.Fatalf("err = %v, want shed with hint 7", err)
	}
}

// TestContractErrors: responses outside the v1 contract are typed as
// *ContractError, never silently retried or decoded.
func TestContractErrors(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"garbage 500", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte("not json"))
		}},
		{"429 without retry hint", func(w http.ResponseWriter, r *http.Request) {
			// Envelope advertises a hint the header contradicts.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "99")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(client.ErrorResponse{Error: client.ErrorBody{
				Code: server.CodeOverloaded, Message: "shed", RetryAfterSeconds: 1,
			}})
		}},
		{"undecodable 200", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("not json"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			cli := client.New(ts.URL, client.WithRetries(5), client.WithRetryWaitCap(time.Millisecond))
			defer cli.CloseIdleConnections()
			_, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
			var contract *client.ContractError
			if !errors.As(err, &contract) {
				t.Fatalf("err = %v (%T), want *ContractError", err, err)
			}
		})
	}
}

// TestContractErrorKeepsBody: the body a ContractError carries is its own
// copy; reading later responses does not change it.
func TestContractErrorKeepsBody(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "not json %d", n.Add(1))
	}))
	defer ts.Close()
	cli := client.New(ts.URL)
	defer cli.CloseIdleConnections()
	var first *client.ContractError
	for i := 0; i < 2; i++ {
		_, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
		var contract *client.ContractError
		if !errors.As(err, &contract) {
			t.Fatalf("err = %v (%T), want *ContractError", err, err)
		}
		if first == nil {
			first = contract
		}
	}
	if got := string(first.Body); got != "not json 1" {
		t.Fatalf("first error's body reads %q after a second response, want %q", got, "not json 1")
	}
}

// TestLargeSuccessBody: a success body over the 1 MiB error-body bound (a
// long run's view, result or trace) is read in full and decodes.
func TestLargeSuccessBody(t *testing.T) {
	result := fmt.Sprintf(`{"pad":%q}`, bytes.Repeat([]byte("x"), 3<<20/2))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.RunView{ID: "run-000001", State: "done", Result: json.RawMessage(result)})
	}))
	defer ts.Close()
	cli := client.New(ts.URL)
	defer cli.CloseIdleConnections()
	for name, get := range map[string]func() (client.RunView, error){
		"Run": func() (client.RunView, error) { return cli.Run(context.Background(), "run-000001") },
		"WaitRun": func() (client.RunView, error) {
			return cli.WaitRun(context.Background(), "run-000001", time.Millisecond)
		},
	} {
		v, err := get()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.State != "done" || string(v.Result) != result {
			t.Fatalf("%s: state %q, result of %d bytes, want done and %d bytes", name, v.State, len(v.Result), len(result))
		}
	}
}
