package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// AgentConfig parameterizes a node's membership in a fleet.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Advertise is this node's own base URL — how the coordinator reaches
	// its v1 surface.
	Advertise string
	// Name is an optional human label sent at registration.
	Name string
	// CPUs, BaseWorkers, MaxWorkers describe capacity for the registration.
	CPUs        int
	BaseWorkers int
	MaxWorkers  int
	// Faults injects failures at SiteNodeHeartbeat: an injected fault
	// swallows that beat, simulating a lost heartbeat. Nil is a no-op.
	Faults *faults.Injector
	// HTTPClient carries node → coordinator traffic (default fresh).
	HTTPClient *http.Client
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
}

// registerRetry paces registration retries.
const registerRetry = 250 * time.Millisecond

// Agent keeps one node registered with its coordinator: it registers (with
// retry), then heartbeats at the coordinator-directed cadence, re-registering
// under a fresh ID whenever the coordinator answers 404 (the node was
// declared dead, or the coordinator restarted). Create with StartAgent.
type Agent struct {
	cfg    AgentConfig
	pool   *runqueue.Pool
	cli    *client.Client
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	id         string
	registered chan struct{} // closed after the first successful registration
}

// StartAgent launches the registration/heartbeat loop for pool and returns
// immediately. Stop the agent with Stop.
func StartAgent(cfg AgentConfig, pool *runqueue.Pool) *Agent {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		cfg:        cfg,
		pool:       pool,
		cli:        client.New(cfg.Coordinator, client.WithHTTPClient(cfg.HTTPClient)),
		cancel:     cancel,
		done:       make(chan struct{}),
		registered: make(chan struct{}),
	}
	go a.loop(ctx)
	return a
}

// Stop ends the loop and waits for it to exit. The node's pool is left
// running; stopping membership does not stop work.
func (a *Agent) Stop() {
	a.cancel()
	<-a.done
	a.cli.CloseIdleConnections()
}

// Registered is closed once the agent has successfully registered for the
// first time.
func (a *Agent) Registered() <-chan struct{} { return a.registered }

// ID returns the coordinator-assigned node ID ("" before registration).
func (a *Agent) ID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

func (a *Agent) loop(ctx context.Context) {
	defer close(a.done)
	first := true
	for {
		interval, ok := a.register(ctx)
		if !ok {
			return // context cancelled or fatal
		}
		if first {
			close(a.registered)
			first = false
		}
		if !a.heartbeatLoop(ctx, interval) {
			return // context cancelled
		}
		// heartbeatLoop returned because the coordinator answered 404:
		// this incarnation is dead to it; register again under a new ID.
	}
}

// register registers until it succeeds, returning the directed heartbeat
// interval. ok is false when the context ended or the revision mismatch
// made registration permanently hopeless.
func (a *Agent) register(ctx context.Context) (time.Duration, bool) {
	req := client.NodeRegisterRequest{
		Name:        a.cfg.Name,
		Addr:        a.cfg.Advertise,
		APIRevision: server.APIRevision,
		CPUs:        a.cfg.CPUs,
		BaseWorkers: a.cfg.BaseWorkers,
		MaxWorkers:  a.cfg.MaxWorkers,
	}
	for {
		var resp client.NodeRegisterResponse
		err := a.cli.Do(ctx, http.MethodPost, "/v1/nodes/register", req, &resp)
		if err == nil {
			a.mu.Lock()
			a.id = resp.ID
			a.mu.Unlock()
			a.cfg.Logf("fleet: registered as %s with %s", resp.ID, a.cfg.Coordinator)
			interval := time.Duration(resp.HeartbeatIntervalS * float64(time.Second))
			if interval < 10*time.Millisecond {
				interval = 10 * time.Millisecond
			}
			return interval, true
		}
		var api *client.APIError
		if errors.As(err, &api) && api.Code == server.CodeIncompatibleRevision {
			a.cfg.Logf("fleet: fatal: %v", err)
			return 0, false
		}
		a.cfg.Logf("fleet: registration failed, retrying: %v", err)
		select {
		case <-ctx.Done():
			return 0, false
		case <-time.After(registerRetry):
		}
	}
}

// heartbeatLoop beats until the context ends (returns false) or the
// coordinator forgets this node (returns true: caller re-registers).
func (a *Agent) heartbeatLoop(ctx context.Context, interval time.Duration) bool {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		if err := a.cfg.Faults.Hit(ctx, faults.SiteNodeHeartbeat); err != nil {
			a.cfg.Logf("fleet: heartbeat swallowed by injected fault: %v", err)
			continue
		}
		h := a.pool.Health()
		req := client.NodeHeartbeatRequest{QueueDepth: h.Queue, Inflight: h.Inflight, Draining: h.Status == "draining"}
		var resp client.NodeHeartbeatResponse
		err := a.cli.Do(ctx, http.MethodPost, "/v1/nodes/"+a.ID()+"/heartbeat", req, &resp)
		if err == nil {
			if resp.State == string(StateDrained) {
				// The coordinator scale-drained this node: leave the fleet
				// for good (the pool keeps running; Stop still works).
				a.cfg.Logf("fleet: coordinator drained node %s; leaving the fleet", a.ID())
				return false
			}
			continue
		}
		var api *client.APIError
		if errors.As(err, &api) && api.Status == http.StatusNotFound {
			a.cfg.Logf("fleet: coordinator forgot node %s; re-registering", a.ID())
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		a.cfg.Logf("fleet: heartbeat failed: %v", err)
	}
}
