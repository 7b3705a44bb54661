package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// DaemonConfig describes one pdpad process. Its role follows from what is
// set: Coordinator makes a fleet coordinator, Join a fleet node, neither a
// standalone pool.
type DaemonConfig struct {
	// Addr is the listen address (":8080"; port 0 picks a free one).
	Addr string
	// StoreDir, when set, makes the daemon durable: the store there, synced
	// every StoreSync (store.Options.SyncInterval), backs the pool or the
	// coordinator, whose own Store field is ignored.
	StoreDir  string
	StoreSync time.Duration
	// Pool configures a standalone daemon's or a node's pool. Its Faults
	// are armed at the server's http_request site too and, on a node, at
	// the agent's heartbeat.
	Pool runqueue.Config
	// Coordinator, when set, makes the daemon a coordinator.
	Coordinator *Config
	// Join, when set, makes the daemon a node of the coordinator at that
	// base URL (no trailing slash). Advertise is the URL the coordinator reaches the node at
	// (default: the bound address); Name labels it. The node registers its
	// pool's base and max workers after defaults, with base as its CPUs.
	Join, Advertise, Name string
	// Logf receives the daemon's, its agent's and, unless Coordinator sets
	// its own, its coordinator's log lines (default: discarded).
	Logf func(format string, args ...any)
	// Wrap, when set, wraps the served handler: tests hold, delay or answer
	// requests with it.
	Wrap func(http.Handler) http.Handler
}

// Daemon is one assembled pdpad: store → pool → server → agent, or store →
// coordinator → server. Its methods are called from one goroutine.
type Daemon struct {
	cfg   DaemonConfig
	addr  string // bound address, bound again by Restart
	store *store.Store
	pool  *runqueue.Pool
	coord *Coordinator
	agent *Agent
	http  *http.Server // nil once closed or killed
	// active counts the serve goroutine and the requests in flight, which
	// Close and Kill wait out.
	active atomic.Int64
}

// StartDaemon opens the store, builds the backend, binds the listener and
// starts the agent. A failed bind fails at once.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	d := &Daemon{cfg: cfg, addr: cfg.Addr}
	if err := d.start(false); err != nil {
		return nil, err
	}
	return d, nil
}

// start assembles the stack; rebind retries the bind while a killed
// listener's port frees up.
func (d *Daemon) start(rebind bool) error {
	cfg := d.cfg
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{SyncInterval: cfg.StoreSync})
		if err != nil {
			return fmt.Errorf("open store %s: %w", cfg.StoreDir, err)
		}
		s := st.Stats()
		cfg.Logf("pdpad: store %s: recovered %d record(s) (%d truncated tail(s), %d corrupt frame(s))",
			cfg.StoreDir, s.RecoveredEntries, s.TruncatedTails, s.CorruptFrames)
		d.store = st
	}
	var h http.Handler
	if cfg.Coordinator != nil {
		cc := *cfg.Coordinator
		cc.Store = d.store
		if cc.Logf == nil {
			cc.Logf = cfg.Logf
		}
		coord, err := NewCoordinator(cc)
		if err != nil {
			d.dropStore()
			return err
		}
		d.coord, h = coord, coord
	} else {
		pc := cfg.Pool
		pc.Store = d.store
		d.pool = runqueue.New(pc)
		role := server.RoleStandalone
		if cfg.Join != "" {
			role = server.RoleNode
		}
		h = server.New(d.pool, server.WithRole(role), server.WithFaults(pc.Faults))
	}
	if cfg.Wrap != nil {
		h = cfg.Wrap(h)
	}
	ln, err := net.Listen("tcp", d.addr)
	for deadline := time.Now().Add(10 * time.Second); err != nil && rebind && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		ln, err = net.Listen("tcp", d.addr)
	}
	if err != nil {
		d.Close()
		return err
	}
	d.addr = ln.Addr().String()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.active.Add(1)
		defer d.active.Add(-1)
		h.ServeHTTP(w, r)
	})}
	d.http = srv
	d.active.Add(1)
	go func() {
		defer d.active.Add(-1)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			cfg.Logf("pdpad: serve: %v", err)
		}
	}()
	if cfg.Join != "" {
		adv := cfg.Advertise
		if adv == "" {
			adv = d.URL()
		}
		cfg.Logf("pdpad: joining fleet at %s as %s", cfg.Join, adv)
		base, max := d.pool.Workers()
		d.agent = StartAgent(AgentConfig{
			Coordinator: cfg.Join, Advertise: adv, Name: cfg.Name,
			CPUs: base, BaseWorkers: base, MaxWorkers: max,
			Faults: cfg.Pool.Faults, Logf: cfg.Logf,
		}, d.pool)
	}
	return nil
}

// URL is the daemon's base URL on its bound address.
func (d *Daemon) URL() string { return "http://" + d.addr }

// Agent is a node's membership agent (nil unless the daemon joined).
func (d *Daemon) Agent() *Agent { return d.agent }

// Metrics is the backend's registry: the coordinator's or the pool's.
func (d *Daemon) Metrics() *obs.Registry {
	if d.coord != nil {
		return d.coord.Metrics()
	}
	return d.pool.Metrics()
}

// Drain stops admissions and waits for the accepted runs to finish; a pool
// cancels the rest once ctx expires. A node's agent keeps heartbeating
// meanwhile, and the draining flag it carries stops placements there.
func (d *Daemon) Drain(ctx context.Context) error {
	if d.coord != nil {
		return d.coord.Drain(ctx)
	}
	return d.pool.Drain(ctx)
}

// Close shuts the daemon down after Drain, in order: the agent or the
// coordinator stops, the HTTP server shuts down (cut off after 5 s), a pool
// cancels what Drain left running, and the store closes. Close is safe
// after Kill and more than once.
func (d *Daemon) Close() error {
	var errs []error
	d.stop()
	if d.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.http.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
			d.http.Close()
		}
		cancel()
		d.served()
	}
	if d.pool != nil {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d.pool.Drain(ctx)
	}
	return errors.Join(append(errs, d.dropStore())...)
}

// Kill is the kill -9 stand-in: client connections are cut and the
// listener closed, the agent or the coordinator stops, and the store handle
// is dropped, leaving only what the store synced. A node's pool keeps
// running, as a crashed host's would, until Restart or Close.
func (d *Daemon) Kill() error {
	if d.http != nil {
		d.http.Close()
		d.served()
	}
	d.stop()
	return d.dropStore()
}

// Restart brings the daemon back as a supervisor restarts a killed
// process: whatever a pool still runs is cancelled, the same store is
// reopened and the same address bound again.
func (d *Daemon) Restart() error {
	d.Kill()
	d.Close()
	return d.start(true)
}

// served waits out the serve goroutine and the requests in flight once the
// server is shut down or closed.
func (d *Daemon) served() {
	for d.active.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	d.http = nil
}

// stop ends the role's background work: the agent's heartbeats, or the
// coordinator's monitor and run watchers. Both stop idempotently.
func (d *Daemon) stop() {
	if d.agent != nil {
		d.agent.Stop()
	}
	if d.coord != nil {
		d.coord.Close()
	}
}

// dropStore closes the store handle, once.
func (d *Daemon) dropStore() error {
	st := d.store
	if d.store = nil; st == nil {
		return nil
	}
	return st.Close()
}
