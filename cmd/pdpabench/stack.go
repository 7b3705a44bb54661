package main

// Serving stacks, assembled from the public constructors exactly as
// cmd/pdpad assembles them with its default flags, each on a real loopback
// listener. Everything runs in this process: three pdpad processes on a
// two-core machine would measure the OS scheduler, not the program.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pdpasim"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// pdpad's default flags, which every stack uses.
const (
	storeSync   = 50 * time.Millisecond // -store-sync
	poolBase    = 4                     // -base
	poolMax     = 8                     // -max (2×base)
	poolWarmup  = 500 * time.Millisecond
	poolQueue   = 256
	poolCache   = 128
	traceLimit  = 2000
	heartbeat   = 2 * time.Second // -heartbeat
	maxRequeues = 3               // -max-requeues
	placement   = "round_robin"   // -placement
)

// errStart marks a stack that could not start; the benchmark exits 2.
var errStart = errors.New("stack did not start")

// listen starts an http.Server for h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("%w: listen: %v", errStart, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func shutdown(srv *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// daemon is one durable pdpad: store → runqueue.Pool → server.New, plus a
// fleet agent when it is a node.
type daemon struct {
	dir   string
	store *store.Store
	pool  *runqueue.Pool
	srv   *http.Server
	url   string
	agent *fleet.Agent
}

// startDaemon opens the store in dir and serves a pool over it. With coord
// set the daemon is a fleet node that joins that coordinator.
func startDaemon(dir string, t *tracer, coord string) (*daemon, error) {
	st, err := store.Open(dir, store.Options{SyncInterval: storeSync})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	cfg := runqueue.Config{
		BaseWorkers: poolBase,
		MaxWorkers:  poolMax,
		Warmup:      poolWarmup,
		QueueLimit:  poolQueue,
		CacheSize:   poolCache,
		TraceLimit:  traceLimit,
		Store:       st,
	}
	if t != nil {
		// The same pdpasim.RunContext call the pool's default makes, timed.
		cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			ws, opts := spec.Facade()
			opts.DecisionTrace = traceLimit
			start := time.Now()
			out, err := pdpasim.RunContext(ctx, ws, opts)
			t.simulated(spec.Key(), start, time.Now())
			return out, err
		}
	}
	d := &daemon{dir: dir, store: st, pool: runqueue.New(cfg)}
	var opts []server.Option
	if coord != "" {
		opts = append(opts, server.WithRole(server.RoleNode))
	}
	d.srv, d.url, err = listen(t.wrap("server", server.New(d.pool, opts...)))
	if err != nil {
		st.Close()
		return nil, err
	}
	if coord != "" {
		d.agent = fleet.StartAgent(fleet.AgentConfig{
			Coordinator: coord,
			Advertise:   d.url,
			CPUs:        poolBase,
			BaseWorkers: poolBase,
			MaxWorkers:  poolMax,
		}, d.pool)
	}
	return d, nil
}

// stop drains the pool, leaves the fleet, and closes the listener and the
// store, in pdpad's shutdown order.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.pool.Drain(ctx)}
	if d.agent != nil {
		d.agent.Stop()
	}
	errs = append(errs, shutdown(d.srv), d.store.Close())
	return errors.Join(errs...)
}

// coordinator is a durable fleet coordinator on its own listener.
type coordinator struct {
	dir   string
	store *store.Store
	coord *fleet.Coordinator
	srv   *http.Server
	url   string
}

func startCoordinator(dir string, t *tracer) (*coordinator, error) {
	st, err := store.Open(dir, store.Options{SyncInterval: storeSync})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	cfg := fleet.Config{
		Placement:   placement,
		Health:      fleet.HealthConfig{HeartbeatInterval: heartbeat},
		MaxRequeues: maxRequeues,
		Store:       st,
	}
	if t != nil {
		base := http.DefaultTransport.(*http.Transport).Clone()
		cfg.HTTPClient = &http.Client{Transport: &spanTransport{t: t, base: base, node: true}}
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	c := &coordinator{dir: dir, store: st, coord: coord}
	c.srv, c.url, err = listen(t.wrap("coord", coord))
	if err != nil {
		coord.Close()
		st.Close()
		return nil, err
	}
	return c, nil
}

func (c *coordinator) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{c.coord.Drain(ctx), shutdown(c.srv)}
	c.coord.Close()
	return errors.Join(append(errs, c.store.Close())...)
}

// stack is what a serving workload talks to: one standalone daemon, or a
// coordinator with two nodes. front is the URL clients use.
type stack struct {
	daemons []*daemon
	coord   *coordinator
	front   string
}

// fleetNodes is the node count of the fleet stack.
const fleetNodes = 2

// startStack brings a stack up over the store directories under dir (fresh
// or left by an earlier stack) and returns once the front door answers and,
// for a fleet, every node has registered.
func startStack(ctx context.Context, dir string, isFleet bool, t *tracer) (*stack, error) {
	s := &stack{}
	if !isFleet {
		d, err := startDaemon(filepath.Join(dir, "node-0"), t, "")
		if err != nil {
			return nil, err
		}
		s.daemons, s.front = []*daemon{d}, d.url
	} else if err := s.startFleet(dir, t); err != nil {
		return nil, err
	}
	if err := s.ready(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// startFleet starts a coordinator and fleetNodes nodes that join it.
func (s *stack) startFleet(dir string, t *tracer) error {
	c, err := startCoordinator(filepath.Join(dir, "coordinator"), t)
	if err != nil {
		return err
	}
	s.coord, s.front = c, c.url
	for i := 0; i < fleetNodes; i++ {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("node-%d", i)), t, c.url)
		if err != nil {
			s.stop()
			return err
		}
		s.daemons = append(s.daemons, d)
	}
	return nil
}

// ready waits for every agent to register and for the front door's health
// probe to answer.
func (s *stack) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, d := range s.daemons {
		if d.agent == nil {
			continue
		}
		select {
		case <-d.agent.Registered():
		case <-ctx.Done():
			return fmt.Errorf("%w: node %s did not register: %v", errStart, d.url, ctx.Err())
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.front+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errStart, err)
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: health probe: %v", errStart, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: health probe answered %s", errStart, resp.Status)
	}
	return nil
}

// stop drains and closes the coordinator first (so every run is terminal),
// then the nodes.
func (s *stack) stop() error {
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.stop())
	}
	for _, d := range s.daemons {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// stores lists the stack's stores.
func (s *stack) stores() []*store.Store {
	var out []*store.Store
	if s.coord != nil {
		out = append(out, s.coord.store)
	}
	for _, d := range s.daemons {
		out = append(out, d.store)
	}
	return out
}

// storeDirs lists the stack's store directories.
func (s *stack) storeDirs() []string {
	var out []string
	if s.coord != nil {
		out = append(out, s.coord.dir)
	}
	for _, d := range s.daemons {
		out = append(out, d.dir)
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// mkdirFresh creates dir, removing anything an earlier round left there.
func mkdirFresh(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
