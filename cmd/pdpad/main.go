// Command pdpad is the simulation-as-a-service daemon: a long-running HTTP
// server that accepts WorkloadSpec+Options payloads, executes them on a
// bounded worker pool whose admission controller applies PDPA's coordinated
// multiprogramming-level rule to the service itself, dedupes identical specs
// through a canonical-config-hash index into its run history (a done run
// answers repeats for as long as the history holds it, so the history is the
// result cache and has the only bound), streams per-run progress as
// server-sent events, serves each run's recorded decision trace, and exposes
// live Prometheus metrics.
//
// Usage:
//
//	pdpad -addr :8080 -base 4 -max 8 -warmup 500ms
//
// The daemon also runs at cluster scale. A coordinator owns admission and
// routing for a fleet of nodes, serving the same v1 surface plus the node
// plane (GET /v1/nodes, cordon/drain); nodes are ordinary daemons that join
// a coordinator and heartbeat their load:
//
//	pdpad -coordinator -addr :8080 -placement least_loaded
//	pdpad -node -join http://coord:8080 -addr :8081 -advertise http://node1:8081
//
// A coordinator given -store persists its routing table — the run registry,
// sweep shard map, and node ledger — so a crashed or killed coordinator can
// be restarted on the same store and resume where it left off: nodes
// re-register, completed results are adopted verbatim, in-flight runs are
// resumed, and interrupted sweeps finish with byte-identical cells.
// -drain-idle-after and -join-backlog arm the elasticity hooks that retire
// idle nodes (never below -min-nodes) and signal for more when the queue
// backs up:
//
//	pdpad -coordinator -addr :8080 -store /var/lib/pdpad/coord \
//	      -drain-idle-after 5m -min-nodes 2 -join-backlog 16
//
// For chaos testing, -inject arms seeded fault rules at the daemon's
// injection sites using the same rule syntax scenario files use:
//
//	pdpad -inject "worker_start:error transient count=2" -inject-seed 7 -max-retries 3
//
// Quickstart:
//
//	curl -s localhost:8080/v1/runs -d '{"workload":{"mix":"w3"},"options":{"policy":"pdpa"}}'
//	curl -s localhost:8080/v1/runs/run-000001
//	curl -N localhost:8080/v1/runs/run-000001/events
//	curl -s localhost:8080/v1/runs/run-000001/trace
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight and
// queued runs, and exits; a second signal (or -drain-timeout) cancels the
// stragglers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		base         = flag.Int("base", 4, "base worker concurrency: below it admission is unconditional (PDPA's base MPL)")
		max          = flag.Int("max", 0, "max concurrent simulations (0 = 2×base)")
		warmup       = flag.Duration("warmup", 500*time.Millisecond, "how long a new run is considered settling; above base, admission waits for a stable running set")
		queueLimit   = flag.Int("queue", 256, "maximum queued runs")
		deadline     = flag.Duration("deadline", 0, "default per-run deadline, queue wait included (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for runs to finish before cancelling them")
		traceLimit   = flag.Int("trace-limit", 2000, "decision-trace events retained per run, served at /v1/runs/{id}/trace (negative disables tracing)")
		runTimeout   = flag.Duration("run-timeout", 0, "per-attempt wall-clock limit for a simulation; exceeded runs fail with a timeout error (0 = none)")
		maxRetries   = flag.Int("max-retries", 0, "retries for transiently failed runs, with exponential backoff (0 = none)")
		maxQueue     = flag.Int("max-queue", 0, "queue depth past which submissions are shed with 429 + Retry-After (0 = shed only at -queue)")
		injectSeed   = flag.Int64("inject-seed", 1, "seed for probabilistic -inject rules")
		storeDir     = flag.String("store", "", "directory for the durable run store; completed runs survive restarts (empty = in-memory only)")
		storeSync    = flag.Duration("store-sync", 50*time.Millisecond, "fsync batching interval for the run store (negative = fsync every append)")

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator: admission and routing only, no local simulations")
		nodeMode    = flag.Bool("node", false, "run as a fleet node: an ordinary daemon that joins a coordinator")
		join        = flag.String("join", "", "coordinator base URL to join (requires -node)")
		advertise   = flag.String("advertise", "", "base URL the coordinator should reach this node at (default derived from -addr)")
		nodeName    = flag.String("node-name", "", "human label for this node in the coordinator's node list")
		placement   = flag.String("placement", "round_robin", "coordinator placement strategy: round_robin, least_loaded, or lpt")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "coordinator-directed node heartbeat interval")
		unhealthy   = flag.Duration("unhealthy-after", 0, "heartbeat silence before a node stops receiving placements (0 = 3×heartbeat)")
		deadAfter   = flag.Duration("dead-after", 0, "heartbeat silence before a node is drained and its runs requeued (0 = 2×unhealthy-after)")
		maxRequeues = flag.Int("max-requeues", 3, "re-placements one run may survive after node deaths before failing")
		drainIdle   = flag.Duration("drain-idle-after", 0, "coordinator: scale-drain a node idle this long, never below -min-nodes (0 = disabled)")
		minNodes    = flag.Int("min-nodes", 0, "coordinator: floor of ready nodes the idle-drain rule preserves (0 = 1)")
		joinBacklog = flag.Int("join-backlog", 0, "coordinator: queue depth that fires a scale-up signal, once per backlog episode (0 = disabled)")
	)
	var injectRules []faults.Rule
	flag.Func("inject", "fault-injection rule \"<site>:<kind> [after=N] [count=N] [prob=F] [delay=DUR] [transient] [err=MSG]\" (repeatable; chaos testing — same syntax as scenario files)",
		func(s string) error {
			rules, err := faults.ParseRules(s)
			if err != nil {
				return err
			}
			injectRules = append(injectRules, rules...)
			return nil
		})
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pdpad: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *base < 1 || *max < 0 || *queueLimit < 1 || *warmup < 0 || *deadline < 0 || *drainTimeout <= 0 ||
		*runTimeout < 0 || *maxRetries < 0 || *maxQueue < 0 || *heartbeat <= 0 || *unhealthy < 0 || *deadAfter < 0 || *maxRequeues < 0 ||
		*drainIdle < 0 || *minNodes < 0 || *joinBacklog < 0 {
		fmt.Fprintln(os.Stderr, "pdpad: flag values must be positive")
		os.Exit(2)
	}
	if *coordinator && *nodeMode {
		fmt.Fprintln(os.Stderr, "pdpad: -coordinator and -node are mutually exclusive")
		os.Exit(2)
	}
	if *nodeMode && *join == "" {
		fmt.Fprintln(os.Stderr, "pdpad: -node requires -join <coordinator URL>")
		os.Exit(2)
	}
	if *join != "" && !*nodeMode {
		fmt.Fprintln(os.Stderr, "pdpad: -join requires -node")
		os.Exit(2)
	}
	if *max == 0 {
		*max = 2 * *base
	}

	var inj *faults.Injector
	if len(injectRules) > 0 {
		inj = faults.New(*injectSeed, injectRules...)
		log.Printf("pdpad: fault injection armed: %d rule(s), seed %d", len(injectRules), *injectSeed)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{SyncInterval: *storeSync})
		if err != nil {
			log.Fatalf("pdpad: open store %s: %v", *storeDir, err)
		}
		stats := st.Stats()
		log.Printf("pdpad: store %s: recovered %d record(s) (%d truncated tail(s), %d corrupt frame(s))",
			*storeDir, stats.RecoveredEntries, stats.TruncatedTails, stats.CorruptFrames)
	}

	// Every role runs the same lifecycle; only the backend differs — a
	// coordinator, or a pool (with an agent when it is a fleet node).
	var (
		handler http.Handler
		drain   func(context.Context) error
		stop    = func() {}
		role    string
	)
	if *coordinator {
		coord, err := fleet.NewCoordinator(fleet.Config{
			Placement: fleet.Placement(*placement),
			Health: fleet.HealthConfig{
				HeartbeatInterval: *heartbeat,
				UnhealthyAfter:    *unhealthy,
				DeadAfter:         *deadAfter,
			},
			MaxRequeues: *maxRequeues,
			Store:       st,
			Elastic: fleet.ElasticConfig{
				DrainIdleAfter:   *drainIdle,
				MinNodes:         *minNodes,
				JoinBacklogDepth: *joinBacklog,
			},
			Faults: inj,
			Logf:   log.Printf,
		})
		if err != nil {
			log.Fatalf("pdpad: %v", err)
		}
		handler, drain, stop = coord, coord.Drain, coord.Close
		role = fmt.Sprintf("coordinator (placement %s, heartbeat %v)", *placement, *heartbeat)
	} else {
		pool := runqueue.New(runqueue.Config{
			BaseWorkers:     *base,
			MaxWorkers:      *max,
			Warmup:          *warmup,
			QueueLimit:      *queueLimit,
			DefaultDeadline: *deadline,
			TraceLimit:      *traceLimit,
			RunTimeout:      *runTimeout,
			MaxRetries:      *maxRetries,
			ShedDepth:       *maxQueue,
			Faults:          inj,
			Store:           st,
		})
		serverOpts := []server.Option{server.WithFaults(inj)}
		if *nodeMode {
			serverOpts = append(serverOpts, server.WithRole(server.RoleNode))
			agent := fleet.StartAgent(fleet.AgentConfig{
				Coordinator: strings.TrimRight(*join, "/"),
				Advertise:   deriveAdvertise(*advertise, *addr),
				Name:        *nodeName,
				CPUs:        *base, // capacity hint: the pool's admission floor
				BaseWorkers: *base,
				MaxWorkers:  *max,
				Faults:      inj,
				Logf:        log.Printf,
			}, pool)
			stop = agent.Stop
			log.Printf("pdpad: joining fleet at %s as %s", *join, deriveAdvertise(*advertise, *addr))
		}
		handler, drain = server.New(pool, serverOpts...), pool.Drain
		role = fmt.Sprintf("pool (base %d, max %d, warmup %v)", *base, *max, *warmup)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("pdpad: serving on %s as %s", *addr, role)

	select {
	case err := <-serveErr:
		log.Fatalf("pdpad: serve: %v", err)
	case sig := <-sigs:
		log.Printf("pdpad: %v: draining (accepted runs complete; again to force)", sig)
	}

	// Drain before stopping the role's background work: a node's agent keeps
	// heartbeating while its pool drains, and the pool's draining flag rides
	// the heartbeats, so the coordinator stops placing there first.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigs
		log.Print("pdpad: second signal: cutting the drain short")
		cancel()
	}()
	if err := drain(drainCtx); err != nil {
		log.Printf("pdpad: drain cut short: %v", err)
	}
	cancel()
	stop()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pdpad: http shutdown: %v", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("pdpad: store close: %v", err)
		}
	}
	log.Print("pdpad: bye")
}

// deriveAdvertise fills a missing -advertise from the listen address: a
// bare ":8081" becomes a loopback URL, a host:port gets the scheme.
func deriveAdvertise(advertise, addr string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}
