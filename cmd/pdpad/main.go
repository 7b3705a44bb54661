// Command pdpad is the simulation-as-a-service daemon: a long-running HTTP
// server that accepts WorkloadSpec+Options payloads, executes them on a
// bounded worker pool whose admission controller applies PDPA's coordinated
// multiprogramming-level rule to the service itself, dedupes identical specs
// through a canonical-config-hash index into its run history (a done run
// answers repeats for as long as the history holds it, so the history is the
// result cache and has the only bound), streams per-run progress as
// server-sent events, serves each done run's decision trace (derived on read
// by re-simulating its spec with tracing on), and exposes live Prometheus
// metrics.
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
// -drain-idle-after arms the elasticity hook that retires idle nodes, never
// below -min-nodes:
//
//	pdpad -coordinator -addr :8080 -store /var/lib/pdpad/coord \
//	      -drain-idle-after 5m -min-nodes 2
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
//
// main turns flags into a fleet.DaemonConfig and runs the signal loop:
// fleet.StartDaemon assembles every role, the scenario runner's and the
// fleet tests' too, whose kill -9 stand-in is the Daemon's Kill and Restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
)

func main() {
	cfg, drainTimeout, role, err := config(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdpad: %v\n", err)
		os.Exit(2)
	}
	d, err := fleet.StartDaemon(cfg)
	if err != nil {
		log.Fatalf("pdpad: %v", err)
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	log.Printf("pdpad: serving on %s as %s", cfg.Addr, role)
	log.Printf("pdpad: %v: draining (accepted runs complete; again to force)", <-sigs)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	go func() {
		<-sigs
		log.Print("pdpad: second signal: cutting the drain short")
		cancel()
	}()
	if err := d.Drain(drainCtx); err != nil {
		log.Printf("pdpad: drain cut short: %v", err)
	}
	cancel()
	if err := d.Close(); err != nil {
		log.Printf("pdpad: %v", err)
	}
	log.Print("pdpad: bye")
}

// config turns pdpad's command line into the daemon it runs, the drain
// timeout, and the role its start-up line names. Flags bind straight into
// the daemon's pool and coordinator configs; the role picks which is used.
func config(args []string) (cfg fleet.DaemonConfig, drainTimeout time.Duration, role string, err error) {
	fs := flag.NewFlagSet("pdpad", flag.ExitOnError)
	pool, coord := &cfg.Pool, &fleet.Config{}
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&pool.BaseWorkers, "base", 4, "base worker concurrency: below it admission is unconditional (PDPA's base MPL)")
	fs.IntVar(&pool.MaxWorkers, "max", 0, "max concurrent simulations, at least -base (0 = 2×base)")
	fs.DurationVar(&pool.Warmup, "warmup", 500*time.Millisecond, "how long a new run is considered settling; above base, admission waits for a stable running set")
	fs.IntVar(&pool.QueueLimit, "queue", 256, "maximum queued runs; a submission finding the queue full is shed with 429 + Retry-After")
	fs.DurationVar(&drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for runs to finish before cancelling them")
	fs.IntVar(&pool.TraceLimit, "trace-limit", 2000, "decision-trace events served per done run at /v1/runs/{id}/trace, derived on read by re-simulating its spec (negative disables the endpoint)")
	fs.DurationVar(&pool.RunTimeout, "run-timeout", 0, "per-attempt wall-clock limit for a simulation; exceeded runs fail with a timeout error (0 = none)")
	fs.IntVar(&pool.MaxRetries, "max-retries", 0, "retries for transiently failed runs, with exponential backoff (0 = none)")
	injectSeed := fs.Int64("inject-seed", 1, "seed for probabilistic -inject rules")
	fs.StringVar(&cfg.StoreDir, "store", "", "directory for the durable run store; completed runs survive restarts (empty = in-memory only)")
	fs.DurationVar(&cfg.StoreSync, "store-sync", 50*time.Millisecond, "fsync batching interval for the run store (negative = fsync every append)")

	coordinator := fs.Bool("coordinator", false, "run as a fleet coordinator: admission and routing only, no local simulations")
	nodeMode := fs.Bool("node", false, "run as a fleet node: an ordinary daemon that joins a coordinator")
	fs.StringVar(&cfg.Join, "join", "", "coordinator base URL to join (requires -node)")
	advertise := fs.String("advertise", "", "base URL the coordinator should reach this node at (default derived from -addr)")
	fs.StringVar(&cfg.Name, "node-name", "", "human label for this node in the coordinator's node list")
	fs.StringVar((*string)(&coord.Placement), "placement", "round_robin", "coordinator placement strategy: round_robin, least_loaded, or lpt")
	h, el := &coord.Health, &coord.Elastic
	fs.DurationVar(&h.HeartbeatInterval, "heartbeat", 2*time.Second, "coordinator-directed node heartbeat interval")
	fs.DurationVar(&h.UnhealthyAfter, "unhealthy-after", 0, "heartbeat silence before a node stops receiving placements (0 = 3×heartbeat)")
	fs.DurationVar(&h.DeadAfter, "dead-after", 0, "heartbeat silence before a node is drained and its runs requeued (0 = 2×unhealthy-after)")
	fs.IntVar(&coord.MaxRequeues, "max-requeues", 3, "re-placements one run may survive after node deaths before failing")
	fs.DurationVar(&el.DrainIdleAfter, "drain-idle-after", 0, "coordinator: scale-drain a node idle this long, never below -min-nodes (0 = disabled)")
	fs.IntVar(&el.MinNodes, "min-nodes", 0, "coordinator: floor of ready nodes the idle-drain rule preserves (0 = 1)")
	var injectRules []faults.Rule
	fs.Func("inject", "fault-injection rule \"<site>:<kind> [after=N] [count=N] [prob=F] [delay=DUR] [transient] [err=MSG]\" (repeatable; chaos testing — same syntax as scenario files)",
		func(s string) error {
			rules, err := faults.ParseRules(s)
			injectRules = append(injectRules, rules...)
			return err
		})
	fs.Parse(args)
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case pool.BaseWorkers < 1 || pool.MaxWorkers < 0 || pool.QueueLimit < 1 || pool.Warmup < 0 || drainTimeout <= 0 ||
		pool.RunTimeout < 0 || pool.MaxRetries < 0 || h.HeartbeatInterval <= 0 || h.UnhealthyAfter < 0 || h.DeadAfter < 0 ||
		coord.MaxRequeues < 0 || el.DrainIdleAfter < 0 || el.MinNodes < 0:
		err = errors.New("flag values must be positive")
	case pool.MaxWorkers != 0 && pool.MaxWorkers < pool.BaseWorkers:
		err = errors.New("-max must not be below -base")
	case *coordinator && *nodeMode:
		err = errors.New("-coordinator and -node are mutually exclusive")
	case *nodeMode && cfg.Join == "":
		err = errors.New("-node requires -join <coordinator URL>")
	case cfg.Join != "" && !*nodeMode:
		err = errors.New("-join requires -node")
	}
	if err != nil {
		return cfg, 0, "", err
	}
	if pool.MaxWorkers == 0 {
		pool.MaxWorkers = 2 * pool.BaseWorkers
	}
	if len(injectRules) > 0 {
		pool.Faults = faults.New(*injectSeed, injectRules...)
		coord.Faults = pool.Faults
		log.Printf("pdpad: fault injection armed: %d rule(s), seed %d", len(injectRules), *injectSeed)
	}
	cfg.Logf = log.Printf
	if *coordinator {
		cfg.Coordinator = coord
		return cfg, drainTimeout, fmt.Sprintf("coordinator (placement %s, heartbeat %v)", coord.Placement, h.HeartbeatInterval), nil
	}
	if *nodeMode {
		cfg.Join, cfg.Advertise = strings.TrimRight(cfg.Join, "/"), deriveAdvertise(*advertise, cfg.Addr)
	}
	return cfg, drainTimeout, fmt.Sprintf("pool (base %d, max %d, warmup %v)", pool.BaseWorkers, pool.MaxWorkers, pool.Warmup), nil
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
