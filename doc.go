// Package pdpasim is a full reproduction of "Performance-Driven Processor
// Allocation" (Corbalan, Martorell, Labarta; OSDI 2000): the PDPA
// coordinated scheduling policy, the NANOS execution environment it lives in
// (resource manager, queuing system, runtime library, SelfAnalyzer), the
// baseline policies it is evaluated against (native IRIX scheduling,
// Equipartition, Equal_efficiency), and the workloads and experiments of the
// paper's evaluation — all running on a deterministic discrete-event model
// of a 64-processor CC-NUMA machine.
//
// The package exposes a small façade over the internal packages:
//
//	spec := pdpasim.WorkloadSpec{Mix: "w3", Load: 1.0}
//	out, err := pdpasim.RunContext(ctx, spec, pdpasim.Options{Policy: pdpasim.PDPA})
//	fmt.Println(out.Summary())
//
// runs workload 3 (half bt.A, half apsi) at 100% machine demand under PDPA
// and reports per-class response and execution times, the multiprogramming
// level PDPA chose, and scheduling-stability statistics.
//
// Comparative studies — the paper's own methodology — are batch-first: Sweep
// runs a whole policy × mix × load × seed grid across a bounded worker pool,
// generating each workload trace once and replaying it read-only under every
// policy, then aggregates the seed replicates into per-cell mean, standard
// deviation, and 95% confidence intervals:
//
//	res, err := pdpasim.Sweep(ctx, pdpasim.SweepSpec{
//		Policies: pdpasim.Policies(),          // irix, equip, equal_eff, pdpa
//		Mixes:    []string{"w3"},
//		Loads:    []float64{0.6, 1.0},
//		Seeds:    []int64{1, 2, 3},
//	})
//	c := res.Cell(pdpasim.PDPA, "w3", 1.0)
//	fmt.Printf("makespan %.0fs ±%.0f\n", c.Makespan.Mean, c.Makespan.CI95)
//
// The grid result is deterministic — byte-identical at any SweepSpec.Workers
// setting — so cached and fresh sweeps are interchangeable. See
// examples/policycompare for a complete capacity-planning study built on one
// Sweep call.
//
// Long-lived callers amortize per-run construction with a Runner: one run's
// arenas — the event-heap backing, trace recorder, machine, queuing slabs,
// and per-job runtime state — are recycled into the next run instead of
// being rebuilt, cutting the steady-state run path to a handful of
// allocations. Reuse is contractually invisible: a reused Runner's outcome
// and decision trace are byte-for-byte what a fresh environment produces
// for the same spec (a regression suite interleaves policies, seeds, and
// machine sizes on one Runner to enforce this). A Runner is not safe for
// concurrent use; give each goroutine its own, as the sweep pool gives one
// to each worker.
//
// # Throughput mode
//
// Options.Throughput > 1 enables coarse throughput mode: up to that many
// undisturbed iterations of a running job are fused into a single engine
// event, so multi-month submission windows — millions of jobs — simulate in
// seconds per million jobs instead of minutes (BenchmarkSweepManyJobs
// drives one sweep cell through >1M jobs this way; `make bench-throughput`
// runs it once).
//
// What fusion drops is measurement granularity only: the SelfAnalyzer
// observes one measured iteration per fused span rather than every
// iteration, so measured efficiencies — and therefore PDPA's allocation
// decisions — can differ slightly from exact mode. Everything structural
// stays exact: fusion never crosses an iteration-space phase boundary,
// never spans a baseline measurement, and collapses immediately when the
// scheduler changes the job's allocation mid-span, so reallocation
// response is not delayed. Fused runs are fully deterministic per seed —
// byte-identical across repeats, worker counts, and fresh-versus-reused
// Runners — but are not byte-equal to exact mode; compare fused results
// only against fused results. The IRIX time-sharing model re-rates jobs
// every quantum, which would collapse every fusion, so it ignores the
// stride: IRIX results are byte-identical with or without Throughput set.
//
// The same switch is SweepSpec.Throughput for grids and `pdpasim
// -throughput N` on the command line (see EXPERIMENTS.md for a worked
// example and measured event reductions).
//
// Every table and figure of the paper can be regenerated through
// RunExperiment (or `go test -bench .` / cmd/experiments); see DESIGN.md for
// the per-experiment index and EXPERIMENTS.md for measured-versus-paper
// results.
//
// Runs and sweeps share one observability hook: an Observer receives the
// unified TraceEvent stream — a run's decision trace (every PDPA state
// transition with its measured efficiency, every admission decision with
// its reason, every reallocation) and a sweep's per-run completions are two
// adapters over the same schema. Set
// Options.DecisionTrace to retain a run's trace and read it back through
// Outcome.DecisionTrace; with no observer and no trace limit the hooks
// compile down to nil checks and the simulation allocates nothing extra
// (enforced by the benchmark gate). See the README's "Observability"
// section.
//
// # API migration
//
// The v1 cleanup removed the compatibility wrappers earlier revisions kept
// for narrower hooks. Code still using a removed symbol migrates
// mechanically:
//
//   - Run(spec, opts) was removed → call RunContext(ctx, spec, opts):
//     identical result bytes, plus mid-simulation cancellation when ctx
//     ends. context.Background() reproduces the old behavior exactly.
//   - RunSWF(r, opts) was removed → call RunSWFContext(ctx, r, opts): same
//     as above for SWF replay.
//   - SweepSpec.Progress and the SweepProgress type were removed → set
//     SweepSpec.Observer: it receives the identical completions as
//     "sweep_run" TraceEvents (the event ID is "policy/mix/load/seed";
//     State "cell_done" marks a cell's last replicate).
//
// scripts/depcheck.sh (run in CI) keeps the removed symbols removed and
// rejects new Deprecated: markers without a recorded removal plan. It also
// keeps the run queue to one lifecycle-event path (Pool.FollowRun):
// runqueue.Event, Pool.Subscribe, Pool.Done and the Config fields Observer,
// ObserverBuffer and EventBuffer stay deleted.
//
// In the same cleanup, the pdpad daemon's HTTP API settled its v1 error
// contract: every non-2xx response carries one envelope,
//
//	{"error": {"code": "...", "message": "...", "retry_after_seconds": N}}
//
// with a stable machine-readable code (internal/server documents the code
// set) and a retry hint mirrored in the Retry-After header exactly when
// retrying later can succeed. Clients that matched on the old flat
// {"error": "..."} body should read .error.code instead. The list
// endpoints (GET /v1/runs, GET /v1/sweeps) now paginate: pass limit= and
// follow next_cursor; state= filters by lifecycle state.
//
// Simulations can also be served as a service: cmd/pdpad is an HTTP daemon
// (see the README's quickstart) whose worker pool reuses PDPA's own
// admission rule, backed by internal/runqueue (PDPA-governed admission,
// canonical-config-hash result cache, singleflight dedup, per-run deadlines,
// per-run decision traces, graceful drain) and internal/server (JSON API,
// server-sent progress events, decision-trace endpoint, Prometheus metrics).
package pdpasim
