#!/usr/bin/env bash
# Removed-API gate. The v1 cleanup deleted the deprecated facade symbols —
# Run and RunSWF (use RunContext/RunSWFContext) and SweepSpec.Progress /
# SweepProgress (use SweepSpec.Observer). The run queue's lifecycle events
# later went down to one path, each run's event chain read by
# Pool.FollowRun, deleting runqueue.Event, Pool.Subscribe, Pool.Done and the
# Config fields Observer, ObserverBuffer and EventBuffer. Store compaction
# went from fixed journal sizes to the run ledger's dead/live byte counts,
# deleting the compaction bounds and Stats.Snapshots. The coordinator's
# refresh-on-read gave way to run watchers on the nodes' event streams,
# deleting refresh, crun.lastView and both 20 ms poll loops. The pool's
# second result cache gave way to the run ledger's history, deleting
# cacheLRU with its three helpers, LedgerConfig.Forget, the coordinator's
# deadEnd, pdpad's -cache flag and the scenario pool's cache_size. Every
# pdpad stack went to one assembly, fleet.StartDaemon, deleting the
# scenario's listenAt and the fleet tests' serveAt. The options audit
# removed the second queue bound (ShedDepth, -max-queue, shed_depth and the
# queue_full code), the default deadline (DefaultDeadline, -deadline), the
# consumerless scale-up signal (JoinBacklogDepth, scaleUpLocked,
# -join-backlog, join_backlog and its series) and the scenario key
# retry_backoff. The simulator's per-regime caches in system.System gave way
# to one table of managers, deleting the pdpa/equip/equalEff/dynamic/space/
# irix fields, the spaceManager helper and the gang manager's job map. The
# simulator has one assembly, system.System, so the second one that wired
# its own engines, machines and managers for clusters of SMPs went with its
# command and example (internal/cluster, cmd/clustersim,
# examples/clustersched). The simulator's options audit turned the model
# parameters no caller set into constants and deleted the cost accounting
# that only fed a zero cost. This check keeps them all deleted:
# no definition may reintroduce them, and no new `Deprecated:` marker may
# accumulate without a removal plan recorded here.
#
# staticcheck would flag reintroductions through SA1019, but the repo is
# stdlib-only; this grep is the dependency-free equivalent, run by CI next
# to go vet.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# The facade lives in the repo root (package pdpasim); internal packages
# may name things Run freely.
hits=$(grep -n -E '^func Run(SWF)?\(' ./*.go || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed facade symbols Run/RunSWF reintroduced (keep RunContext/RunSWFContext):" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(grep -rn --include='*.go' -E 'Progress func\(SweepProgress\)|type SweepProgress ' . || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed SweepSpec.Progress/SweepProgress reintroduced (keep SweepSpec.Observer):" >&2
    echo "$hits" >&2
    fail=1
fi

rq=internal/runqueue
hits=$({
    grep -n -E '^type Event\b|^func \([a-z]+ \*Pool\) (Subscribe|Done)\(' "$rq"/*.go
    grep -n -E '^\s+(Observer|ObserverBuffer|EventBuffer)\s+[^:[:space:]]' \
        $(ls "$rq"/*.go | grep -v '_test\.go$')
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed run-queue event paths reintroduced (keep Pool.FollowRun over each run's event chain):" >&2
    echo "$hits" >&2
    fail=1
fi

# Store compaction is decided by the run ledger from the dead and live
# record bytes it counts (runqueue/ledger.go): no byte-count compaction
# bound (the pool's storeCompactBytes, the coordinator's constant of that
# name, LedgerConfig.CompactBytes) may come back, nor Stats.Snapshots,
# which always equalled Stats.Compactions.
hits=$({
    grep -rn --include='*.go' -E '\bstoreCompactBytes\b' internal
    grep -rn --include='*.go' -E '^\s+CompactBytes\s+[^:[:space:]]' internal
    grep -n -E '^\s+Snapshots\s+[^:[:space:]]' internal/store/*.go
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed compaction bounds reintroduced (compaction follows the ledger's dead/live bytes):" >&2
    echo "$hits" >&2
    fail=1
fi

# The coordinator learns that a run finished from its watcher on the
# node's event stream (internal/fleet/coordinator.go), never by reading:
# no refresh-on-read, no cached node view beside the final one, and no
# 20 ms poll loop may come back.
co=internal/fleet/coordinator.go
hits=$(grep -n -E 'func \(c \*Coordinator\) refresh\(|^\s+lastView\s|time\.After\(20 \* time\.Millisecond\)' "$co" || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: coordinator refresh-on-read or its poll loops reintroduced (run watchers settle runs):" >&2
    echo "$hits" >&2
    fail=1
fi

# The run ledger alone decides which run answers a spec key
# (runqueue/ledger.go), and its history is the only result cache: no
# second LRU beside it, no per-backend key filter, no cache-size option.
hits=$({
    grep -rn --include='*.go' -E '\bcacheLRU\b|\b(insert|touch|drop)CacheLocked\b|\bdeadEnd\b' internal cmd
    grep -n -E '^\s+Forget\s+func\(' internal/runqueue/ledger.go
    grep -n -E 'flag\.[A-Za-z]+\("cache"' cmd/pdpad/main.go
    grep -n -E '^\s+CacheSize\s+[^:[:space:]]' internal/scenario/*.go
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: second result cache or its options reintroduced (the run ledger's history answers repeats):" >&2
    echo "$hits" >&2
    fail=1
fi

# Every pdpad stack is assembled in one place, fleet.StartDaemon
# (internal/fleet/daemon.go), with one Kill and one Restart: pdpad and the
# scenario runner must not build a pool, coordinator, agent or store by hand,
# and the hand-rolled rebind helpers listenAt and serveAt must not come back.
hits=$({
    grep -n -E '\b(runqueue\.New|fleet\.NewCoordinator|fleet\.StartAgent|store\.Open)\(' \
        $(ls cmd/pdpad/*.go internal/scenario/*.go | grep -v '_test\.go$')
    grep -rn --include='*.go' -E '\b(listenAt|serveAt)\b' internal cmd
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: daemon wiring forked from fleet.StartDaemon (build, kill and restart stacks through the one assembly):" >&2
    echo "$hits" >&2
    fail=1
fi

# Every option earns its place: one queue bound, QueueLimit, sheds with a
# Retry-After (429 overloaded); a run's total deadline comes only from its
# request; and no scale-up signal fires until a launcher consumes it. None
# of the removed options, codes or series may come back.
hits=$({
    grep -rn --include='*.go' -E '\b(ShedDepth|DefaultDeadline|JoinBacklogDepth|CodeQueueFull|scaleUpLocked)\b' internal cmd client
    grep -n -E '"(max-queue|deadline|join-backlog)",' $(ls cmd/pdpad/*.go | grep -v '_test\.go$')
    grep -n -E 'json:"(shed_depth|join_backlog|retry_backoff)"' internal/scenario/*.go
    grep -rn -E 'pdpad_fleet_scale_up_signals_total' internal cmd scenarios
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed option reintroduced (one queue bound that sheds, request deadlines only, no scale-up signal without a consumer):" >&2
    echo "$hits" >&2
    fail=1
fi

# Every simulator component has one initializer, its Reset, and
# system.System recycles all seven regimes through one table of managers
# (internal/system/system.go). No System field may hold a concrete policy
# or manager again (the per-regime pdpa, equip, equalEff, dynamic, space and
# irix caches), the spaceManager helper must not come back, and the gang
# manager keeps its running set in the id-sorted slice, not a job map.
hits=$({
    grep -n -E '^\s+[a-z][A-Za-z]*\s+(map\[PolicyKind\])?\*(core|policy|rm)\.[A-Za-z]+\s*(//.*)?$' internal/system/system.go
    grep -rn --include='*.go' -E '\bspaceManager\(' internal/system
    grep -n -E 'map\[sched\.JobID\]' internal/rm/gang.go
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: per-regime System cache or gang job map reintroduced (one manager table, reset every run; id-sorted running sets):" >&2
    echo "$hits" >&2
    fail=1
fi

# One simulator assembly: system.System is the only place an engine,
# machine, recorder, manager and policy are wired together for a run. The
# cluster-of-SMPs simulator, its command and its example must not come back.
hits=$({
    for d in internal/cluster cmd/clustersim examples/clustersched; do
        [[ -e "$d" ]] && echo "$d"
    done
    grep -rn --include='*.go' -E '"pdpasim/internal/cluster"' .
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: second simulator assembly reintroduced (build every simulated run through system.System):" >&2
    echo "$hits" >&2
    fail=1
fi

# Every simulator option earns its place: the model parameters no caller
# set are constants of the one testbed the paper evaluates (rm's IRIX
# quantum, busy-wait factor and OMP_DYNAMIC cadence and the gang slot;
# system's page-placement model; workload's burst shape), and the
# migration and gang-switch costs, which were never charged, went with the
# per-quantum migration counters and RepeatQuantum that only fed them. The
# SJF queue order and the sweep's per-run Tweak hook had no caller either.
# None of them may come back as a type, field, function or method.
hits=$({
    grep -rn --include='*.go' -E '\b(IRIXConfig|GangConfig|MemoryConfig|QueueOrder|SJFByWork|SetOrder|QuantumMigrations|RepeatQuantum|BurstFraction|MeanBurst)\b' internal
    grep -rn --include='*.go' -E '^\s+Tweak\s+[^:[:space:]]' internal
} || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: removed simulator option reintroduced (the evaluation's testbed parameters are constants; charging migration or switch costs waits for an oracle):" >&2
    echo "$hits" >&2
    fail=1
fi

# Match only real deprecation markers (a doc-comment line starting with
# "// Deprecated:"), not prose that merely mentions the convention. The
# registered ones, each with its removal plan:
#   - runqueue.Config.CacheSize (ignored; cmd/pdpabench still sets it):
#     delete with the benchmark change that drops poolCache.
registered='^internal/runqueue/runqueue\.go:[0-9]+:\s*// Deprecated: the run history is the only result cache'
hits=$(grep -rn --include='*.go' -E '^\s*// Deprecated:' . | sed 's#^\./##' | grep -v -E "$registered" || true)
if [[ -n "$hits" ]]; then
    echo "depcheck: new Deprecated: markers — remove the symbol or register its removal plan here:" >&2
    echo "$hits" >&2
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "depcheck: removed APIs stayed removed, no stray deprecation markers"
