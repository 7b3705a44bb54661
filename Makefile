# Convenience targets; everything is plain go tooling underneath.

.PHONY: build test vet fmt-check depcheck bench bench-gate bench-throughput bench-smoke scenario-smoke loadtest-smoke fleet-smoke fuzz-smoke

build:
	go build ./...

vet:
	go vet ./...

# Fail when any Go file is not gofmt-formatted (lists the offenders).
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Keep removed APIs removed: scripts/deadapi fails on an exported internal/
# identifier that only tests reference and scripts/deadapi/allow.txt does
# not list, and greps reject reintroduced removals and stray Deprecated:
# markers.
depcheck:
	./scripts/depcheck.sh

test:
	go test -shuffle=on ./...

# Run the bundled scenario library twice at each of two seeds (1, and the 7
# the README example uses) and require each pair of JSON reports to match
# byte for byte — the determinism contract of the scenario runner (same check
# TestBundledScenarioLibrary applies in-process).
scenario-smoke:
	go run ./cmd/scenario run -json -seed 1 -o /tmp/scenario-report-a.json scenarios/*.yaml
	go run ./cmd/scenario run -json -seed 1 -o /tmp/scenario-report-b.json scenarios/*.yaml
	cmp /tmp/scenario-report-a.json /tmp/scenario-report-b.json
	go run ./cmd/scenario run -json -seed 7 -o /tmp/scenario-report-a.json scenarios/*.yaml
	go run ./cmd/scenario run -json -seed 7 -o /tmp/scenario-report-b.json scenarios/*.yaml
	cmp /tmp/scenario-report-a.json /tmp/scenario-report-b.json
	@echo "scenario reports byte-identical across replays at seeds 1 and 7"

# Run every fuzz target as a fuzzer for 10 s each, not just over its seed
# corpus: the parsers' "never panic, always a typed error" contracts (the
# scenario DSL's now rests on reflection) get fresh inputs. A crasher is
# written under the package's testdata/fuzz/ for replay.
fuzz-smoke:
	go test ./internal/scenario -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime 10s
	go test ./internal/server -run '^$$' -fuzz '^FuzzSubmitDecode$$' -fuzztime 10s
	go test ./internal/fleet -run '^$$' -fuzz '^FuzzRecoverState$$' -fuzztime 10s
	go test ./internal/store -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 10s
	go test ./internal/workload -run '^$$' -fuzz '^FuzzParseSWF$$' -fuzztime 10s
	go test ./internal/periodicity -run '^$$' -fuzz '^FuzzDetector$$' -fuzztime 10s

# End-to-end durability + sustained-load smoke against a real pdpad process:
# kill -9 recovery with byte-identical run bodies, a pdpaload soak that must
# observe 429 shedding with coherent retry hints, and a clean SIGTERM drain.
# Knobs: LOADTEST_PORT, LOADTEST_DURATION, LOADTEST_WORKERS.
loadtest-smoke:
	./scripts/loadtest.sh

# End-to-end fleet smoke: coordinator + two node daemons + a standalone
# oracle. A sharded sweep must be byte-identical to the standalone run —
# including after kill -9 of a node mid-sweep — goroutine counts must settle
# back to baseline, and SIGTERM must drain everything cleanly.
# Knobs: FLEETSMOKE_PORT_BASE.
fleet-smoke:
	./scripts/fleetsmoke.sh

# Run the gated benchmark suite with -benchmem, capture pprof profiles into
# bench-artifacts/, and record a BENCH_<date>.json trajectory point.
# Knobs: BENCH_COUNT, BENCH_TIME, BENCH_PHASE, BENCH_JSON (see scripts/bench.sh).
bench:
	./scripts/bench.sh

# One pass of the million-job sweep (BenchmarkSweepManyJobs): a w1 trace
# spanning an 8.4M-second window under PDPA in coarse throughput mode. The
# benchmark fails itself if fewer than a million jobs complete, so this is
# both a scaling demo and a correctness smoke for Options.Throughput.
bench-throughput:
	go test -run '^$$' -bench SweepManyJobs -benchtime 1x -benchmem .

# Vet and test cmd/pdpabench, the end-to-end benchmark. It is a module of its
# own, so the root module's go build ./... and go test ./... never see it
# break when the server, fleet, or runqueue APIs it calls change.
bench-smoke:
	cd cmd/pdpabench && go vet . && go test .

# Compare a fresh run against the committed trajectory points: each gated
# benchmark against the newest point that records it. Fails on significant
# regression (loose on ns/op, tight on allocs/op and B/op), and when a gated
# benchmark is in no committed point. The fresh run records into
# bench-artifacts/, so it never lands among the points it is compared with.
bench-gate:
	BENCH_JSON=bench-artifacts/BENCH_gate.json ./scripts/bench.sh
	go run ./cmd/benchgate compare -baseline 'BENCH_*.json' \
		bench-artifacts/bench.txt
