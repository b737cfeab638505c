.PHONY: all build test check clean repro quick sweep bench bench-service metrics fuzz profile perfgate perfgate-service fault-matrix

all: build

build:
	dune build

test:
	dune runtest

# CI entry point: full build + every test suite.
check:
	dune build
	dune runtest

# Worker-domain count for sharded targets (sweep, fault-matrix).
# Output is byte-identical at any value; JOBS=1 is the determinism control.
JOBS ?= 1

# Reproduce the paper's evaluation (quick preset).
quick:
	dune exec bin/repro.exe -- all --quick

repro:
	dune exec bin/repro.exe -- all

# Domain-sharded sweep of the full experiment matrix: one experiment per
# worker domain, reports merged in canonical order (byte-identical to
# sequential).  `make sweep JOBS=$(shell nproc)` on a multicore host.
sweep:
	dune exec bin/repro.exe -- sweep --quick -j $(JOBS)

# The repository's benchmark: host time and simulated results for every
# scheme on the list-1t, hash-4t and service workloads (perfbench/README.md).
bench:
	bash perfbench/run.sh --workload all

# Service-scenario SLA baseline (E14): the four-phase Zipfian store per
# scheme, with per-phase op p99 and peak unreclaimed embedded as a
# "phases" array — what perfgate's phase_p99 / phase_unreclaimed
# dimensions gate against.  `dune runtest` regenerates and diffs it too.
bench-service:
	dune exec bench/main.exe -- --service --out BENCH_SERVICE.json

# Machine-readable metrics baseline: a small E1-style sweep with the full
# metrics snapshot and cycle-attribution profile per run.  CI archives the
# JSON as an artifact; it is also the committed perf-regression baseline,
# which `dune runtest` regenerates and diffs (`dune promote` refreshes it).
metrics:
	dune exec bench/main.exe -- --profile --out BENCH_E1.json

# Cycle-attribution profile of a fixed-seed E1-style run: span breakdown,
# per-op latency percentiles and contention hot spots on stdout, plus
# profile.json (rerun later with `repro profile --diff profile.json`) and
# profile.folded (flamegraph.pl / speedscope input).
profile:
	dune exec bin/repro.exe -- profile --out profile.json --folded profile.folded

# Perf-regression gate: rerun the profiled sweep and compare throughput and
# per-op p99 latency against the committed BENCH_E1.json baseline.  The
# relative leg additionally requires DEBRA's no-fault throughput to stay
# within the drop threshold of EBR's inside the fresh run itself.  The
# second invocation tracks IMR against OA-BIT warn-only: IMR's
# revoke-broadcast pricing is expected to trail OA-BIT on contended
# workloads, so the ratio is observability, never a failure.
perfgate:
	dune exec bench/main.exe -- --profile --out BENCH_E1.current.json
	dune exec bin/perfgate.exe -- BENCH_E1.json BENCH_E1.current.json \
	  --relative debra:ebr
	dune exec bin/perfgate.exe -- BENCH_E1.json BENCH_E1.current.json \
	  --warn-only --relative imr:oa-bit

# Phase-scoped SLA gate (nightly): rerun the service scenario and compare
# per-phase op p99 and peak unreclaimed against the committed
# BENCH_SERVICE.json.  Both dimensions are simulated and deterministic, so
# they gate hard.
perfgate-service:
	dune exec bench/main.exe -- --service --out BENCH_SERVICE.current.json
	dune exec bin/perfgate.exe -- BENCH_SERVICE.json BENCH_SERVICE.current.json

# Nightly fault matrix: E13 across every scheme x {no-fault, stall, crash}
# with the lifecycle sanitizer on; per-leg garbage curves land in
# fault-matrix/ as garbage_<scheme>_<fault>.json (CI uploads them).  The
# matrix legs shard across JOBS domains.
fault-matrix:
	mkdir -p fault-matrix
	dune exec bin/repro.exe -- run robustness --csv fault-matrix --sanitize \
	  -j $(JOBS)

# Nightly schedule fuzzing: random schedules through every scenario with the
# lifecycle sanitizer on; failing schedules are shrunk and written to
# fuzz-out/ as replayable JSON (`repro replay fuzz-out/FILE.json`).
# Override e.g. FUZZ_SECONDS=60 for a quick local run.  FUZZ_JOBS shards
# the fixed per-cell seed chunks across domains — findings are identical
# at any FUZZ_JOBS; only the wall-clock time-box makes runs non-identical.
FUZZ_SECONDS ?= 900
FUZZ_RUNS ?= 3000
FUZZ_JOBS ?= 1
fuzz:
	dune exec bin/repro.exe -- fuzz --seconds $(FUZZ_SECONDS) \
	  --max-runs $(FUZZ_RUNS) --out fuzz-out -j $(FUZZ_JOBS)

clean:
	dune clean
