# Developer entry points.  PYTHONPATH=src is the only wiring the
# offline environment needs (no editable install available).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)
export PYTHONPATH

.PHONY: test test-fast lint check bench-kernel bench-json bench-paper \
	bench-e2e bench-e2e-selftest golden-regen

# Tier-1 verify: the full suite, fail-fast.
test:
	python -m pytest -x -q

# Quick loop: skips the slow example sweeps (~seconds instead of ~a minute).
test-fast:
	python -m pytest -x -q -m "not slow"

# Compile check everywhere + pyflakes when available + API-surface
# freeze + the determinism checks (tools/lint.py).
lint:
	python tools/lint.py

# Determinism static analysis (tools/checks/): the det-* rules (hash,
# id, set order, wall clock, environment) and pragma hygiene.  Task
# stages pass data as Python locals, which pyflakes checks in
# `make lint`.  Zero unbaselined findings required;
# writes CHECK_findings.json (archived by CI).  Rule catalog:
# `python -m tools.checks --list-rules`; docs/determinism.md explains
# the contract and the pragma/baseline workflow.
check:
	python -m tools.checks --json CHECK_findings.json

# Dict vs flat-array kernel on the peeling + traversal hot paths
# (asserts >= 2x at n >= 2000), session reuse (>= 1.5x warm prep),
# the csr peel's work-list vs the full-scan peel (>= 1.5x on wave
# cascades at n >= 50k, the two timed in alternation), the
# scatter-dedup BFS vs the sort-dedup BFS (>= 1.5x on dense-frontier
# workloads at n >= 50k), the stacked csr depth_cut vs the per-class
# rooting sweep (>= 1.3x at n >= 50k, cuts identical), the witness
# k-orientation vs the reference
# Dinic (>= 5x at t, >= 2x at alpha*, witnesses identical), the delta
# engine vs full recompute, and
# the out-of-core leg (a 10^7-edge memmap ingest + decompose in a
# fresh subprocess, peak RSS <= ~2x the on-disk snapshot);
# writes benchmarks/results/BENCH_*.json (incl. BENCH_passes,
# BENCH_ooc).
bench-kernel:
	python benchmarks/bench_kernel.py

# Timing-snapshot mode: same benches and JSON artifacts, no hard
# speedup asserts — what the CI perf-smoke job runs on shared runners.
bench-json:
	BENCH_SNAPSHOT=1 python benchmarks/bench_kernel.py

# The 18 paper-reproduction benches (every benchmarks/bench_*.py but
# bench_kernel.py), each run once with benchmark=None: no
# pytest-benchmark needed.  Each asserts its claim's shape and archives
# its table under benchmarks/results/.
bench-paper:
	python benchmarks/run_paper.py

# End-to-end benchmark (BENCHMARK.json, perfbench/README.md): one
# untraced 15 s run of each workload, seed 1, one JSON result per run.
# Per-layer numbers: rerun a workload with --trace 1.  Seed 9001 is
# held out for confirming a gain.
BENCH_E2E_WORKLOADS := forest_pa orient_pa star_known delta_stream

bench-e2e:
	for w in $(BENCH_E2E_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 15 --trace 0 || exit 1; \
	done

# The end-to-end harness's own self-tests (outside testpaths = tests).
bench-e2e-selftest:
	python3 -m pytest perfbench -q

# Re-freeze tests/golden/*.json after an intentional output change.
golden-regen:
	python -m pytest tests/test_golden_regression.py --regen -q
