# Convenience targets; everything is plain dune underneath.
all:
	dune build

test:
	dune runtest

# The whole suite under a 4-domain pool and again forced sequential:
# the parallel oracles must hold in both regimes.
test-par:
	CTS_DOMAINS=4 dune runtest --force
	CTS_DOMAINS=1 dune runtest --force

# Time and minor words per run of the allocation-gated kernels.
bench:
	dune exec bench/main.exe -- kernels

# Every paper table and figure, at full scale (the default --scale).
bench-full:
	dune exec bin/cts_run.exe -- experiments

# Sequential-vs-parallel wall-clock comparison; writes BENCH_parallel.json.
bench-par:
	dune exec bench/main.exe -- parallel

# CI smoke: the quick parallel benchmark plus an explicit check that the
# 1-domain and 4-domain runs produced identical results (the benchmark
# itself exits non-zero on a violation; the grep keeps the contract
# visible even if someone relaxes that), then the hot-kernel allocation
# gate — the span-table, wire, class and eval3 lookups must stay at their
# boxed-result floor and the DP probe under its budget (the bench exits
# 1 on a budget breach). CI uploads BENCH_parallel.json.
bench-smoke: bench-par
	@if ! grep -q '"identical": true' BENCH_parallel.json \
	  || grep -q '"identical": false' BENCH_parallel.json; then \
	  echo "bench-smoke: parallel run not identical to sequential"; exit 1; fi
	@echo "bench-smoke: BENCH_parallel.json OK (identical=true)"
	dune exec bench/main.exe -- alloc-gate

# The experiment runner: one cheap experiment end to end, and an
# unknown experiment id must fail before any work.
experiments-smoke:
	dune exec bin/cts_run.exe -- experiments --profile fast fig3.4
	@if dune exec bin/cts_run.exe -- experiments tab9.9 2>/dev/null; then \
	  echo "experiments-smoke: unknown experiment id accepted"; exit 1; fi
	@echo "experiments-smoke: unknown experiment id rejected"

# CLI smoke: a synthesis whose verification simulation cannot settle
# (one sink with a 0.01 F load) must exit 4, and the lint suite must
# pass when run from the repository root (test fixture paths resolve
# against the test binary, not the working directory).
cli-smoke:
	dune build bin/cts_run.exe test/test_all.exe
	@dune exec --no-build bin/cts_run.exe -- synth \
	  --file test/fixtures/cli/huge_cap.gsrc --profile fast \
	  --cache .cache/delaylib_fast.txt; code=$$?; \
	if [ $$code -ne 4 ]; then \
	  echo "cli-smoke: unsettled synthesis exited $$code, want 4"; exit 1; fi
	dune exec --no-build test/test_all.exe -- test lint
	@echo "cli-smoke: unsettled synthesis exits 4; lint suite passes from the root"

# Ladder smoke: one rep each of the H-correction, optimal-DP and
# full-scale r4 rungs from sink set to signoff (accurate
# characterization, synthesis, verification and transient simulation
# with its slew check; see ladder/README.md). Fails unless the ladder's
# last line, its JSON summary, reports "failed": 0.
ladder-smoke:
	@out=$$(dune exec ladder/main.exe -- --workload hcorrect-r3-0.5 \
	  --workload dp-r1-0.3 --workload gsrc-r4 --reps 1) \
	  || { echo "$$out"; echo "ladder-smoke: ladder exited non-zero"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"failed": 0' \
	  || { echo 'ladder-smoke: last line does not report "failed": 0'; exit 1; }

# Regression gate: synthesize the canonical fast-profile benchmark (the
# r1 @ 0.05 instance trace-smoke uses) once per insertion engine, write
# each run record (QoR plus counters, gauges and histograms; no runtime
# section, so the files are byte-identical at any CTS_DOMAINS) and
# compare it against its committed baseline. Exit 6 = a gated metric
# regressed beyond its threshold.
qor-gate:
	dune exec bin/cts_run.exe -- qor --bench r1 --scale 0.05 --profile fast \
	  --cache .cache/delaylib_fast.txt -o BENCH_qor.json
	dune exec bin/cts_run.exe -- qor --bench r1 --scale 0.05 --profile fast \
	  --cache .cache/delaylib_fast.txt --insertion dp -o BENCH_qor_dp.json
	dune exec bin/cts_run.exe -- compare \
	  bench/baselines/BENCH_qor_fast.json BENCH_qor.json
	dune exec bin/cts_run.exe -- compare \
	  bench/baselines/BENCH_qor_dp.json BENCH_qor_dp.json

# Refresh both committed baselines after an intentional change (one
# that moves QoR or counters); the diff documents it in review.
qor-baseline:
	dune exec bin/cts_run.exe -- qor --bench r1 --scale 0.05 --profile fast \
	  --cache .cache/delaylib_fast.txt -o bench/baselines/BENCH_qor_fast.json
	dune exec bin/cts_run.exe -- qor --bench r1 --scale 0.05 --profile fast \
	  --cache .cache/delaylib_fast.txt --insertion dp \
	  -o bench/baselines/BENCH_qor_dp.json

# One lint run over lib/ and bin/: determinism / domain-safety rules
# (L1-L5), the physical-units checker (U1-U4), the concurrency-effect
# race analyzer (C1-C5) and the exception-flow / resource-safety
# analyzer (E1-E5), over one parse of the sources (DESIGN.md 5r). It
# writes the machine-readable report CI uploads as an artifact. This
# one target is the local pre-commit story.
lint:
	dune build bin/cts_lint.exe
	dune exec --no-build bin/cts_lint.exe -- --json lint_report.json lib bin

# Smoke-check the seeded lint fixtures: each must still trigger its
# rule, or the fixture (and the test pinned to it) has rotted.
lint-fixtures:
	dune build bin/cts_lint.exe
	@if dune exec --no-build bin/cts_lint.exe -- \
	  --json lint_fixtures.json test/fixtures/lint > /dev/null; then \
	  echo "lint-fixtures: expected diagnostics, got none"; exit 1; fi
	@for r in U1 U2 U3 U4; do \
	  grep -q "\"rule\": \"$$r\"" lint_fixtures.json \
	    || { echo "lint-fixtures: rule $$r did not fire"; exit 1; }; \
	done
	@if dune exec --no-build bin/cts_lint.exe -- \
	  --json race_fixtures.json test/fixtures/lint/race > /dev/null; then \
	  echo "lint-fixtures: expected race diagnostics, got none"; exit 1; fi
	@for r in C1 C2 C3 C4 C5; do \
	  grep -q "\"rule\": \"$$r\"" race_fixtures.json \
	    || { echo "lint-fixtures: rule $$r did not fire"; exit 1; }; \
	done
	@if dune exec --no-build bin/cts_lint.exe -- \
	  --json exc_fixtures.json test/fixtures/lint/exc > /dev/null; then \
	  echo "lint-fixtures: expected exc diagnostics, got none"; exit 1; fi
	@for r in E1 E2 E3 E4 E5; do \
	  grep -q "\"rule\": \"$$r\"" exc_fixtures.json \
	    || { echo "lint-fixtures: rule $$r did not fire"; exit 1; }; \
	done
	@echo "lint-fixtures: all seeded fixtures fire (U1-U4, C1-C5, E1-E5)"

# Observability smoke test: synthesize a small synthetic benchmark with
# --stats and --trace, then validate the emitted Chrome trace JSON
# (hierarchical span tree, flow events, counter/gauge events). Forced
# to 4 domains so pool-task spans and cross-domain flow events actually
# appear even on a single-CPU host.
trace-smoke:
	dune build bin/cts_run.exe
	CTS_DOMAINS=4 dune exec bin/cts_run.exe -- synth --bench r1 --scale 0.05 \
	  --profile fast --cache .cache/delaylib_fast.txt \
	  --stats --trace trace_smoke.json
	dune exec bin/cts_run.exe -- trace-check trace_smoke.json

examples:
	for e in quickstart soc_clock_domains benchmark_flow hstructure_study \
	         delay_model_tour tree_gallery; do \
	  echo "== $$e =="; dune exec examples/$$e.exe; done

# Generated files at the repository root: the lint report, bench
# outputs, fixture smoke reports, the cached characterization text and
# the smoke trace.
# Committed baselines under bench/baselines/ are untouched.
clean-artifacts:
	rm -f lint_report.json \
	  lint_fixtures.json race_fixtures.json exc_fixtures.json \
	  BENCH_*.json test_delaylib_fast.txt trace_smoke.json

clean: clean-artifacts
	dune clean

.PHONY: all test test-par bench bench-full bench-par bench-smoke \
        experiments-smoke cli-smoke ladder-smoke qor-gate qor-baseline lint lint-fixtures trace-smoke examples \
        clean clean-artifacts
