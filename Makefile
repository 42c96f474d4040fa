# Development targets. The test suite needs only numpy + pytest
# (pytest-benchmark and hypothesis for the full tier-1 run).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke e2e-smoke lint docs-check coverage examples serve-smoke

## Tier-1 suite: unit + integration tests and benchmarks.
test:
	$(PYTHON) -m pytest -x -q

## Test suite under coverage, with a floor on the engine-critical
## packages (needs `python -m pip install coverage`).
coverage:
	$(PYTHON) -m coverage run \
		--source=src/repro/nn,src/repro/gossip,src/repro/privacy,src/repro/metrics,src/repro/telemetry \
		-m pytest -x -q tests
	$(PYTHON) -m coverage report -m --fail-under=85

## Full benchmark harness (REPRO_BENCH_SCALE=tiny|small|paper).
## Refreshes BENCH_engine.json (per-executor engine throughput), then
## prints it against HEAD's (tools/bench_diff.py, report only).
bench:
	$(PYTHON) -m pytest benchmarks/ -q; \
	status=$$?; $(PYTHON) tools/bench_diff.py; exit $$status

## Fast benchmark smoke: the engine-throughput + campaign acceptance
## checks (also refreshes BENCH_engine.json), then the refreshed BENCH
## against HEAD's (tools/bench_diff.py, report only). A failed check
## still fails the target, after the report.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_engine_throughput.py \
		benchmarks/test_campaign_throughput.py -q; \
	status=$$?; $(PYTHON) tools/bench_diff.py; exit $$status

## End-to-end smoke: every workload of the benchmark (benchmarks/e2e)
## for a 3 s window — the three engine scenarios and the durable
## service mix, whose cancel -> resume round-trips a checkpoint; fails
## on any failed check.
E2E_SMOKE_WORKLOADS := samo-static-64 base-peerswap-dp-16 \
	samo-peerswap-v8-128 service-durable-mix
e2e-smoke:
	for w in $(E2E_SMOKE_WORKLOADS); do \
		$(PYTHON) benchmarks/e2e/run.py --workload $$w --seconds 3 || exit 1; \
	done

## Smoke-run every script in examples/ at tiny scale.
examples:
	$(PYTHON) tools/run_examples.py

## Boot the HTTP/SSE service on an ephemeral port, run a study through
## it end to end (stream, cache hit, clean shutdown).
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Static checks: byte-compile everything, then run the repo's own
## invariant checker (determinism / locks / lifecycle / purity rules —
## see docs/static-analysis.md). Stdlib-only, no third-party linter.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	$(PYTHON) -m tools.reprolint src tests benchmarks examples tools

## Documentation: fail on broken relative links in README.md / docs/*.md.
docs-check:
	$(PYTHON) tools/check_docs_links.py
