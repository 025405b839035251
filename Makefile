# Convenience targets for the Topics API reproduction.

PY ?= python3

.PHONY: install test lint validate report bench bench-small bench-smoke bench-obs bench-parallel bench-columnar bench-reid bench-service sweep-smoke serve-smoke ci study experiments examples clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# Ruff is optional locally (no network deps baked in); CI always runs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Reduced-scale benches for quick iteration.
bench-small:
	REPRO_BENCH_SITES=6000 $(PY) -m pytest benchmarks/ --benchmark-only

# Telemetry overhead trajectory: crawl throughput with telemetry off
# (the no-op default) and with the recorder and metrics on, side by side.
bench-obs:
	REPRO_BENCH_SITES=6000 $(PY) -m pytest benchmarks/bench_crawl_throughput.py --benchmark-only

# Execution-backend matrix: serial vs thread vs process at 1/2/4/8
# workers, with per-cell speedup over the sequential protocol.
bench-parallel:
	REPRO_BENCH_SITES=6000 $(PY) -m pytest benchmarks/bench_parallel_crawl.py --benchmark-only

# The columnar data plane's acceptance pair: crawl throughput and the
# backend matrix at the scale the PR baselines were measured
# (REPRO_BENCH_SITES=6000), recording visits/sec into the JSON artifact.
# The regression gate runs at the smoke scale (bench-smoke), where the
# committed baseline was measured.
bench-columnar:
	REPRO_BENCH_SITES=6000 $(PY) -m pytest \
		benchmarks/bench_crawl_throughput.py::test_crawl_throughput \
		benchmarks/bench_parallel_crawl.py \
		--benchmark-only \
		--benchmark-json=bench-columnar.json

# The population data plane's acceptance pair: study throughput and the
# scaling curve at the scale the PR baselines were measured
# (1,000 users), recording reid_users_per_second into the JSON artifact.
bench-reid:
	REPRO_BENCH_REID_USERS=1000 $(PY) -m pytest \
		benchmarks/bench_reidentification.py::test_reid_throughput \
		benchmarks/bench_reidentification.py::test_reid_scaling \
		--benchmark-only \
		--benchmark-json=bench-reid.json

# The crawl service's acceptance pair: streamed submit-to-done
# throughput vs the batch plane, plus submit-to-first-event latency,
# recording service_visits_per_second into the JSON artifact.
bench-service:
	REPRO_BENCH_SITES=6000 $(PY) -m pytest \
		benchmarks/bench_service.py \
		--benchmark-only \
		--benchmark-json=bench-service.json

# The reduced-scale benchmark job CI runs on every push: the bench run
# records visits/sec, reid users/sec, and service visits/sec into the
# JSON artifact, the gated benches run twice more, and the regression
# gate fails when the median of the three runs drops >30% below the
# committed baseline.
bench-smoke:
	REPRO_BENCH_SITES=2000 REPRO_BENCH_REID_USERS=500 \
	REPRO_BENCH_REID_SCALES=150,300 $(PY) -m pytest \
		benchmarks/bench_crawl_throughput.py \
		benchmarks/bench_parallel_crawl.py \
		benchmarks/bench_checkpoint.py \
		benchmarks/bench_archive_io.py \
		benchmarks/bench_reidentification.py::test_reid_throughput \
		benchmarks/bench_reidentification.py::test_reid_scaling \
		benchmarks/bench_service.py \
		--benchmark-only \
		--benchmark-json=bench-smoke.json
	for run in 2 3; do \
		REPRO_BENCH_SITES=2000 REPRO_BENCH_REID_USERS=500 $(PY) -m pytest \
			benchmarks/bench_crawl_throughput.py::test_crawl_throughput \
			benchmarks/bench_reidentification.py::test_reid_throughput \
			benchmarks/bench_service.py::test_service_throughput \
			--benchmark-only --benchmark-json=bench-smoke-$$run.json || exit 1; \
	done
	$(PY) scripts/check_bench_regression.py \
		bench-smoke.json bench-smoke-2.json bench-smoke-3.json

# Scenario sweep smoke: the CI gate's 2x2 matrix (consent vantage x
# allow-list corruption) on the process backend, audited, then rebuilt
# serially and diffed byte-for-byte (the same run CI's sweep job
# performs).
sweep-smoke:
	rm -rf sweep-smoke-process sweep-smoke-serial
	PYTHONPATH=src $(PY) -m repro sweep ci_smoke \
		--out sweep-smoke-process --backend process
	PYTHONPATH=src $(PY) -m repro validate sweep-smoke-process --sweep
	PYTHONPATH=src $(PY) -m repro sweep ci_smoke \
		--out sweep-smoke-serial --backend serial
	diff -r sweep-smoke-process sweep-smoke-serial

# Crawl service smoke: boot `repro serve`, submit a campaign over the
# Unix socket and stream it to completion, run the same spec through
# batch `repro crawl`, and require the two archives to be
# byte-identical (the same run CI's service job performs).
serve-smoke:
	rm -rf serve-smoke-data serve-smoke-batch serve-smoke-watch.log
	set -e; \
	PYTHONPATH=src $(PY) -m repro serve --data-dir serve-smoke-data \
		--backend serial & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null || true' EXIT; \
	for _ in $$(seq 1 100); do \
		[ -S serve-smoke-data/service.sock ] && break; sleep 0.2; \
	done; \
	[ -S serve-smoke-data/service.sock ]; \
	PYTHONPATH=src $(PY) -m repro submit --data-dir serve-smoke-data \
		--sites 1000 --seed 1 --shards 4 --backend serial \
		--checkpoint-every 100 --watch | tee serve-smoke-watch.log; \
	for shard in 0 1 2 3; do \
		grep -q "shard $$shard: [0-9]* targets done" serve-smoke-watch.log \
			|| { echo "no progress line from shard $$shard"; exit 1; }; \
	done; \
	grep -o 'shard [0-9]*: [0-9]* targets done' serve-smoke-watch.log \
		| awk '$$3 > 250 { print "over-count: " $$0; bad = 1 } END { exit bad }'; \
	PYTHONPATH=src $(PY) -m repro crawl --sites 1000 --seed 1 \
		--shards 4 --backend serial --out serve-smoke-batch/archive \
		--checkpoint-dir serve-smoke-batch/checkpoints \
		--checkpoint-every 100; \
	diff -r serve-smoke-data/jobs/job-000001/archive \
		serve-smoke-batch/archive; \
	PYTHONPATH=src $(PY) -m repro shutdown --data-dir serve-smoke-data; \
	wait $$SERVE_PID

# Cross-artifact validation: the metamorphic relation suite at reduced
# scale (the same run CI's validate job performs).
validate:
	PYTHONPATH=src $(PY) -m repro validate --metamorphic \
		--sites 500 --shard-counts 1,2,3,5 --backends serial,thread,process

# Report portal: crawl a reduced-scale instrumented campaign, render
# the static HTML site, and verify it is self-contained (the same run
# CI's report job performs).
report:
	PYTHONPATH=src $(PY) -m repro crawl --sites 1000 --out report-archive \
		--shards 4 --checkpoint-dir report-archive/checkpoints \
		--checkpoint-every 100 \
		--trace-out report-archive/trace.jsonl \
		--metrics-out report-archive/metrics.json \
		--span-out report-archive/spans.jsonl
	PYTHONPATH=src $(PY) -m repro report report-archive
	$(PY) scripts/check_report_links.py report-archive/report

# Mirror of .github/workflows/ci.yml: lint, tier-1 suite, bench smoke,
# scenario sweep gate, crawl service smoke, metamorphic validation.
ci: lint
	PYTHONPATH=src $(PY) -m pytest -x -q
	PYTHONPATH=src $(MAKE) bench-smoke
	$(MAKE) sweep-smoke
	$(MAKE) serve-smoke
	$(MAKE) validate

study:
	$(PY) -m repro study

experiments:
	$(PY) scripts/gen_experiments.py

examples:
	$(PY) examples/quickstart.py 3000
	$(PY) examples/topics_api_demo.py
	$(PY) examples/anomalous_gtm.py
	$(PY) examples/allowlist_bug.py
	$(PY) examples/consent_audit.py 3000
	$(PY) examples/reidentification.py 40
	$(PY) examples/longitudinal_monitor.py 3000
	$(PY) examples/ad_targeting.py 40
	$(PY) examples/full_study.py 3000
	$(PY) examples/profile_crawl.py 2000

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	rm -rf sweep-smoke-process sweep-smoke-serial
	rm -rf serve-smoke-data serve-smoke-batch serve-smoke-watch.log
