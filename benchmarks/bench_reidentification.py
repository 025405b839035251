"""Extension study — re-identification risk of the Topics API.

Not a figure of the measured paper, but the analysis its related-work
section builds on (Carey et al., Jha et al.): two colluding observers link
their per-epoch topic views of a user population.  The bench regenerates
the two canonical curves: accuracy vs observation epochs and accuracy vs
noise rate, both against the spec's 5% deployed noise.
The population-scale benches (``test_reid_throughput``,
``test_reid_scaling``) measure the data plane itself: sharded columnar
trace generation plus the sparse linkage ranker; ``test_population_generate``
reports (ungated) the population build a study starts from.
``REPRO_BENCH_REID_USERS`` sets their population (default 1,000);
``REPRO_BENCH_REID_SCALES`` is a comma-separated population list for the
scaling curve (default ``250,500,1000`` — pass ``1000,10000,100000`` for
the full study).
"""

import os
import time

from conftest import show

from repro.privacy.experiment import (
    ReidentificationConfig,
    render_sweep,
    run_reidentification,
    sweep_epochs,
    sweep_noise,
)
from repro.users.population import Population

_BASE = ReidentificationConfig(population_size=80, observation_epochs=4)

REID_USERS = int(os.environ.get("REPRO_BENCH_REID_USERS", "1000"))
REID_SCALES = tuple(
    int(token)
    for token in os.environ.get("REPRO_BENCH_REID_SCALES", "250,500,1000").split(",")
)


def test_reidentification_baseline(benchmark):
    result = benchmark.pedantic(
        run_reidentification, args=(_BASE,), rounds=1, iterations=1
    )
    show(
        "Re-identification, deployed parameters (5% noise, 4 epochs)",
        f"top-1 accuracy: {result.accuracy_top1:.1%}   "
        f"random baseline: {result.linkage.random_baseline:.1%}   "
        f"uplift: {result.uplift_over_random:.0f}x",
    )
    # Literature: linkage succeeds far above chance under deployed params.
    assert result.uplift_over_random > 10


def test_reidentification_epoch_sweep(benchmark):
    results = benchmark.pedantic(
        sweep_epochs, args=(_BASE, [1, 2, 4, 8]), rounds=1, iterations=1
    )
    show("Accuracy vs observation epochs", render_sweep(results, "epochs"))
    accuracies = [r.accuracy_top1 for r in results]
    # More observation epochs help (monotone up to sampling noise).
    assert accuracies[-1] > accuracies[0]
    assert accuracies[-1] > 0.5


def test_reid_throughput(benchmark):
    """End-to-end study throughput (users/sec) on the population data plane.

    The regression gate tracks ``reid_users_per_second`` the way it tracks
    crawl ``visits_per_second``.  ``warmup_rounds=1`` runs one untimed
    study first so the timed round measures the steady state: the process
    pool is spawned and its worker-side population cache filled once per
    session, which is the regime any sweep or repeated study runs in.
    """
    config = ReidentificationConfig(population_size=REID_USERS)

    def one_study():
        return run_reidentification(config, backend="process")

    result = benchmark.pedantic(one_study, rounds=1, iterations=1, warmup_rounds=1)
    elapsed = benchmark.stats.stats.total
    users_per_second = REID_USERS / elapsed if elapsed else 0.0
    benchmark.extra_info["users"] = REID_USERS
    benchmark.extra_info["reid_users_per_second"] = users_per_second
    show(
        "Re-identification throughput",
        f"{REID_USERS:,} users linked in {elapsed:.2f}s "
        f"({users_per_second:,.0f} users/sec; sharded traces + sparse ranking "
        "on the process backend)",
    )
    assert result.uplift_over_random > 10


def test_population_generate(benchmark):
    """Population build rate (users/sec) at ``REPRO_BENCH_REID_USERS``.

    Reported, not gated: ``Population.generate`` is a study's set-up (one
    profile per user, drawn over the taxonomy's roots and descendants),
    and every process worker rebuilds it before its first trace shard.
    """
    population = benchmark.pedantic(
        Population.generate, args=(REID_USERS,), rounds=3, iterations=1
    )
    elapsed = benchmark.stats.stats.median
    users_per_second = REID_USERS / elapsed if elapsed else 0.0
    benchmark.extra_info["users"] = REID_USERS
    benchmark.extra_info["population_users_per_second"] = users_per_second
    show(
        "Population build",
        f"{REID_USERS:,} users generated in {elapsed:.3f}s (median of 3; "
        f"{users_per_second:,.0f} users/sec)",
    )
    assert len(population) == REID_USERS


def test_reid_scaling(benchmark):
    """Users/sec across population sizes: the data plane's scaling curve.

    Sub-quadratic linkage means throughput should degrade gently with N
    (candidate lists grow with topic collisions, not with N²); the dense
    attack would halve users/sec with every doubling.
    """
    rows = []

    def sweep_scales():
        for size in REID_SCALES:
            started = time.perf_counter()
            result = run_reidentification(
                ReidentificationConfig(population_size=size), backend="process"
            )
            elapsed = time.perf_counter() - started
            rows.append((size, elapsed, size / elapsed if elapsed else 0.0, result))
        return rows

    benchmark.pedantic(sweep_scales, rounds=1, iterations=1)
    lines = [f"{'users':>8} {'seconds':>9} {'users/sec':>11} {'top-1':>7}"]
    for size, elapsed, rate, result in rows:
        lines.append(
            f"{size:>8,} {elapsed:>9.2f} {rate:>11,.0f} "
            f"{result.accuracy_top1:>6.1%}"
        )
    show("Re-identification scaling", "\n".join(lines))
    assert all(result.uplift_over_random > 10 for _, _, _, result in rows)


def test_reidentification_noise_sweep(benchmark):
    results = benchmark.pedantic(
        sweep_noise, args=(_BASE, [0.0, 0.05, 0.25, 0.5]), rounds=1, iterations=1
    )
    show("Accuracy vs plausible-deniability noise", render_sweep(results, "noise"))
    accuracies = [r.accuracy_top1 for r in results]
    assert accuracies[0] >= accuracies[-1]
    # The deployed 5% barely dents the attack — the papers' point.
    assert accuracies[1] > 0.8 * accuracies[0]
