"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice (after a tiny warm-up pass),
untraced and then with host-clock spans around every layer boundary
(``tracing.py``), prints the
per-layer table, the per-layer metrics and the tracing overhead, and
writes the spans to ``.perfbench_work/spans-<workload>-seed<n>.jsonl``.
On ``service-monitor`` it also runs the untraced pass once more without
pinning the service to one CPU, and reports that throughput.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every output
check that fails counts in ``failed`` and makes the command exit 1.
The command exits 2, printing no result, when it finds no program
source (``src/repro``) under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run; their median is ``setup_s``.  A paper-scale
#: world takes seconds to build, a service start milliseconds.
SETUP_REPEATS = {"paper-study": 2, "reid-population": 3, "service-monitor": 120}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-study", "reid-population", "service-monitor"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("paper", "tiny"),
        default="paper",
        help="input size: the paper's (default) or a tiny one for the benchmark's tests",
    )
    return parser.parse_args(argv)


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace, root: Path, params: dict) -> dict:
    """Which code, interpreter, machine and inputs produced a result."""
    # Only a repository rooted here counts, not one the checkout sits in.
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == root.resolve()
    commit = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "params": params,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(result) -> None:
    """The workload's own metric names, with units (untraced pass)."""
    from workloads import median

    print(f"{result.rate_name} = {_fmt(median(result.rates))} {result.rate_unit}")
    print(f"{result.op_name} = {_fmt(median(result.op_s))} s (median of {result.ops})")
    for name, (value, unit) in result.extra.items():
        print(f"{name} = {_fmt(value)} {unit}")


def print_layer_table(tracer, traced, untraced) -> None:
    rows = sorted(tracer.layer_rows().values(), key=lambda row: -row.self_s)
    print(f"layer table: self time over a traced wall of {traced.wall_s:.3f} s")
    print(f"  {'span':<26} {'self s':>10} {'total s':>10} {'calls':>9} {'share':>7}")
    for row in rows:
        share = row.self_s / traced.wall_s if traced.wall_s else 0.0
        print(
            f"  {row.name:<26} {row.self_s:>10.4f} {row.total_s:>10.4f} "
            f"{row.calls:>9} {share:>7.1%}"
        )
    for name, count in sorted(tracer.counts.items()):
        print(f"  count {name} = {count}")
    print(
        f"tracing overhead = {traced.wall_s / untraced.wall_s:.4f} "
        f"(traced {traced.wall_s:.3f} s / untraced {untraced.wall_s:.3f} s)"
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program source at src/repro under the current "
            "directory; run it from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    import tracing
    import workloads

    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    run_workload = workloads.WORKLOADS[args.workload]

    def run_pass(name, tracer, plan, scale=args.scale, run=run_workload):
        """One pass, in a work directory of its own."""
        ctx = workloads.Context(
            workload=args.workload,
            seed=args.seed,
            scale=scale,
            work_dir=work_dir / name,
            references=references,
        )
        ctx.work_dir.mkdir()
        return run(ctx, tracer, plan)

    try:
        with workloads.PeakRss() as rss:
            if args.trace:
                # A tiny untraced pass first pays the process's one-time
                # costs (lazy imports, the first worker spawn), which would
                # otherwise land on whichever measured pass runs first.
                run_pass("warm-up", tracing.NullTracer(), workloads.PassPlan(1, 0), "tiny")
                untraced = run_pass(
                    "untraced", tracing.NullTracer(), workloads.PassPlan(1, args.seconds)
                )
                passes = [untraced]
                if args.workload == "service-monitor":
                    passes.append(
                        run_pass(
                            "unpinned",
                            tracing.NullTracer(),
                            workloads.PassPlan(1, args.seconds, ops=untraced.ops),
                            run=workloads.run_service_monitor_unpinned,
                        )
                    )
                tracer = tracing.Tracer()
                uninstall = tracing.install(tracer)
                try:
                    traced = run_pass(
                        "traced", tracer, workloads.PassPlan(1, args.seconds, ops=untraced.ops)
                    )
                finally:
                    uninstall()
                passes.append(traced)
            else:
                passes = [
                    run_pass(
                        "untraced",
                        tracing.NullTracer(),
                        workloads.PassPlan(SETUP_REPEATS[args.workload], args.seconds),
                    )
                ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass

    main_pass = passes[0]
    print("provenance " + json.dumps(provenance(args, root, main_pass.params), sort_keys=True))
    checks = [check for one in passes for check in one.checks]
    tally = Counter((check.name, check.ok) for check in checks)
    for (name, ok), count in sorted(tally.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'} x{count}")
    for check in checks:
        if not check.ok:
            print(f"  FAILED {check.name}: {check.detail}")
    attempted = sum(one.ops + len(one.checks) for one in passes)
    failed = sum(1 for check in checks if not check.ok)
    print(f"error_rate = {_fmt(failed / attempted)} ratio ({failed}/{attempted})")

    print_end_to_end(main_pass)
    if args.trace:
        print_layer_table(tracer, traced, untraced)
        work_root.mkdir(exist_ok=True)
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(root)}")
        metrics = workloads.layer_metrics(tracer, traced)
        metrics["tracing.overhead"] = (traced.wall_s / untraced.wall_s, "ratio")
        unpinned = passes[1] if args.workload == "service-monitor" else None
        unpinned_rate = workloads.median(unpinned.rates) if unpinned else 0.0
        metrics["service.unpinned_visits_per_s"] = (unpinned_rate, "visits/s")
        if unpinned:
            print(
                f"unpinned service_visits_per_s = {_fmt(unpinned_rate)} visits/s "
                f"(pinned to one CPU: {_fmt(workloads.median(untraced.rates))})"
            )
    else:
        metrics = {
            "setup_s": (workloads.median(main_pass.setup_s), "s"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
            "throughput_per_s": (workloads.median(main_pass.rates), "1/s"),
            "op_latency_p50_s": (workloads.median(main_pass.op_s), "s"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name} = {_fmt(value)} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
