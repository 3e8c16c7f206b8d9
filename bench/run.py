"""Benchmark of the ``longshort`` CLI, run as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each command of the workload's list runs as
its own ``python -m longshort.cli`` subprocess, the next one starting when
the previous one has exited. Inputs are generated from ``--seed`` into a
scratch directory of the checkout; the program sees only price files, a
portfolio JSON and flags. Passes over the list repeat for ``--seconds`` (and
at least until the tail percentile has ten samples beyond it), and every
output is checked after its pass.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each pass
twice, once through the CLI and once in-process with spans around every
library call (see traced.py), and prints the per-layer metrics.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A command fails when it exits non-zero, when an output or manifest is
missing or unparseable, or when a structural check fails; the tally is broken
down by cause in the report line above the result. ``correct`` is false only
when a command broke the CLI's contract: an exit code other than 0, 3
(domain error) or 4 (internal error), a timeout, or an exit 0 with missing or
unparseable outputs. Typed refusals and failed structural checks are
counted in ``failed``, never filtered out. The metric names, units and
directions are those of BENCHMARK.json at the checkout root.

End-to-end metrics are never zero, so that a bound relative to the parent's
median means something: the failed share and the budget overshoot, zero on a
healthy workload, enter as ``ops_ok_share`` and ``budget_std_ratio`` (the
exact std at K* over the budget s; above 1 breaks std(G) <= s), and the
report line gives ``ops_failed_share`` and ``budget_overshoot`` beside them.
Accuracy is judged by the exact rational oracle (oracle.py) after each pass,
outside the timed section.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 2  # cold starts timed before each pass, so they span the run
OP_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples beyond it
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import Checker, CheckFailed, MissingOutput  # noqa: E402


@dataclass
class PassResult:
    """One pass over the command list through the CLI."""

    wall: float = 0.0
    op_walls: dict = field(default_factory=dict)  # op_id -> seconds
    rss_kb: dict = field(default_factory=dict)  # op_id -> the child's own max RSS
    outcomes: dict = field(default_factory=dict)  # op_id -> (cause, detail)
    fits: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("LONGSHORT_SEED", None)  # the commands pass --seed where it matters
    return env


def run_cli(args: list[str], cwd: Path, env: dict, stderr_path: Path) -> tuple[float, int, int, bool]:
    """Run one CLI command; return (wall seconds, exit code, max RSS in KiB, timed out)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "longshort.cli", *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, not Popen.wait: only wait4 returns this child's own rusage.
            # Linux carries the parent's peak RSS into the child's across
            # fork and exec, so this process keeps its own peak below any
            # command's (report field bench_peak_rss_mb).
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, wall >= OP_TIMEOUT_S


def measure_setup(env: dict, work: Path, reps: int) -> list[float]:
    """Cold starts of the CLI: interpreter, numpy and longshort imports."""
    times = []
    for _ in range(reps):
        wall, rc, _, _ = run_cli(["--version"], work, env, work / "setup.stderr")
        if rc != 0:
            raise SystemExit(f"longshort --version exited {rc}: {(work / 'setup.stderr').read_text()}")
        times.append(wall)
    return times


def cli_pass(ops, inputs: Path, env: dict, checker: Checker) -> PassResult:
    out = inputs / "pass"
    out.mkdir()
    res = PassResult()
    codes = {}
    start = time.perf_counter()
    for op in ops:
        wall, rc, rss, timed_out = run_cli(op.argv("pass"), inputs, env, out / f"{op.op_id}.stderr")
        res.op_walls[op.op_id], res.rss_kb[op.op_id] = wall, rss
        codes[op.op_id] = "timeout" if timed_out else rc
    res.wall = time.perf_counter() - start
    for op in ops:  # checks run after the timed pass
        rc = codes[op.op_id]
        if rc == 0:
            try:
                res.fits += checker.check(op, str(out))
                res.outcomes[op.op_id] = ("ok", "")
            except CheckFailed as exc:
                res.outcomes[op.op_id] = ("check", str(exc))
            except MissingOutput as exc:
                res.outcomes[op.op_id] = ("broken", str(exc))
        else:
            lines = (out / f"{op.op_id}.stderr").read_text(errors="replace").strip().splitlines()
            cause = f"exit{rc}" if rc in (3, 4) else "broken"
            res.outcomes[op.op_id] = (cause, f"exit {rc}: {lines[-1][:200] if lines else ''}")
    shutil.rmtree(out)
    return res


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for any such percentile, the minimum is returned at 0.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[0], 0.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def accuracy(fits, checker: Checker) -> tuple[float, float]:
    """(largest exact_std(K*)/s, largest |achieved - exact| / exact) over the fits."""
    ratio = err = 0.0
    for f in fits:
        exact = checker.exact_std(f.model, f.k_star, f.stage, f.v0)
        ratio = max(ratio, exact / f.target_std)
        err = max(err, abs(f.achieved_std - exact) / exact)
    return ratio, err


def end_to_end(setup: list[float], passes: list[PassResult], checker: Checker) -> tuple[dict, dict]:
    op_walls = [w for p in passes for w in p.op_walls.values()]
    tail_s, tail_pct = tail(op_walls)
    outcomes = [o for p in passes for o in p.outcomes.values()]
    failed = sum(cause != "ok" for cause, _ in outcomes)
    acc = [accuracy(p.fits, checker) for p in passes if p.fits]
    ratio = statistics.median(a[0] for a in acc) if acc else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(op_walls),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.median(max(p.rss_kb.values()) for p in passes) / 1024.0,
        "ops_ok_share": 1.0 - failed / len(outcomes),
        "budget_std_ratio": ratio,
        "std_report_err": statistics.median(a[1] for a in acc) if acc else 0.0,
    }
    report = {
        "op_tail_percentile": tail_pct,
        "op_samples": len(op_walls),
        "ops_failed_share": failed / len(outcomes),
        "budget_overshoot": max(0.0, ratio - 1.0),
        "pass_walls_s": [p.wall for p in passes],
        "setup_samples_s": setup,
    }
    return metrics, report


def layer_metrics(setup_s: float, passes: list[PassResult], tracers) -> dict:
    """Per-layer numbers: per-pass sums (median over passes) and per-call medians."""
    per_pass = defaultdict(list)
    calls = defaultdict(list)
    solves = []  # (duration, banks, probes) of every Monte-Carlo solve
    for res, tr in zip(passes, tracers):
        sums = defaultdict(float)
        lib_time = defaultdict(float)
        for i, s in enumerate(tr.spans):
            if s.parent is None:
                if s.command in res.op_walls:
                    lib_time[s.command] += s.duration - tr.self_time(i)
                    sums["trace.traced_wall_s"] += s.duration
                continue
            sums[s.name + "_s"] += s.duration
            for key, value in s.counts.items():
                sums[f"{s.name}.{key}"] += value
            if s.name in ("optimizer.solve_optimal_gain_empirical", "portfolio.optimize_portfolio"):
                solves.append((s.duration, s.counts["banks"], s.counts["probes"]))
            if s.name.startswith("montecarlo.") or s.name == "analytics.std_gain":
                calls[s.name].append(s.duration / s.counts.get("calls", 1))
                calls[s.name + ".steps_per_s"].append(s.counts.get("path_steps", 0) / s.duration)
                calls[s.name + ".bytes"].append(s.counts.get("bytes", 0))
        sums["cli.glue_s"] = sum(res.op_walls[op] - setup_s - lib_time[op] for op in res.op_walls)
        sums["trace.untraced_wall_s"] = res.wall
        causes = [cause for cause, _ in res.outcomes.values()]
        for cause in ("exit3", "exit4", "check"):
            sums[f"cli.failed_{cause}"] = causes.count(cause)
        for key, value in sums.items():
            per_pass[key].append(value)

    def pp(key):
        return statistics.median(per_pass[key]) if key in per_pass else 0.0

    def call(key):
        return statistics.median(calls[key]) if calls.get(key) else 0.0

    bank, probe = call("montecarlo.McGainEstimator"), call("montecarlo.estimate")
    solve_total = sum(d for d, _, _ in solves)
    explained = sum(b * bank + n * probe for _, b, n in solves)
    return {
        "montecarlo.bank_build_s": bank,
        "montecarlo.bank_bytes": max(calls.get("montecarlo.McGainEstimator.bytes", [0])),
        "montecarlo.probe_s": probe,
        "montecarlo.path_steps_per_s": call("montecarlo.estimate.steps_per_s"),
        "optimizer.probes": pp("optimizer.solve_optimal_gain_empirical.probes")
        + pp("optimizer.solve_optimal_gain.probes")
        + pp("portfolio.optimize_portfolio.probes"),
        "optimizer.solve_s": pp("optimizer.solve_optimal_gain_empirical_s") + pp("optimizer.solve_optimal_gain_s"),
        "optimizer.solve_explained_share": explained / solve_total if solve_total else 0.0,
        "optimizer.curve_s": pp("optimizer.build_curve_s") + pp("optimizer.build_curve_empirical_s"),
        "optimizer.curve_points": pp("optimizer.build_curve.points") + pp("optimizer.build_curve_empirical.points"),
        "analytics.std_gain_call_s": call("analytics.std_gain"),
        "optimizer.curve_write_s": pp("optimizer.curve_write_csv_s"),
        "optimizer.curve_write_bytes": pp("optimizer.curve_write_csv.bytes"),
        "returns.load_prices_csv_s": pp("returns.load_prices_csv_s"),
        "returns.rows_parsed": pp("returns.load_prices_csv.rows"),
        "returns.pmf_from_returns_s": pp("returns.pmf_from_returns_s"),
        "dynamics.simulate_s": pp("dynamics.simulate_s"),
        "dynamics.stages_replayed": pp("dynamics.simulate.stages") + pp("portfolio.run_portfolio.stages"),
        "dynamics.audit_s": pp("dynamics.audit_cash_financing_s"),
        "portfolio.optimize_portfolio_s": pp("portfolio.optimize_portfolio_s"),
        "portfolio.run_portfolio_s": pp("portfolio.run_portfolio_s"),
        "portfolio.trajectory_write_s": pp("portfolio.trajectory_write_csv_s"),
        "dynamics.trajectory_write_s": pp("dynamics.trajectory_write_csv_s"),
        "cli.glue_s": pp("cli.glue_s"),
        "cli.failed_exit3": pp("cli.failed_exit3"),
        "cli.failed_exit4": pp("cli.failed_exit4"),
        "cli.failed_check": pp("cli.failed_check"),
        "trace.traced_wall_s": pp("trace.traced_wall_s"),
        "trace.untraced_wall_s": pp("trace.untraced_wall_s"),
    }


def environment(env: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**env, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "longshort" / "cli.py").is_file():
        print(f"error: no longshort sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}_{os.getpid()}"
    results = ROOT / ".bench_out"
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        env = child_env()
        ops = workloads.build_ops(args.workload, str(work), args.seed)
        checker = Checker(str(work))
        measure_setup(env, work, 1)  # the first start also compiles bytecode
        setup = []
        tracers = []
        if args.trace:
            sys.path.insert(0, str(SRC))
            import longshort
            import traced

            if not longshort.__file__.startswith(str(SRC)):
                raise SystemExit(f"imported {longshort.__file__}, not the checkout's longshort")
        min_passes = 1 if args.trace else max(MIN_PASSES, math.ceil((TAIL_BEYOND + 1) / len(ops)))
        passes, durations = [], []
        deadline = time.perf_counter() + args.seconds
        # Start another pass only while it is expected to end by the deadline.
        while len(passes) < min_passes or time.perf_counter() + statistics.median(durations) <= deadline:
            started = time.perf_counter()
            setup += measure_setup(env, work, SETUP_PER_PASS)
            passes.append(cli_pass(ops, work, env, checker))
            if args.trace:
                tr = traced.Tracer()
                out = work / "traced"
                out.mkdir()
                for op in ops:
                    traced.run_op(tr, op, str(work), str(out))
                traced.probe_layers(tr, ops, str(work))
                shutil.rmtree(out)
                tracers.append(tr)
            durations.append(time.perf_counter() - started)

        if args.trace:
            metrics = layer_metrics(statistics.median(setup), passes, tracers)
            # In-process commands skip the interpreter start; add it back to compare.
            report = {"traced_wall_plus_starts_s": metrics["trace.traced_wall_s"] + len(ops) * statistics.median(setup)}
            with open(results / f"{tag}_spans.jsonl", "w", encoding="utf-8") as fh:
                for n, tr in enumerate(tracers):
                    tr.write(fh, n)
        else:
            metrics, report = end_to_end(setup, passes, checker)
        outcomes = [o for p in passes for o in p.outcomes.values()]
        tally = defaultdict(int)
        for cause, _ in outcomes:
            tally[cause] += 1
        report.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
            passes=len(passes), ops_per_pass=len(ops), outcomes=dict(tally),
            bench_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            failures=sorted({f"{op}: {detail}" for p in passes for op, (c, detail) in p.outcomes.items() if c != "ok"}),
            environment=environment(env),
        )
        missing = {m["name"] for m in metric_specs} - metrics.keys()
        if missing:
            raise SystemExit(f"metrics not computed: {sorted(missing)}")
        result = {
            "correct": tally["broken"] == 0,
            "attempted": len(outcomes),
            "failed": len(outcomes) - tally["ok"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs},
        }
        (results / f"{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=2) + "\n")
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
