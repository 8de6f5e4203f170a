#!/usr/bin/env python3
"""Layered benchmark of the geodiff verification routes.

    python3 perfbench/run.py --workload {theorems,roots,calculus} --seed N
                             --seconds S --trace {0,1}

Closed loop, one client: each iteration is a fresh, single-threaded child
process (``perfbench/child.py``) that imports ``geodiff.cli`` and runs the
workload's CLI steps (``parse_config`` -> ``run`` -> ``write_report``); the
next child starts only after the previous one has exited and its reports
have been checked.  Child k of a run uses CLI seed ``N*1000 + k``, so one
seed always gives the same inputs and a run averages over several of them.

``--trace 0`` measures the end-to-end metrics: a few import-only children
for set-up time, then S // NOMINAL_CHILD_S workload children (more only
until two have completed), so a seed always attempts the same records.  The
host is shared and its speed drifts by tens of percent over minutes, so a
fixed reference task (``perfbench/reference.py``) is timed before and after
every child, and the child's times are scaled to the host speed at which
that task takes REFERENCE_S (the unscaled figures are printed too).
``wall_s`` is the mean over the children, ``records_per_s`` pools their
records over their suite time, ``setup_s`` is the median over all imports.
``--trace 1`` runs one untraced and one traced child on the same inputs (the
first input set that completes) and reports the per-layer metrics of
``perfbench/layers.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the run
(Python, CPU count, revision, numpy/scipy versions, seed, sample counts).
The exit code is non-zero when a report fails the correctness check.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, check_report, expected_records  # noqa: E402

SETUP_CHILDREN = 3       # import-only children per end-to-end run
MIN_CHILDREN = 2         # completed workload children per end-to-end run
# Seconds one workload child costs a run (child, report check, reference
# timings) on a 2-vCPU host at the commit that defined the benchmark; an
# end-to-end run plans S // this many children.
NOMINAL_CHILD_S = {"theorems": 16.0, "roots": 6.5, "calculus": 4.5}
IMPORTTIME_CHILDREN = 3  # `python -X importtime` children per traced run
DEADLINE_S = 170.0       # no child starts or runs past this point of a run
REFERENCE_S = 0.3        # reference task seconds at the nominal host speed
ERR_FLOOR = 1e-17        # below one ulp: a zero error reads as 17 digits

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("passed_frac", "ratio", "higher"),
    ("max_rel_err_digits", "digits", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, int, str, str]:
    """Run a child to completion; (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - t0, -1, "", f"timed out: {exc}"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.children: list[dict] = []
        self.gauge_s: list[float] = []   # reference task timings, in order
        self.unscaled: dict[str, float] = {}

    def workload_child(self, seed: int, deadline: float, spans: str | None = None):
        """Run and check one workload child; its record if every step completed."""
        out_dir = os.path.join(OUT, self.workload)
        os.makedirs(out_dir, exist_ok=True)
        args = [sys.executable, "-m", "perfbench.child",
                "--workload", self.workload, "--seed", str(seed),
                "--out", out_dir]
        if spans:
            args += ["--spans", spans]
        wall, code, stdout, stderr = spawn(args, deadline)
        expected = expected_records(self.workload)
        self.attempted += expected
        child = {"seed": seed, "wall_s": wall, "exit": code}
        self.children.append(child)
        data = last_json(stdout) if code == 0 else None
        if data is None:
            child["error"] = stderr[-2000:]
            self.failed += expected
            return None
        errors = [r["error"][-2000:] for r in data["steps"] if "error" in r]
        records = failed = 0
        for step, result in zip(WORKLOADS[self.workload], data["steps"]):
            if "error" in result:
                failed += step.expected_records
                continue
            check = check_report(step, result["path"], result["summary"])
            records += check.records
            failed += check.failed
            self.problems += check.problems
        self.failed += failed
        child.update(records=records, failed=failed)
        if errors:
            child["errors"] = errors
            return None
        child.update(import_s=data["import_s"],
                     run_s=sum(r["run_s"] for r in data["steps"]),
                     write_s=sum(r["write_s"] for r in data["steps"]),
                     bytes=sum(r["bytes"] for r in data["steps"]),
                     max_rel_err=max(r["summary"]["max_rel_err"]
                                     for r in data["steps"]),
                     peak_rss_mib=data["peak_rss_mib"])
        return child


def import_seconds(deadline: float) -> float | None:
    _, code, stdout, _ = spawn(
        [sys.executable, "-m", "perfbench.child", "--import-only"], deadline)
    data = last_json(stdout) if code == 0 else None
    return data["import_s"] if data else None


def importtime(deadline: float) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    _, code, _, stderr = spawn(
        [sys.executable, "-X", "importtime", "-c", "import geodiff.cli"], deadline)
    out = {}
    for line in stderr.splitlines() if code == 0 else ():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def end_to_end(run: Run, seconds: float, seed: int, deadline: float):
    # Every child sits between two timings of the reference task; its times
    # are scaled to the host speed at which that task takes REFERENCE_S.
    # Longer children get longer gauges, about a tenth of a child's cost.
    rounds = max(1, round(NOMINAL_CHILD_S[run.workload] / 3.0))

    def time_reference() -> float:
        _, code, stdout, stderr = spawn(
            [sys.executable, "-m", "perfbench.reference", "--rounds", str(rounds)],
            deadline)
        if code != 0:
            raise RuntimeError(f"reference task failed: {stderr[-2000:]}")
        return float(stdout)

    gauge = [time_reference()]

    def host_factor() -> float:
        gauge.append(time_reference())
        return REFERENCE_S / ((gauge[-2] + gauge[-1]) / 2)

    imports = []
    for _ in range(SETUP_CHILDREN):
        import_s = import_seconds(deadline)
        factor = host_factor()
        if import_s is not None:
            imports.append((import_s, factor))
    # The number of children depends on the seed and S only, never on how
    # fast they ran, so a seed always attempts the same records.
    planned = max(MIN_CHILDREN, int(seconds // NOMINAL_CHILD_S[run.workload]))
    done = []
    k = 0
    while (k < planned or len(done) < MIN_CHILDREN) and time.monotonic() < deadline:
        child = run.workload_child(seed * 1000 + k, deadline)
        k += 1
        factor = host_factor()
        if child is not None:
            child["host_factor"] = factor
            done.append(child)
    run.gauge_s = gauge
    if not done:
        run.problems.append("no child completed its steps")
        return {}, {}
    imports += [(c["import_s"], c["host_factor"]) for c in done]

    def timings(scaled: bool) -> dict[str, float]:
        f = [c["host_factor"] if scaled else 1.0 for c in done]
        return {
            "wall_s": statistics.fmean(c["wall_s"] * x for c, x in zip(done, f)),
            "setup_s": statistics.median(t * (x if scaled else 1.0)
                                         for t, x in imports),
            "records_per_s": sum(c["records"] for c in done)
            / sum(c["run_s"] * x for c, x in zip(done, f)),
        }

    metrics = timings(scaled=True)
    metrics["max_rel_err_digits"] = statistics.fmean(
        -math.log10(max(c["max_rel_err"], ERR_FLOOR)) for c in done)
    metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mib"] for c in done)
    produced = sum(c["records"] for c in done)
    metrics["passed_frac"] = 1.0 - sum(c["failed"] for c in done) / produced
    run.unscaled = timings(scaled=False)
    return metrics, {"children": len(done), "setup": len(imports)}


def per_layer(run: Run, seed: int, deadline: float):
    import numpy as np

    from perfbench.layers import Spans, layer_metrics

    spans_path = os.path.join(OUT, f"spans-{run.workload}.npz")
    times = [importtime(deadline) for _ in range(IMPORTTIME_CHILDREN)]
    # The first input set whose untraced child completes is traced; a step
    # that raises is already counted in run.failed.
    plain = None
    k = 0
    while plain is None and time.monotonic() < deadline:
        plain = run.workload_child(seed * 1000 + k, deadline)
        k += 1
    traced = plain and run.workload_child(plain["seed"], deadline, spans=spans_path)
    if not traced:
        run.problems.append("no traced child completed its steps")
        return {}, {}
    with np.load(spans_path) as arrays:
        spans = Spans(arrays)
    info = {
        "cases": WORKLOADS[run.workload][-1].cases,
        "records": traced["records"],
        "report_bytes": traced["bytes"],
        "import_polyroots_s": statistics.median(
            t.get("geodiff.polyroots", 0.0) for t in times),
        "import_odes_s": statistics.median(t.get("geodiff.odes", 0.0) for t in times),
        "overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    return layer_metrics(spans, info), {"spans": len(spans.dur)}


def stamp(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "geodiff", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_rev": rev or None, "src_sha256": digest.hexdigest(),
        "numpy": version("numpy"), "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geodiff layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geodiff", "cli.py")):
        print(f"perfbench: no geodiff sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    run = Run(args.workload)
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        values, counts = per_layer(run, args.seed, deadline)
        from perfbench.layers import PER_LAYER
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values, counts = end_to_end(run, args.seconds, args.seed, deadline)
        units = [(name, unit) for name, unit, _ in END_TO_END]
    correct = not run.problems and set(values) == {name for name, _ in units}
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units},
    }
    info = {"stamp": stamp(args), "samples": counts, "unscaled": run.unscaled,
            "problems": run.problems, "children": run.children,
            "gauge_s": run.gauge_s}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    print(json.dumps({k: info[k]
                      for k in ("stamp", "samples", "unscaled", "problems")}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
