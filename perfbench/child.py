"""One workload iteration in a fresh process: import, run, write, report.

    python -m perfbench.child --workload W --seed S --out DIR [--spans PATH]
    python -m perfbench.child --import-only

Prints one JSON line.  The import of ``geodiff.cli`` is timed on its own
(``import_s``); each CLI step then goes through ``cli.parse_config``,
``cli.run`` and ``cli.write_report``, as the ``geodiff`` command does.  An
exception inside a step is caught here, at the process boundary, and
reported with its traceback so that the parent can count the step's records
as failed and keep going.  With ``--spans`` the run is traced and the spans
are written to PATH.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_cli():
    """Import geodiff.cli from this checkout; return (module, seconds)."""
    t0 = time.perf_counter()
    cli = importlib.import_module("geodiff.cli")
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "geodiff"):
        raise SystemExit(f"geodiff imported from {where}, not from {SRC}")
    return cli, elapsed


def run_steps(cli, steps, seed: int, out_dir: str, tracer=None) -> list[dict]:
    results = []
    for step in steps:
        path = os.path.join(out_dir, f"{step.suite}.{step.fmt}")
        result = {"path": path}
        results.append(result)
        if tracer is not None:
            tracer.new_run()
        try:
            config = cli.parse_config(step.argv(seed, path))
            t0 = time.perf_counter()
            report = cli.run(config)
            t1 = time.perf_counter()
            cli.write_report(report, config.output, config.format)
            t2 = time.perf_counter()
        except Exception:  # one failing step must not lose the others
            result["error"] = traceback.format_exc()
            continue
        result.update(run_s=t1 - t0, write_s=t2 - t1,
                      bytes=os.path.getsize(path),
                      summary={k: report.summary[k]
                               for k in ("records", "failures", "max_rel_err")})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cli, import_s = import_cli()
    out = {"import_s": import_s}
    if not args.import_only:
        from perfbench.workloads import WORKLOADS

        tracer = None
        if args.spans:
            import geodiff
            from perfbench.tracer import Tracer

            tracer = Tracer()
            tracer.install(geodiff)
        try:
            out["steps"] = run_steps(cli, WORKLOADS[args.workload], args.seed,
                                     args.out, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            tracer.save(args.spans)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
