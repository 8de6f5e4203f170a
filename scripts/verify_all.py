#!/usr/bin/env python3
"""Run every verification suite and write reports under out/.

Usage: python scripts/verify_all.py [seed]

Prints the seconds ``import geodiff.cli`` takes in a fresh interpreter,
then one summary line per suite, with the seconds its ``run`` and its
``write_report`` took (``time.perf_counter``; timings stay out of the
reports), then the derive report as a table: the fitted RK4 order (``exact``
where RK4 integrates exactly) and the relative endpoint error at h = 1e-3 of
each anchored derivation, and the defect of each residual-mode one.  Exits
nonzero if any record failed.
"""

import os
import pathlib
import subprocess
import sys
import time

import geodiff
from geodiff.cli import RunConfig, run, write_report

_TIMED_IMPORT = ("import time; t0 = time.perf_counter(); import geodiff.cli; "
                 "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Seconds ``import geodiff.cli`` takes in a fresh interpreter, from the
    geodiff this script imported: the set-up every geodiff process pays."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodiff.__file__)))
    out = subprocess.run([sys.executable, "-c", _TIMED_IMPORT],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return float(out.stdout)


def _order(actual: str) -> str:
    try:
        return f"{float(actual):.3f}"
    except ValueError:  # the name of the exception that stopped the entry
        return actual


def derive_table(records) -> list[str]:
    """One line per derivation from its :order or :exact, :h=0.001 and
    :residual records."""
    rows: dict[str, dict] = {}
    for r in records:
        name, _, check = r.op.partition(":")
        row = rows.setdefault(name, {"order": "--", "err": "--",
                                     "residual": "--", "ok": True})
        row["ok"] = row["ok"] and r.passed
        if check == "order":
            row["order"] = _order(r.actual)
        elif check == "exact":
            row["order"] = "exact"
        elif check == "h=0.001":
            row["err"] = f"{r.rel_err:.2e}"
        elif check == "residual":
            row["residual"] = f"{r.rel_err:.2e}"
    lines = [f"{'derivation':<16}{'order':>8}  {'rel@1e-3':>10}  "
             f"{'residual':>10}  passed"]
    lines += [f"{name:<16}{row['order']:>8}  {row['err']:>10}  "
              f"{row['residual']:>10}  {row['ok']}"
              for name, row in rows.items()]
    return lines


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "out"
    out_dir.mkdir(exist_ok=True)

    print(f"{'import':<9} geodiff.cli in a fresh interpreter"
          f"  import={import_seconds():.3f}s")
    failures = 0
    derive = None
    for suite, cases in (("theorems", 10000), ("derive", 1000),
                         ("scale", 1000), ("roots", 100)):
        config = RunConfig(suite=suite, cases=cases, seed=seed, format="json")
        t0 = time.perf_counter()
        report = run(config)
        run_s = time.perf_counter() - t0
        path = out_dir / f"{suite}.json"
        t0 = time.perf_counter()
        write_report(report, str(path), "json")
        write_s = time.perf_counter() - t0
        s = report.summary
        failures += s["failures"]
        print(f"{suite:<9} records={s['records']:<6} failures={s['failures']:<3}"
              f" max_rel_err={s['max_rel_err']:.3e}  run={run_s:.2f}s"
              f"  write={write_s:.2f}s  -> {path}")
        if suite == "derive":
            derive = report
    print()
    print("derive, h = 1e-1, 1e-2, 1e-3")
    print("\n".join(derive_table(derive.records)))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
