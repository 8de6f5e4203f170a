"""Command-line verification driver.

``geodiff --suite <name> --cases N --seed S [--output PATH] [--format csv|json]``

Suites: theorems (closed forms vs the coordinate oracle), derive (ODE
convergence and residuals), scale (homogeneity sweep), roots (continuation
vs simultaneous iteration), or all.  Each suite is one function
``run_<suite>(rng, cases) -> list[Record]`` in ``RUNNERS``, and each record
is judged by its module constant below, a scale ``:lam=`` one by equality.
Reports are byte-identical for a fixed (config, seed) on every supported
CPython, 3.10 to 3.13; the timestamp lives in the JSON header, never in
records.  CSV rows and JSON records each come from one template, with no
quoting or escaping: record text holds nothing that needs either (see
``write_report``).

The derive suite draws nothing at random, so it ignores ``--seed``; it steps
at ``DEFAULT_H`` and reads ``--cases`` as the number of sample points of
each residual-mode entry.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import random
import sys
import time
from typing import NamedTuple

from . import __version__, dual, geom, homogeneity, odes, ops, oracle, polyroots

DEFAULT_H = (1e-1, 1e-2, 1e-3)

THEOREMS_TOL = 1e-9
SCALE_TOL = 1e-10
LAMBDA_TOL = 1e-12  # perfbench copies it; run_scale judges :lam= records exactly
ROOTS_TOL = 1e-6
SENS_TOL = 1e-5
ENDPOINT_TOL = 1e-7
RESIDUAL_TOL = 1e-8
ORDER_RANGE = (3.5, 4.5)


class ConfigError(ValueError):
    pass


class _RunFields(NamedTuple):
    suite: str = "all"
    cases: int = 1000
    seed: int = 0
    output: str | None = None
    format: str = "csv"


class RunConfig(_RunFields):
    """The flags of one run; an invalid one raises ConfigError here, and in
    ``_replace``, which builds through ``_make``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.cases < 1:
            raise ConfigError("cases must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Record:
    """One judged comparison, a report row.  A slotted class, not a
    NamedTuple, whose Python-level ``__new__`` would slow the building of
    every record.  ``__eq__`` and ``__repr__`` read the fields in
    ``__slots__`` order: records of one class with equal fields are equal,
    and the text is ``Record(suite='...', case_id=..., ...)``."""

    __slots__ = ("suite", "case_id", "op", "inputs", "expected", "actual",
                 "rel_err", "passed")
    __hash__ = None

    def __init__(self, suite: str, case_id: int, op: str, inputs: str,
                 expected: str, actual: str, rel_err: float, passed: bool):
        self.suite = suite
        self.case_id = case_id
        self.op = op
        self.inputs = inputs
        self.expected = expected
        self.actual = actual
        self.rel_err = rel_err
        self.passed = passed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self.__slots__]
                == [getattr(other, name) for name in self.__slots__])

    def __repr__(self):
        return "Record(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)


class Report:
    """A run's config and records, the summary ``run`` makes of them, and
    the version and start time a JSON report's header carries."""

    def __init__(self, config: RunConfig, timestamp: str = ""):
        self.config = config
        self.records: list[Record] = []
        self.summary: dict = {}
        self.version = __version__
        self.timestamp = timestamp


def _fmt(*values: float) -> str:
    return ";".join(map(float.__repr__, values))


_rel = dual.rel  # bound, not wrapped: a record pays one call


def _record(suite, case_id, op, inputs, expected: float, actual: float,
            tol: float | None) -> Record:
    """Record of one float comparison, passing below relative tol (on equality
    if tol is None).  An actual equal to a nonzero expected reuses its text
    (zeros have signs); for floats, repr is what _fmt gives."""
    err = _rel(actual - expected, expected)
    text = repr(expected)
    return Record(suite, case_id, op, inputs, text,
                  text if actual == expected and expected else repr(actual),
                  err, actual == expected if tol is None else err < tol)


def _defect(suite, case_id, op, inputs, value: float, tol) -> Record:
    """Record of a value that should be 0, passing below tol."""
    return Record(suite, case_id, op, inputs, "0.0", repr(value), value, value < tol)


def _failed(suite, case_id, op, inputs, expected: str, exc) -> Record:
    """Failing record of a comparison that exc stopped, named after it."""
    return Record(suite, case_id, op, inputs, expected, type(exc).__name__,
                  math.inf, False)


# --- suites ---------------------------------------------------------------------


def run_theorems(rng: random.Random, cases: int) -> list[Record]:
    out = []
    theorem_ops = [(op.name, op.point, op.closed, op.oracle) for op in
                   sorted((op for op in ops.table() if op.oracle),
                          key=lambda op: ops.FAMILIES.index(op.family))]
    for i in range(cases):
        case = ops.Case(rng)
        formatted = {}  # a family's operations share one point
        for name, point_of, closed_form, measure in theorem_ops:
            try:
                point = point_of(case)
            except oracle.OracleError as exc:  # euler_distance's point is measured
                out.append(_failed("theorems", i, name, "", "", exc))
                continue
            ins = formatted.get(point)
            if ins is None:
                ins = formatted[point] = _fmt(*point)
            closed = closed_form(*point)
            try:
                measured = measure(case)
            except oracle.OracleError as exc:
                # no oracle value: the closed form stands as the expected one
                out.append(_failed("theorems", i, name, ins, _fmt(closed), exc))
            else:
                out.append(_record("theorems", i, name, ins, measured, closed,
                                   THEOREMS_TOL))

        sides = case.triangle
        abc = geom.incenter_bisector_lengths(*sides)
        try:
            recovered = geom.bisector_problem_solve(*abc)
            err = max(_rel(r - s, s) for r, s in zip(recovered, sides))
            out.append(Record("theorems", i, "bisector_problem", _fmt(*abc),
                              formatted[sides], _fmt(*recovered), err,
                              err < THEOREMS_TOL))
        except geom.GeometryError as exc:
            out.append(_failed("theorems", i, "bisector_problem", _fmt(*abc),
                               formatted[sides], exc))
    return out


def run_derive(rng: random.Random, cases: int) -> list[Record]:
    """Derivation records; nothing is drawn at random, so rng goes unused."""
    out = []
    for entry in ops.derivations():
        if entry.residual_only:
            res = odes.residual(entry, max(2, cases))
            out.append(_defect("derive", 0, f"{entry.name}:residual",
                               _fmt(*entry.s_range), res.max_residual,
                               RESIDUAL_TOL))
            continue
        exact = odes.reference_endpoint(entry)
        try:
            rep = odes.convergence(entry, DEFAULT_H)
        except odes.SingularityError as exc:
            # the entry's usual records, each failing under the exception name
            out.extend(_failed("derive", 0, f"{entry.name}:h={h:g}", repr(h),
                               repr(exact), exc)
                       for h in DEFAULT_H)
            out.append(_failed("derive", 0, f"{entry.name}:order",
                               _fmt(*DEFAULT_H), "4.0", exc))
            continue
        for h, endpoint, err in zip(DEFAULT_H, rep.endpoints, rep.errors):
            judged = h == min(DEFAULT_H)
            out.append(Record("derive", 0, f"{entry.name}:h={h:g}", repr(h),
                              repr(exact), repr(endpoint), _rel(endpoint - exact, exact),
                              (err < ENDPOINT_TOL) if judged else True))
        order = rep.fitted_order
        if order is None:  # RK4 is exact, or one error alone left the floor
            worst = max(rep.errors)
            out.append(Record("derive", 0, f"{entry.name}:exact", _fmt(*DEFAULT_H),
                              "0.0", repr(worst), worst / max(1.0, abs(exact)),
                              worst <= rep.floor))
            continue
        out.append(Record("derive", 0, f"{entry.name}:order", _fmt(*DEFAULT_H),
                          "4.0", repr(order), abs(order - 4.0) / 4.0,
                          ORDER_RANGE[0] <= order <= ORDER_RANGE[1]))
    return out


def run_scale(rng: random.Random, cases: int) -> list[Record]:
    """Per point: the identity's defect, whose pass also gives f(x), then f at
    the point scaled by each lam against lam**n f(x)."""
    out = []
    append, residual, mul = out.append, homogeneity.scale_residual, operator.mul
    for op in ops.table():
        name, closed, sample = op.name, op.closed, op.sample
        lams = [(f"{name}:lam={lam:g}", lam_n, factors)
                for lam, lam_n, factors in homogeneity.finite_scaling(op)]
        for i in range(cases):
            point = sample(rng)
            ins = _fmt(*point)
            defect, f_val = residual(op, point)
            append(_defect("scale", i, name, ins, defect, SCALE_TOL))
            for lam_name, lam_n, factors in lams:
                append(_record("scale", i, lam_name, ins, lam_n * f_val,
                               closed(*map(mul, point, factors)), None))
    return out


def run_roots(rng: random.Random, cases: int) -> list[Record]:
    out = []
    for i in range(cases):
        degree = rng.randint(2, 8)
        coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree)] + [1.0]
        target = polyroots.Poly(tuple(coeffs))
        path = polyroots.make_path(target, rng=rng)
        try:
            tracked = polyroots.track(path)
            reference = polyroots.oracle_roots(target)
            dist = polyroots.match_distance(tracked, reference)
            out.append(_defect("roots", i, "track", _fmt(*coeffs), dist,
                               ROOTS_TOL))
        except (polyroots.PathSingularityError, polyroots.TrackingFailureError,
                polyroots.OracleFailureError) as exc:
            out.append(_failed("roots", i, "track", _fmt(*coeffs), "0.0", exc))

        a = rng.uniform(0.5, 3.0)
        r1 = rng.uniform(-3.0, 3.0)
        r2 = r1 + rng.uniform(0.5, 3.0)
        b, c = -a * (r1 + r2), a * r1 * r2
        out.append(_defect("roots", i, "quad_sens", _fmt(a, b, c, r2),
                           quad_sens_error(a, b, c, r2), SENS_TOL))
    return out


def _quad_root_near(a, b, c, near: float):
    # q carries the sign of b, so neither root comes from a cancelling -b + disc
    q = -0.5 * (b + math.copysign(1.0, b.real) * dual.sqrt(b * b - 4.0 * a * c))
    return min((q / a, c / q), key=lambda r: abs(r.real - near))


def quad_sens_error(a: float, b: float, c: float, r2: float) -> float:
    """Worst relative gap between d x/d(a, b, c) and complex-step derivatives.

    Both sides are taken at x, the root of a x^2 + b x + c nearest r2 that
    the stable formula gives: the drawn r2 is not an exact root of the rounded
    coefficients.  The roots are real (``dual.sqrt`` raises on a negative
    discriminant).  The reference re-solves the quadratic with one
    coefficient at a time seeded by ``dual.seed`` and reads the root's
    derivative with ``dual.der`` (Squire & Trapp, SIAM Review 40, 1998): no
    difference is taken, so nothing cancels, even for a root near 0.
    """
    x = _quad_root_near(a, b, c, r2)
    sens = polyroots.quadratic_sensitivities(a, b, c, x)
    refs = (dual.der(_quad_root_near(dual.seed(a), b, c, x)),
            dual.der(_quad_root_near(a, dual.seed(b), c, x)),
            dual.der(_quad_root_near(a, b, dual.seed(c), x)))
    return max(_rel(s - f, f) for s, f in zip(sens, refs))


# --- driver ---------------------------------------------------------------------

RUNNERS = {"theorems": run_theorems, "derive": run_derive, "scale": run_scale,
           "roots": run_roots}
SUITES = (*RUNNERS, "all")


def run(config: RunConfig) -> Report:
    report = Report(config=config,
                    timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    wanted = RUNNERS if config.suite == "all" else (config.suite,)
    # Every case keeps its Records (17 per theorems case, each tracked by the
    # cyclic collector) until the report is written, and the suites make no
    # reference cycles: each generational pass would re-walk all of them and
    # free nothing, so the collector is paused while they run.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name in wanted:
            rng = random.Random(f"{config.seed}:{name}")
            report.records.extend(RUNNERS[name](rng, config.cases))
    finally:
        if collecting:
            gc.enable()
    # one pass; top skips NaN and infinities; a finite :order record's actual is its fit
    failures, top, orders, inf = 0, -math.inf, {}, math.inf
    for r in report.records:
        failures += not r.passed
        if r.op.endswith(":order"):
            if math.isfinite(r.rel_err):
                orders[r.op.removesuffix(":order")] = float(r.actual)
        elif top < r.rel_err < inf:
            top = r.rel_err
    report.summary = {
        "records": len(report.records),
        "failures": failures,
        "max_rel_err": 0.0 if top == -inf else top,
        "fitted_orders": orders,
    }
    return report


def write_report(report: Report, path: str, fmt: str) -> None:
    """Write report to path as fmt, "csv" or "json".

    Every text field of a record is a float repr, a fixed suite or operation
    name, or an exception class name, all in ``[A-Za-z0-9_.:;=+-]`` (a test
    pins it): nothing in them needs CSV quoting or JSON escaping, so the
    writers put them into their templates as they are.  The JSON header keeps
    json.dumps, because config.output is text the user typed.
    """
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, report.records)
    elif fmt == "json":
        header = json.dumps({
            "timestamp": report.timestamp,
            "version": report.version,
            "config": report.config._asdict(),
            "summary": report.summary,
        }, indent=1)
        with open(path, "w", encoding="utf-8") as fh:
            # the bytes json.dump(..., indent=1) writes with "records" last
            fh.write(header[:-2] + ',\n "records": [')
            if report.records:
                _write_json_records(fh, report.records)
                fh.write("\n ")
            fh.write("]\n}\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _write_csv(fh, records) -> None:
    """The csv.writer rows of a header and the records, rel_err as its repr,
    one template row per record and 4096 rows per write."""
    fh.write("suite,case_id,op,inputs,expected,actual,rel_err,passed\r\n")
    for start in range(0, len(records), 4096):
        fh.write("".join(["%s,%d,%s,%s,%s,%s,%r,%s\r\n" % (
            r.suite, r.case_id, r.op, r.inputs, r.expected, r.actual,
            r.rel_err, r.passed) for r in records[start:start + 4096]]))


_JSON_RECORD = ('\n  {\n   "suite": "%s",\n   "case_id": %d,\n   "op": "%s",'
                '\n   "inputs": "%s",\n   "expected": "%s",\n   "actual": "%s",'
                '\n   "rel_err": %s,\n   "passed": %s\n  }')


def _write_json_records(fh, records) -> None:
    """One indent=1 JSON object per record, comma-separated, one template per
    record and 4096 records per write; json spells a non-finite rel_err."""
    for start in range(0, len(records), 4096):
        fh.write(("," if start else "") + ",".join([_JSON_RECORD % (
            r.suite, r.case_id, r.op, r.inputs, r.expected, r.actual,
            float.__repr__(r.rel_err) if math.isfinite(r.rel_err)
            else json.dumps(r.rel_err),
            "true" if r.passed else "false") for r in records[start:start + 4096]]))


def parse_config(argv) -> RunConfig:
    """Build a RunConfig from the flags given; the rest keep their defaults."""
    # no prefixes: a stale --h must not be read as --help and exit 0
    parser = argparse.ArgumentParser(
        prog="geodiff", description="verification suites for metric identities",
        allow_abbrev=False)
    parser.add_argument("--suite", choices=SUITES)
    parser.add_argument("--cases", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output")
    parser.add_argument("--format", choices=("csv", "json"))
    ns = parser.parse_args(argv)
    return RunConfig(**{k: v for k, v in vars(ns).items() if v is not None})


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print(f"geodiff: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    report = run(config)
    if config.output is not None:
        try:
            write_report(report, config.output, config.format)
        except OSError as exc:
            print(f"geodiff: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    s = report.summary
    print(f"suite={config.suite} records={s['records']} "
          f"failures={s['failures']} max_rel_err={s['max_rel_err']:.3e}")
    return 0 if s["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
