import ast
import csv
import gc
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

import geodiff
from geodiff import (cli, geom, homogeneity, odes, ops, oracle, polyroots,
                     sampling)
from geodiff.cli import (SUITES, Record, RunConfig, main, parse_config, run,
                         write_report)
from geodiff.polyroots import quad_sens_error


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.suite == "all"
        assert cfg.cases == 1000
        assert cfg.seed == 0
        assert cfg.format == "csv"

    def test_flags(self):
        cfg = parse_config(["--suite", "roots", "--cases", "50", "--seed", "9"])
        assert (cfg.suite, cfg.cases, cfg.seed) == ("roots", 50, 9)

    def test_zero_cases_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["--cases", "0"])

    def test_replace_keeps_the_fields(self):
        cfg = RunConfig(suite="roots")
        assert cfg.output is None
        assert cfg._replace(cases=5) == RunConfig("roots", 5)
        assert cfg._asdict() == {"suite": "roots", "cases": 1000, "seed": 0,
                                 "output": None, "format": "csv"}


RECORD = dict(suite="theorems", case_id=3, op="median", inputs="1.0;2.0;2.5",
              expected="1.5", actual="1.5000000000000002",
              rel_err=1.4802973661668753e-16, passed=True)
OTHER = dict(suite="scale", case_id=4, op="area", inputs="1.0", expected="0.5",
             actual="0.25", rel_err=0.5, passed=False)


class TestRecord:
    """Record is a NamedTuple that the hot helpers build with tuple.__new__,
    so its value semantics are pinned: the reports, the digests and several
    tests compare or print records."""

    def test_fields_in_slot_order(self):
        assert Record._fields == tuple(RECORD)
        r = Record(**RECORD)
        assert [getattr(r, name) for name in r._fields] == list(RECORD.values())
        assert Record(*RECORD.values()) == r

    def test_equal_records_compare_equal(self):
        assert Record(**RECORD) == Record(**RECORD)
        assert not Record(**RECORD) != Record(**RECORD)

    @pytest.mark.parametrize("name", list(RECORD))
    def test_one_field_changed_makes_records_unequal(self, name):
        changed = Record(**{**RECORD, name: OTHER[name]})
        assert changed != Record(**RECORD)
        assert not changed == Record(**RECORD)

    def test_repr(self):
        assert repr(Record(**RECORD)) == (
            "Record(suite='theorems', case_id=3, op='median', "
            "inputs='1.0;2.0;2.5', expected='1.5', actual='1.5000000000000002', "
            "rel_err=1.4802973661668753e-16, passed=True)")

    def test_takes_no_new_attributes(self):
        r = Record(**RECORD)
        with pytest.raises(AttributeError):
            r.note = "x"

    def test_construction_needs_every_field(self):
        with pytest.raises(TypeError):
            Record(**RECORD, extra=1)
        with pytest.raises(TypeError):
            Record(*list(RECORD.values())[:-1])

    @pytest.mark.parametrize("record", [
        cli._record("scale", 1, "median", "1.0", 1.5, 1.5000000000000002, 1e-9),
        cli._record("scale", 1, "median:lam=2", "1.0", 3.0, 3.0, None),
        cli._defect("scale", 2, "median", "1.0", 1e-12, 1e-10),
        cli._failed("roots", 3, "track", "1.0", "0.0",
                    polyroots.TrackingFailureError("step underflow")),
    ], ids=["record", "record_exact", "defect", "failed"])
    def test_helpers_build_full_records(self, record):
        """tuple.__new__ checks no arity: a dropped field would only shift
        the report's columns."""
        assert type(record) is Record and len(record) == 8
        assert Record(**record._asdict()) == record


class TestSuites:
    def test_suites_are_the_runner_table(self):
        assert SUITES == ("theorems", "derive", "scale", "roots", "all")
        assert tuple(cli.RUNNERS) == SUITES[:-1]

    def test_theorems_small_run_is_clean(self):
        report = run(RunConfig(suite="theorems", cases=25, seed=5))
        assert report.summary["failures"] == 0
        assert report.summary["max_rel_err"] < 1e-9
        ops = {r.op for r in report.records}
        assert {"median", "cevian", "triangle_area", "angle_from_sides",
                "bisector_full", "bisector_to_incenter", "incenter_ratio",
                "circumradius", "inradius", "euler_distance", "hypotenuse",
                "third_side", "inscribed_angle", "trirect_face_area",
                "ptolemy_diagonal", "cyclic_quad_area",
                "bisector_problem"} <= ops

    def test_derive_reports_orders(self):
        report = run(RunConfig(suite="derive", cases=100, seed=0))
        assert report.summary["failures"] == 0
        orders = report.summary["fitted_orders"]
        assert "pythagoras" in orders and "bispart" in orders
        assert orders == {r.op.removesuffix(":order"): float(r.actual)
                          for r in report.records
                          if r.op.endswith(":order") and r.passed}
        residual_ops = {r.op for r in report.records if r.op.endswith(":residual")}
        assert residual_ops == {"ptolemy:residual", "inradius:residual",
                                "bisprob:residual", "heron_alt:residual"}

    def test_rk4_exact_entries_get_exact_records(self):
        records = run(RunConfig(suite="derive", cases=10)).records
        exact = [r for r in records if r.op.endswith(":exact")]
        assert {r.op for r in exact} == {"thales:exact", "inscribed:exact",
                                         "circle_area:exact",
                                         "sphere_volume:exact"}
        assert all(r.passed and r.expected == "0.0"
                   and r.rel_err <= 50.0 * sys.float_info.epsilon
                   for r in exact)

    def test_one_error_above_the_floor_fails_the_exact_record(self, monkeypatch):
        """One error off the floor leaves nothing to fit an order on, and the
        entry is not exact either.  Clamping the errors to 1e-16 and fitting
        anyway would read an order of 3.68 here, inside ORDER_RANGE."""
        integrate = odes.integrate

        def off_at_coarse_h(problem, h):
            off = 1e-8 if problem.name == "thales" and h == 0.1 else 0.0
            return integrate(problem, h) + off

        monkeypatch.setattr(odes, "integrate", off_at_coarse_h)
        report = run(RunConfig(suite="derive", cases=10))
        assert len(report.records) == 72
        [failed] = [r for r in report.records if not r.passed]
        assert failed.op == "thales:exact"
        assert float(failed.actual) == pytest.approx(1e-8)
        thales = next(p for p in ops.derivations() if p.name == "thales")
        exact = odes.convergence(thales, cli.DEFAULT_H).exact
        assert failed.rel_err == float(failed.actual) / max(1.0, abs(exact))

    def test_each_reference_endpoint_is_computed_once(self, monkeypatch):
        """odes.convergence evaluates an anchored entry's closed form at the
        far end of s_range, and run_derive reads it from the report."""
        closed = odes.OdeProblem.closed
        calls = Counter()

        def counted(problem, s):
            if type(s) is float and s == problem.s_range[1]:
                calls[problem.name] += 1
            return closed(problem, s)

        monkeypatch.setattr(odes.OdeProblem, "closed", counted)
        run(RunConfig(suite="derive", cases=10))
        anchored = [p.name for p in ops.derivations() if not p.residual_only]
        assert len(anchored) == 17
        assert calls == Counter(anchored)

    def test_scale_small_run(self):
        report = run(RunConfig(suite="scale", cases=5, seed=1))
        assert report.summary["failures"] == 0

    def test_lambda_record_one_ulp_off_fails(self, monkeypatch):
        """A :lam= record passes only on equality, far inside any 1e-12."""
        table = ops.table

        def one_ulp_high_on_floats(closed):
            # the derivative passes, which give f(x), keep the exact kernel
            def high(*args):
                out = closed(*args)
                if any(isinstance(a, complex) for a in args):
                    return out
                return math.nextafter(out, math.inf)
            return high

        monkeypatch.setattr(ops, "table", lambda: [
            op._replace(closed=one_ulp_high_on_floats(op.closed))
            for op in table()])
        lam = [r for r in run(RunConfig(suite="scale", cases=2, seed=1)).records
               if ":lam=" in r.op]
        assert lam and not any(r.passed for r in lam)
        assert max(r.rel_err for r in lam) < 1e-12

    def test_roots_small_run(self):
        report = run(RunConfig(suite="roots", cases=5, seed=1))
        assert report.summary["failures"] == 0

    def test_quad_sens_root_near_zero(self):
        # case 0 of `--suite roots --seed 2`: r2 is near 0, where the textbook
        # (-b + disc) / (2a) cancels and its finite differences miss SENS_TOL
        report = run(RunConfig(suite="roots", cases=1, seed=2))
        rec = next(r for r in report.records if r.op == "quad_sens")
        assert rec.inputs == ("0.8820328975350586;1.1667033199732073;"
                              "-0.005588140144550972;0.004772464856140468")
        assert rec.passed and rec.rel_err < 1e-6

    def test_quad_sens_reference_at_a_tiny_root(self):
        # case 55 of `--suite roots --cases 100 --seed 104001`: at r2 = -1.7e-4
        # a central difference with step 1e-7 keeps too few digits of the
        # root's change to meet SENS_TOL (it reads 1.09e-5)
        err = quad_sens_error(1.4205414022117355, 3.780320167753912,
                              0.0006432527485905177, -0.00017016915378320618)
        assert err < 1e-12

    def test_cyclic_oracle_failure_becomes_records(self, monkeypatch):
        def broken(radius, a, b, c):
            raise oracle.InvariantViolation("vertices off the circle")

        monkeypatch.setattr(oracle, "embed_cyclic", broken)
        report = run(RunConfig(suite="theorems", cases=3, seed=5))
        assert len(report.records) == 51
        failed = [r for r in report.records if not r.passed]
        assert len(failed) == 6 == report.summary["failures"]
        assert {r.op for r in failed} == {"ptolemy_diagonal", "cyclic_quad_area"}
        assert all(r.actual == "InvariantViolation" and r.rel_err == math.inf
                   for r in failed)

    @pytest.mark.parametrize("name, failing", [
        ("embed_triangle", {"median", "cevian", "triangle_area", "angle_from_sides",
                            "bisector_full", "bisector_to_incenter", "incenter_ratio",
                            "circumradius", "inradius", "euler_distance"}),
        ("circumcenter", {"circumradius", "euler_distance"}),
    ])
    def test_shared_construction_failure_becomes_records(self, monkeypatch, name,
                                                         failing):
        """A construction several operations share fails in each of their
        records, euler_distance's too, whose point is the measured (r, R)."""
        def broken(*args):
            raise oracle.InvariantViolation("parallel lines do not intersect")

        monkeypatch.setattr(oracle, name, broken)
        report = run(RunConfig(suite="theorems", cases=3, seed=5))
        assert len(report.records) == 51
        failed = [r for r in report.records if not r.passed]
        assert {r.op for r in failed} == failing
        assert len(failed) == 3 * len(failing) == report.summary["failures"]
        assert all(r.actual == "InvariantViolation" and r.rel_err == math.inf
                   for r in failed)

    def test_shared_constructions_are_built_once_per_case(self, monkeypatch):
        names = ("embed_triangle", "embed_cyclic", "measure_circumradius")
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        run(RunConfig(suite="theorems", cases=3, seed=5))
        assert calls == {name: 3 for name in names}

    def test_case_keeps_built_constructions_only(self, monkeypatch):
        case = ops.Case(random.Random(5))
        assert case.e is case.e and vars(case)["e"] is case.e
        assert isinstance(ops.Case.e, ops._Built)
        calls = []

        def embed(*quad):
            calls.append(quad)
            if len(calls) == 1:
                raise oracle.OracleError("cuts must increase")
            return ((1.0, 0.0),) * 4

        monkeypatch.setattr(oracle, "embed_cyclic", embed)
        with pytest.raises(oracle.OracleError):
            case.cyclic  # noqa: B018
        assert "cyclic" not in vars(case)  # a failed build is not kept ...
        assert case.cyclic is case.cyclic and len(calls) == 2  # ... but rebuilt

    def test_any_oracle_failure_becomes_a_record(self, monkeypatch):
        def broken(a, b, c, m, n):
            raise oracle.OracleError("split does not match")

        monkeypatch.setattr(oracle, "measure_cevian", broken)
        report = run(RunConfig(suite="theorems", cases=2, seed=5))
        assert len(report.records) == 34
        failed = [r for r in report.records if not r.passed]
        assert [r.op for r in failed] == ["cevian", "cevian"]
        assert all(r.actual == "OracleError" and r.rel_err == math.inf
                   and float(r.expected) > 0.0 for r in failed)

    def test_closed_form_failure_becomes_a_record(self, monkeypatch):
        """At sides (3, 3, 3) the measured R - 2r rounds below 0, so
        euler_distance's sqrt raises; the run goes on."""
        monkeypatch.setattr(sampling, "triangle", lambda rng: (3.0, 3.0, 3.0))
        records = cli.run_theorems(random.Random(0), 1)
        assert len(records) == 17
        failed = [r for r in records if not r.passed]
        assert [(r.op, r.actual, r.expected) for r in failed] == [
            ("euler_distance", "ValueError", "")]
        case = ops.Case(random.Random(0))
        assert failed[0].inputs == cli._fmt(case.r, case.big_r)
        assert case.big_r - 2.0 * case.r < 0.0

    def test_derive_singularity_becomes_records(self, monkeypatch):
        integrate = odes.integrate

        def singular(problem, h):
            if problem.name == "pythagoras":
                raise odes.SingularityError("non-finite right-hand side")
            return integrate(problem, h)

        monkeypatch.setattr(odes, "integrate", singular)
        report = run(RunConfig(suite="derive", cases=10))
        assert len(report.records) == 72
        failed = [r for r in report.records if not r.passed]
        assert len(failed) == 4 == report.summary["failures"]
        assert [r.op for r in failed] == [
            "pythagoras:h=0.1", "pythagoras:h=0.01", "pythagoras:h=0.001",
            "pythagoras:order"]
        assert all(r.actual == "SingularityError" and r.rel_err == math.inf
                   for r in failed)
        assert "pythagoras" not in report.summary["fitted_orders"]
        assert math.isfinite(report.summary["max_rel_err"])

    def test_random_cases_never_hit_domain_errors(self):
        # generation respects the type invariants by construction
        report = run(RunConfig(suite="theorems", cases=50, seed=77))
        assert all(r.rel_err != float("inf") for r in report.records)


class TestDeterminism:
    def test_identical_records(self):
        cfg = RunConfig(suite="theorems", cases=20, seed=42)
        assert run(cfg).records == run(cfg).records

    def test_csv_bytes_identical(self, tmp_path):
        cfg = RunConfig(suite="roots", cases=3, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(run(cfg), str(p1), "csv")
        write_report(run(cfg), str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        a = run(RunConfig(suite="theorems", cases=5, seed=1)).records
        b = run(RunConfig(suite="theorems", cases=5, seed=2)).records
        assert a != b


class TestCollectorPause:
    """run() pauses the cyclic collector, so the suites must make no cycles."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_leave_no_cyclic_garbage(self, suite):
        gc.collect()
        gc.disable()  # no automatic pass may free a cycle before the count
        try:
            run(RunConfig(suite=suite, cases=3, seed=0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collector_restored(self):
        assert gc.isenabled()
        run(RunConfig(suite="roots", cases=1))
        assert gc.isenabled()

    def test_collector_left_off_for_a_caller_that_turned_it_off(self):
        gc.disable()
        try:
            run(RunConfig(suite="roots", cases=1))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_restored_when_a_suite_raises(self, monkeypatch):
        def broken(rng, cases):
            assert not gc.isenabled()
            raise RuntimeError("suite failed")

        monkeypatch.setitem(cli.RUNNERS, "theorems", broken)
        with pytest.raises(RuntimeError):
            run(RunConfig(suite="theorems", cases=1))
        assert gc.isenabled()


def _summary_by_definition(records):
    """report.summary as the README defines it, field by field."""
    finite = [r.rel_err for r in records
              if math.isfinite(r.rel_err) and not r.op.endswith(":order")]
    return {
        "records": len(records),
        "failures": len([r for r in records if not r.passed]),
        "max_rel_err": max(finite) if finite else 0.0,
        "fitted_orders": {r.op.removesuffix(":order"): float(r.actual)
                          for r in records
                          if r.op.endswith(":order") and math.isfinite(r.rel_err)},
    }


class TestSummary:
    """run()'s summary against its definition; repr, so that a -0.0, a
    NaN or the order of fitted_orders cannot pass unseen."""

    def check(self, report):
        assert repr(report.summary) == repr(_summary_by_definition(report.records))

    def test_failure_report(self, failure_report):
        # NaN scale records, inf failure records and a non-finite :order one
        errs = [r.rel_err for r in failure_report.records]
        assert any(map(math.isnan, errs)) and math.inf in errs
        assert any(r.op.endswith(":order") and r.rel_err == math.inf
                   for r in failure_report.records)
        self.check(failure_report)

    def test_derive_report(self):
        report = run(RunConfig(suite="derive", cases=10))
        kinds = {r.op.rpartition(":")[2] for r in report.records}
        assert {"order", "exact", "residual"} <= kinds
        assert report.summary["fitted_orders"]
        self.check(report)

    @pytest.mark.parametrize("errs", [
        (-math.inf, math.nan, -2.0, 1e-3),  # -inf and NaN are skipped
        (-math.inf, math.nan),              # no finite rel_err outside :order
        (-math.inf, -2.0, -0.0),            # the largest finite one is -0.0
        (0.0, -0.0),                        # equal maxima: the first one's sign
        (),                                 # :order records alone
    ])
    def test_crafted_records(self, monkeypatch, errs):
        orders = [Record("derive", 0, "a:order", "", "4.0", "4.5", 0.125, False),
                  Record("derive", 0, "b:order", "", "4.0", "inf", math.inf, False),
                  Record("derive", 0, "c:order", "", "4.0", "nan", math.nan, False),
                  Record("derive", 0, "a:order", "", "4.0", "3.9", 0.025, True)]
        others = [Record("derive", 0, f"e{k}:residual", "", "0.0", repr(err), err,
                         err == 0.0) for k, err in enumerate(errs)]
        monkeypatch.setitem(cli.RUNNERS, "derive",
                            lambda rng, cases: orders[:2] + others + orders[2:])
        report = run(RunConfig(suite="derive", cases=2))
        assert len(report.records) == 4 + len(errs)
        self.check(report)


class TestReportFiles:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        write_report(run(RunConfig(suite="scale", cases=2, seed=0)),
                     str(path), "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "case_id", "op", "inputs", "expected",
                           "actual", "rel_err", "passed"]
        assert len(rows) > 1

    def test_json_layout(self, tmp_path):
        path = tmp_path / "out.json"
        report = run(RunConfig(suite="derive", cases=10, seed=0, format="json"))
        write_report(report, str(path), "json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"timestamp", "version", "config", "summary",
                                "records"}
        assert payload["config"]["suite"] == "derive"
        assert payload["summary"]["failures"] == 0
        assert payload["records"][0].keys() == {
            "suite", "case_id", "op", "inputs", "expected", "actual",
            "rel_err", "passed"}

    @pytest.mark.parametrize("fmt", ["CSV", "xml", ""])
    def test_unknown_format_rejected(self, tmp_path, fmt):
        path = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(run(RunConfig(suite="derive", cases=2)), str(path), fmt)
        assert not path.exists()


@pytest.fixture
def failure_report(monkeypatch):
    """A run of every suite whose records come from the runners' failure
    paths as well: InvariantViolation and NoTriangleError in theorems (one
    with empty inputs), SingularityError from a singular right-hand side in
    derive, a NaN residual in scale and PathSingularityError in roots."""
    def broken(*args):
        raise oracle.InvariantViolation("chord does not match")

    def no_triangle(*args):
        raise geom.NoTriangleError("sides violate the triangle inequality")

    derivations = ops.derivations

    def singular_derivations():
        entries = derivations()
        entries[1] = entries[1]._replace(rhs=lambda *args: 1.0 / 0.0)
        return entries

    def singular_path(path):
        raise polyroots.PathSingularityError("P' vanished on the path")

    # the scale suite's quad sampler builds embed_cyclic too; the area is
    # measured only in theorems
    monkeypatch.setattr(oracle, "cyclic_area", broken)
    monkeypatch.setattr(oracle, "circumcenter", broken)
    monkeypatch.setattr(geom, "bisector_problem_solve", no_triangle)
    monkeypatch.setattr(ops, "derivations", singular_derivations)
    monkeypatch.setattr(homogeneity, "scale_residual",
                        lambda op, point: (math.nan, op.closed(*point)))
    monkeypatch.setattr(polyroots, "track", singular_path)
    report = run(RunConfig(suite="all", cases=3, seed=5))
    actual = {(r.suite, r.actual) for r in report.records if not r.passed}
    assert actual == {("theorems", "InvariantViolation"),
                      ("theorems", "NoTriangleError"),
                      ("derive", "SingularityError"), ("scale", "nan"),
                      ("roots", "PathSingularityError")}
    assert any(r.inputs == "" for r in report.records)
    # no report to read the reference endpoint from: run_derive evaluates it
    singular = derivations()[1]
    expected = repr(singular.closed(singular.s_range[1]))
    steps = [r for r in report.records if r.op.startswith(f"{singular.name}:h=")]
    assert [r.inputs for r in steps] == [repr(h) for h in cli.DEFAULT_H]
    assert all(r.expected == expected and not r.passed for r in steps)
    return report


def _json_dump_bytes(report):
    payload = {
        "timestamp": report.timestamp,
        "version": geodiff.__version__,
        "config": report.config._asdict(),
        "summary": report.summary,
        "records": [r._asdict() for r in report.records],
    }
    return json.dumps(payload, indent=1) + "\n"


class TestJsonWriter:
    """The streamed writer must give exactly json.dump's indent=1 bytes."""

    def check(self, report, tmp_path):
        path = tmp_path / "out.json"
        write_report(report, str(path), "json")
        assert path.read_text(encoding="utf-8") == _json_dump_bytes(report)

    def test_derive_report(self, tmp_path):
        self.check(run(RunConfig(suite="derive", cases=10, format="json")),
                   tmp_path)

    def test_failure_records(self, tmp_path, failure_report):
        self.check(failure_report, tmp_path)

    @pytest.mark.parametrize("err", [math.inf, -math.inf, math.nan])
    def test_non_finite_rel_err(self, tmp_path, err):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.append(Record("theorems", 2, "cyclic_quad_area",
                                     "1.0;2.0", "0.5", "InvariantViolation",
                                     err, False))
        self.check(report, tmp_path)

    def test_theorems_report(self, tmp_path):
        self.check(run(RunConfig(suite="theorems", cases=20, seed=3)),
                   tmp_path)

    def test_scale_report(self, tmp_path):
        self.check(run(RunConfig(suite="scale", cases=5, seed=3)), tmp_path)

    def test_records_span_several_chunks(self, tmp_path):
        # 57 records per scale case: the records fill two 4096-record writes
        report = run(RunConfig(suite="scale", cases=80, seed=1))
        assert len(report.records) == 4560
        self.check(report, tmp_path)

    def test_records_fill_one_chunk_exactly(self, tmp_path):
        report = run(RunConfig(suite="scale", cases=80, seed=1))
        del report.records[4096:]
        self.check(report, tmp_path)

    def test_no_records(self, tmp_path):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.clear()
        self.check(report, tmp_path)


def _csv_writer_bytes(report):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["suite", "case_id", "op", "inputs", "expected", "actual",
                     "rel_err", "passed"])
    for r in report.records:
        writer.writerow([r.suite, r.case_id, r.op, r.inputs, r.expected,
                         r.actual, repr(r.rel_err), r.passed])
    return buf.getvalue().encode("utf-8")


class TestCsvWriter:
    """The template writer must give exactly csv.writer's bytes."""

    def check(self, report, tmp_path):
        path = tmp_path / "out.csv"
        write_report(report, str(path), "csv")
        assert path.read_bytes() == _csv_writer_bytes(report)

    def test_derive_report(self, tmp_path):
        self.check(run(RunConfig(suite="derive", cases=10)), tmp_path)

    def test_scale_report(self, tmp_path):
        self.check(run(RunConfig(suite="scale", cases=5, seed=3)), tmp_path)

    def test_roots_report(self, tmp_path):
        self.check(run(RunConfig(suite="roots", cases=5, seed=3)), tmp_path)

    def test_theorems_report(self, tmp_path):
        self.check(run(RunConfig(suite="theorems", cases=20, seed=3)),
                   tmp_path)

    def test_failure_records(self, tmp_path, failure_report):
        self.check(failure_report, tmp_path)

    @pytest.mark.parametrize("err", [math.inf, -math.inf, math.nan])
    def test_non_finite_rel_err(self, tmp_path, err):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.append(Record("theorems", 2, "cyclic_quad_area",
                                     "1.0;2.0", "0.5", "InvariantViolation",
                                     err, False))
        self.check(report, tmp_path)

    def test_rows_span_several_chunks(self, tmp_path):
        # 57 records per scale case: the rows fill two 4096-row writes
        report = run(RunConfig(suite="scale", cases=80, seed=1))
        assert len(report.records) > 4096
        self.check(report, tmp_path)

    def test_no_records(self, tmp_path):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.clear()
        self.check(report, tmp_path)


RECORD_TEXT = re.compile(r"[A-Za-z0-9_.:;=+-]*")


def _outside_alphabet(records):
    """(field, text) of each record text field that holds a character
    outside RECORD_TEXT."""
    return [(name, getattr(r, name)) for r in records
            for name in ("suite", "op", "inputs", "expected", "actual")
            if not RECORD_TEXT.fullmatch(getattr(r, name))]


class TestRecordAlphabet:
    """write_report puts record text into its templates as it is, so no text
    field may hold a character that CSV quotes (comma, quote, CR, LF) or
    JSON escapes (quote, backslash, control or non-ASCII characters)."""

    def test_every_suite(self):
        report = run(RunConfig(suite="all", cases=20, seed=0))
        assert {r.suite for r in report.records} == set(cli.RUNNERS)
        assert _outside_alphabet(report.records) == []

    def test_failure_records(self, failure_report):
        assert _outside_alphabet(failure_report.records) == []

    def test_exception_names(self):
        """Every class a runner's except clause catches, subclasses included,
        since _failed writes its name into actual."""
        todo = [ValueError, ArithmeticError, odes.SingularityError,
                polyroots.PathSingularityError, polyroots.TrackingFailureError,
                polyroots.OracleFailureError]
        names = []
        while todo:
            cls = todo.pop()
            names.append(cls.__name__)
            todo.extend(cls.__subclasses__())
        assert {"InvariantViolation", "NoTriangleError",
                "DomainError"} <= set(names)
        assert [n for n in names if not RECORD_TEXT.fullmatch(n)] == []

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\\", "\u00e9"])
    def test_text_needing_quotes_or_escapes_is_caught(self, char):
        record = Record("scale", 0, f"med{char}ian", "1.0", "0.0", "0.0", 0.0,
                        True)
        assert _outside_alphabet([record]) == [("op", f"med{char}ian")]


class TestMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["--suite", "scale", "--cases", "2", "--seed", "0",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "failures=0" in capsys.readouterr().out

    def test_failures_exit_one(self, monkeypatch):
        # an absurdly tight tolerance forces failures; exit mirrors them
        monkeypatch.setattr(cli, "SCALE_TOL", 1e-300)
        code = main(["--suite", "scale", "--cases", "1"])
        assert code == 1

    def test_unwritable_output(self, capsys):
        # an empty path is a path that cannot be written, not "no report"
        for output in ("/nonexistent/dir/report.csv", ""):
            code = main(["--suite", "scale", "--cases", "1", "--output", output])
            assert code == 2
            assert f"cannot write {output}:" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path, capsys):
        """Every bad flag exits 2 through argparse, with its usage line, and
        no run starts, so no report is written."""
        out = tmp_path / "r.csv"
        for flag, value in (("--suite", "warp"), ("--format", "xml"),
                            ("--cases", "0"), ("--cases", "-3"),
                            ("--cases", "x")):
            assert main([flag, value, "--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: geodiff ") and err.count("usage:") == 1
            assert f"geodiff: error: argument {flag}:" in err
            assert not out.exists()

    def test_help_lists_the_suites(self, capsys):
        assert main(["--help"]) == 0
        assert "{theorems,derive,scale,roots,all}" in capsys.readouterr().out

    def test_bad_config_key(self):
        # the gates are module constants and there is no config file
        for flag, value in (("--tol", "1e-3"), ("--h", "0.1"),
                            ("--config", "x.json")):
            assert main(["--suite", "scale", "--cases", "1", flag, value]) == 2


def new_modules(statement, cwd=None) -> set[str]:
    """Modules that ``statement`` loads in a fresh interpreter with
    ``PYTHONPATH=src``.  Modules that interpreter start-up loads (``.pth``
    hooks) are not the statement's."""
    src = os.path.dirname(os.path.dirname(geodiff.__file__))
    code = (f"import sys; before = set(sys.modules); {statement}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src})
    return set(out.stdout.splitlines()[-1].split())


def foreign_modules(statement, cwd=None) -> set[str]:
    """Top-level modules, neither stdlib nor geodiff, that ``statement``
    loads in a fresh interpreter."""
    top = {name.partition(".")[0] for name in new_modules(statement, cwd)}
    return top - {*sys.stdlib_module_names, "geodiff"}


def test_cli_import_loads_neither_numpy_nor_scipy():
    """``import geodiff.cli`` loads only the standard library and geodiff,
    so the runtime needs none of numpy, scipy, mpmath or sympy."""
    assert foreign_modules("import geodiff.cli") == set()


@pytest.mark.parametrize("unwanted", [{"dataclasses", "inspect"},
                                      {"geodiff.polyroots", "cmath"}],
                         ids=["dataclasses-inspect", "polyroots-cmath"])
def test_cli_import_loads_neither(unwanted):
    """Every geodiff process pays for its imports in set-up time.
    ``dataclasses`` with ``inspect`` (which loads ``ast``, ``dis`` and
    ``tokenize``) took about a third of ``import geodiff.cli``, and compiling
    ``polyroots``, which only the roots route reads, about a fifth of what
    was left."""
    loaded = new_modules("import geodiff.cli")
    assert "geodiff.cli" in loaded
    assert unwanted & loaded == set()


@pytest.mark.parametrize("suite", SUITES)
def test_only_the_roots_route_loads_polyroots(suite, tmp_path):
    loaded = new_modules("import geodiff.cli; geodiff.cli.main(['--suite', "
                         f"'{suite}', '--cases', '2'])", cwd=tmp_path)
    assert ("geodiff.polyroots" in loaded) == (suite in ("roots", "all"))


def test_cli_leaves_route_4_numerics_to_polyroots():
    """``run_roots`` is the one place cli imports polyroots, and the
    quadratic-sensitivity check it judges builds its complex steps there:
    cli reads no derivative of its own."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               and "polyroots" in (alias.name for alias in node.names)]
    assert imports == ["from . import polyroots"]
    steps = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and ast.unparse(node) in ("dual.seed", "dual.der")]
    assert steps == []


def test_polyroots_loads_on_first_access():
    """``geodiff.__getattr__`` (PEP 562) loads polyroots when it is first
    read, and any other missing name is an ``AttributeError``."""
    assert "geodiff.polyroots" not in new_modules(
        "import geodiff; assert not hasattr(geodiff, 'nosuch')")
    assert {"geodiff.polyroots", "cmath"} <= new_modules(
        "import geodiff; geodiff.polyroots.track")
    # new_modules fails on the assert if `import *` misses a name of __all__
    assert "geodiff.polyroots" in new_modules(
        "from geodiff import *; import geodiff; "
        "assert all(name in globals() for name in geodiff.__all__)")
    with pytest.raises(AttributeError,
                       match="^module 'geodiff' has no attribute 'nosuch'$"):
        geodiff.nosuch


def test_every_suite_runs_on_the_standard_library_alone(tmp_path):
    """A run of every suite, report writing included, loads nothing beyond
    the standard library and geodiff, as the README promises."""
    assert foreign_modules("import geodiff.cli; "
                           "geodiff.cli.main(['--suite', 'all', '--cases', '2'])",
                           cwd=tmp_path) == set()
