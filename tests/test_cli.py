import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict

import pytest

import geodiff
from geodiff import cli, odes, oracle
from geodiff.cli import (SUITES, ConfigError, Record, RunConfig, main,
                         parse_config, quad_sens_error, run, write_report)


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
        with pytest.raises(ConfigError):
            parse_config(["--cases", "0"])


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
        assert failed.rel_err == float(failed.actual) / 3.0

    def test_scale_small_run(self):
        report = run(RunConfig(suite="scale", cases=5, seed=1))
        assert report.summary["failures"] == 0

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
        def broken(quad):
            raise oracle.InvariantViolation("chord does not match")

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

    def test_any_oracle_failure_becomes_a_record(self, monkeypatch):
        def broken(e, m, n):
            raise oracle.OracleError("split does not match")

        monkeypatch.setattr(oracle, "measure_cevian", broken)
        report = run(RunConfig(suite="theorems", cases=2, seed=5))
        assert len(report.records) == 34
        failed = [r for r in report.records if not r.passed]
        assert [r.op for r in failed] == ["cevian", "cevian"]
        assert all(r.actual == "OracleError" and r.rel_err == math.inf
                   and float(r.expected) > 0.0 for r in failed)

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


def _json_dump_bytes(report):
    payload = {
        "timestamp": report.timestamp,
        "version": report.version,
        "config": asdict(report.config),
        "summary": report.summary,
        "records": [asdict(r) for r in report.records],
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

    def test_failure_records(self, tmp_path):
        report = run(RunConfig(suite="theorems", cases=2, seed=1))
        report.records.append(Record("theorems", 2, "cyclic_quad_area",
                                     "1.0;2.0", "0.5", "InvariantViolation",
                                     math.inf, False))
        report.records.append(Record("x", 3, "op \"q\" \u00e9\n", "", "", "",
                                     -math.inf, True))
        report.records.append(Record("x", 4, "op", "", "", "", math.nan, False))
        self.check(report, tmp_path)

    def test_theorems_report(self, tmp_path):
        self.check(run(RunConfig(suite="theorems", cases=20, seed=3)),
                   tmp_path)

    def test_scale_report(self, tmp_path):
        self.check(run(RunConfig(suite="scale", cases=5, seed=3)), tmp_path)

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

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\u00e9"])
    @pytest.mark.parametrize("field", ["suite", "op", "inputs", "expected",
                                       "actual"])
    def test_text_needing_quotes(self, tmp_path, field, char):
        report = run(RunConfig(suite="derive", cases=2))
        special = Record("x", 1, "op", "1.0;2.0", "0.5", "0.5", 0.0, True)
        setattr(special, field, f"a{char}b{char}")
        report.records.append(special)
        self.check(report, tmp_path)

    @pytest.mark.parametrize("err", [math.inf, -math.inf, math.nan])
    def test_non_finite_rel_err(self, tmp_path, err):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.append(Record("theorems", 2, "cyclic_quad_area",
                                     "1.0;2.0", "0.5", "InvariantViolation",
                                     err, False))
        self.check(report, tmp_path)

    def test_quotes_only_in_a_later_chunk(self, tmp_path):
        # 57 records per scale case: the first chunk of rows needs no quotes
        report = run(RunConfig(suite="scale", cases=80, seed=1))
        assert len(report.records) > 4096
        report.records.append(Record("x", 0, 'op "q", \u00e9\r\n', "", "", "",
                                     math.nan, False))
        self.check(report, tmp_path)

    def test_no_records(self, tmp_path):
        report = run(RunConfig(suite="derive", cases=2))
        report.records.clear()
        self.check(report, tmp_path)


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

    def test_unwritable_output(self):
        code = main(["--suite", "scale", "--cases", "1",
                     "--output", "/nonexistent/dir/report.csv"])
        assert code == 2

    def test_bad_flag_value(self):
        assert main(["--suite", "warp"]) == 2

    def test_bad_config_key(self):
        # the gates are module constants and there is no config file
        for flag, value in (("--tol", "1e-3"), ("--h", "0.1"),
                            ("--config", "x.json")):
            assert main(["--suite", "scale", "--cases", "1", flag, value]) == 2


def foreign_modules(statement, cwd=None):
    """Top-level modules, neither stdlib nor geodiff, that ``statement``
    loads in a fresh interpreter with ``PYTHONPATH=src``.  Modules that
    interpreter start-up loads (``.pth`` hooks) are not the statement's."""
    src = os.path.dirname(os.path.dirname(geodiff.__file__))
    code = (f"import sys; before = set(sys.modules); {statement}; "
            "allowed = {*sys.stdlib_module_names, 'geodiff'}; "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - allowed))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.splitlines()[-1]


def test_cli_import_loads_neither_numpy_nor_scipy():
    """``import geodiff.cli`` loads only the standard library and geodiff,
    so the runtime needs none of numpy, scipy, mpmath or sympy."""
    assert foreign_modules("import geodiff.cli") == "[]"


def test_every_suite_runs_on_the_standard_library_alone(tmp_path):
    """A run of every suite, report writing included, loads nothing beyond
    the standard library and geodiff, as the README promises."""
    assert foreign_modules("import geodiff.cli; "
                           "geodiff.cli.main(['--suite', 'all', '--cases', '2'])",
                           cwd=tmp_path) == "[]"
