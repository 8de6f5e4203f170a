"""Tests of the benchmark's own code: span arithmetic, tracer hygiene, the
report check and the metric names."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import geodiff  # noqa: E402
from geodiff import cli  # noqa: E402
from perfbench import layers, reference, run, workloads  # noqa: E402
from perfbench.tracer import Tracer, count_targets, span_targets  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def hand_built(spans, names, raised=()):
    """Arrays in the Tracer.save layout from (name, start, end, parent) spans
    and (name, exception class, count) triples."""
    ids = {n: i for i, n in enumerate(names)}
    return {
        "names": np.array(names),
        "name_id": np.array([ids[s[0]] for s in spans], dtype=np.int32),
        "start": np.array([s[1] for s in spans], dtype=float),
        "end": np.array([s[2] for s in spans], dtype=float),
        "parent": np.array([s[3] for s in spans], dtype=np.int32),
        "run": np.zeros(len(spans), dtype=np.int32),
        "calls": np.zeros((0, 3), dtype=np.int64),
        "raised_span": np.array([ids[r[0]] for r in raised], dtype=np.int32),
        "raised_type": np.array([r[1] for r in raised], dtype=str),
        "raised_count": np.array([r[2] for r in raised], dtype=np.int64),
    }


class TestSpanArithmetic:
    # run [0, 10] holds a [1, 4] (with a nested a [2, 3]) and b [5, 6]
    SPANS = [("run", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("a", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0)]

    def spans(self):
        return layers.Spans(hand_built(self.SPANS, ["run", "a", "b"],
                                       [("b", "ValueError", 1)]))

    def test_self_time_subtracts_direct_children(self):
        assert self.spans().self_time.tolist() == [6.0, 2.0, 1.0, 1.0]

    def test_total_counts_nested_spans_once(self):
        s = self.spans()
        assert s.total("a") == 3.0
        assert s.total("a", "b") == 4.0
        assert s.total("run", "a", "b") == 10.0
        assert s.self_total("a") == 3.0

    def test_counts_and_failures(self):
        s = self.spans()
        assert (s.count("a"), s.count("b"), s.count("missing")) == (2, 1, 0)
        assert s.failures("b") == 1 and s.failures("a") == 0
        assert s.children("a", "a") == 1 and s.children("a", "run") == 1

    def test_tail_leaves_ten_samples_beyond(self):
        values = np.arange(100.0)
        assert layers.tail(values) == 89.0
        assert (values > layers.tail(values)).sum() == 10
        assert layers.tail(np.array([3.0, 1.0])) == 3.0


def snapshot():
    owners = {id(owner): owner
              for owner, _, _ in span_targets(geodiff) + count_targets(geodiff)}
    owners[id(geodiff.formulas)] = geodiff.formulas
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def traced_counts(seed):
    tracer = Tracer()
    tracer.install(geodiff)
    try:
        for suite, cases in (("theorems", 3), ("derive", 2), ("scale", 2),
                             ("roots", 2)):
            tracer.new_run()
            cli.run(cli.RunConfig(suite=suite, cases=cases, seed=seed))
    finally:
        tracer.restore()
    spans = layers.Spans(tracer.arrays())
    info = {"cases": 3, "records": 0, "report_bytes": 0,
            "import_polyroots_s": 0.0, "import_odes_s": 0.0, "overhead_s": 0.0}
    metrics = layers.layer_metrics(spans, info)
    counts = {name for name, unit, _ in layers.PER_LAYER if unit == "count"}
    return spans, {k: v for k, v in metrics.items() if k in counts}


class TestTracer:
    def test_attributes_identical_after_a_traced_run(self):
        before = snapshot()
        spans, _ = traced_counts(seed=5)
        after = snapshot()
        assert before.keys() == after.keys()
        for key, attrs in before.items():
            assert attrs.keys() == after[key].keys()
            for name, value in attrs.items():
                assert after[key][name] is value, name
        assert len(spans.dur) > 0

    def test_spans_nest_and_counts_repeat(self):
        spans, counts = traced_counts(seed=7)
        assert (spans.parent < np.arange(len(spans.parent))).all()
        assert (spans.self_time >= 0.0).all()
        assert counts["polyroots.track.calls"] == 2
        assert counts["geom.bisector_problem_solve.calls"] == 3
        assert counts["formulas.dual.calls"] > 0
        assert counts["polyroots.poly_deriv.calls"] > 0
        assert traced_counts(seed=7)[1] == counts


class TestReportCheck:
    @pytest.fixture(params=["json", "csv"])
    def report(self, request, tmp_path):
        step = workloads.Step("theorems", 2, request.param)
        path = str(tmp_path / f"theorems.{step.fmt}")
        rep = cli.run(cli.parse_config(step.argv(3, path)))
        cli.write_report(rep, path, step.fmt)
        return step, path, rep.summary

    def rewrite(self, step, path, edit):
        if step.fmt == "json":
            with open(path) as fh:
                payload = json.load(fh)
            edit(payload["records"])
            with open(path, "w") as fh:
                json.dump(payload, fh)
        else:
            with open(path) as fh:
                lines = fh.read().splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(",")))
                    for line in lines[1:]]
            edit(rows)
            with open(path, "w") as fh:
                fh.write("\n".join([lines[0]] + [",".join(str(r[k]) for k in
                                                          lines[0].split(","))
                                                 for r in rows]) + "\n")

    def test_clean_report_passes(self, report):
        check = workloads.check_report(*report)
        assert (check.records, check.failed, check.problems) == (34, 0, [])

    def test_pass_beyond_tolerance_is_rejected(self, report):
        def loosen(rows):
            rows[5]["rel_err"] = 1e-3
            rows[5]["passed"] = True
        self.rewrite(report[0], report[1], loosen)
        problems = workloads.check_report(*report).problems
        assert any("passed with rel_err" in p for p in problems)

    def test_missing_record_is_rejected(self, report):
        self.rewrite(report[0], report[1], lambda rows: rows.pop())
        problems = workloads.check_report(*report).problems
        assert any("33 records, expected 34" in p for p in problems)

    def test_failed_record_is_counted_and_summary_checked(self, report):
        def fail(rows):
            rows[0]["passed"] = False
        self.rewrite(report[0], report[1], fail)
        check = workloads.check_report(*report)
        assert check.failed == 1
        assert any("failures" in p for p in check.problems)

    def test_tolerances_match_the_cli_gates(self):
        for name in ("THEOREMS_TOL", "SCALE_TOL", "LAMBDA_TOL", "ROOTS_TOL",
                     "SENS_TOL", "ENDPOINT_TOL", "RESIDUAL_TOL"):
            assert getattr(workloads, name) == getattr(cli, name)
        assert min(cli.DEFAULT_H) == 1e-3


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _, _ in run.END_TO_END + layers.PER_LAYER]
        assert len(names) == len(set(names))
        for name, unit, better in run.END_TO_END + layers.PER_LAYER:
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
            assert better in ("higher", "lower")

    def test_benchmark_json_lists_the_emitted_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
            == run.END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
            == layers.PER_LAYER
        assert sorted(w["name"] for w in bench["workloads"]) \
            == sorted(workloads.WORKLOADS)
        assert any(m["name"] == "setup_s" and m["bound"] == max(
            e["bound"] for e in bench["end_to_end"]) for m in bench["end_to_end"])
        assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

    def test_expected_record_counts(self):
        for name, steps in workloads.WORKLOADS.items():
            for step in steps:
                rep = cli.run(cli.RunConfig(suite=step.suite, cases=2, seed=1))
                small = workloads.Step(step.suite, 2, step.fmt)
                assert rep.summary["records"] == small.expected_records, name


class TestReference:
    def test_task_is_fixed_work(self):
        assert reference.task(500) == reference.task(500)
        assert reference.reference_s() > 0

    def test_reference_does_not_import_geodiff(self):
        code = ("import sys; import perfbench.reference as r; r.task(10); "
                "print(any(m.split('.')[0] == 'geodiff' for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout
        assert out.strip() == "False"

    def test_command_prints_one_timing(self):
        out = subprocess.run([sys.executable, "-m", "perfbench.reference",
                              "--rounds", "1"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout
        assert float(out) > 0

    def test_every_workload_has_a_nominal_child_time(self):
        assert set(run.NOMINAL_CHILD_S) == set(workloads.WORKLOADS)
