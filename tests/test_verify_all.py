import importlib.util
import pathlib
import random

from geodiff import odes, ops
from geodiff.cli import ORDER_RANGE, run_derive

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"


def load_script():
    spec = importlib.util.spec_from_file_location("verify_all", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def derive_rows() -> dict[str, list[str]]:
    """verify_all.derive_table over a 2-case derive run, as name ->
    [order, rel@1e-3, residual, passed], in table order."""
    lines = load_script().derive_table(run_derive(random.Random(0), 2))
    assert lines[0].split() == ["derivation", "order", "rel@1e-3", "residual",
                                "passed"]
    return {name: rest for name, *rest in map(str.split, lines[1:])}


def test_derive_table_has_one_row_per_derivation():
    rows = derive_rows()
    assert list(rows) == [entry.name for entry in ops.derivations()]
    exact = {"thales", "inscribed", "circle_area", "sphere_volume"}
    residual = {"ptolemy", "inradius", "bisprob", "heron_alt"}
    for name, (order, err, res, passed) in rows.items():
        if name in residual:
            assert (order, err) == ("--", "--") and float(res) >= 0.0
        else:
            assert res == "--" and float(err) >= 0.0
            assert (order == "exact") if name in exact \
                else ORDER_RANGE[0] <= float(order) <= ORDER_RANGE[1]
        assert passed == "True"


def test_derive_table_names_the_exception_that_stopped_an_entry(monkeypatch):
    integrate = odes.integrate

    def failing(problem, h):
        if problem.name == "pythagoras":
            raise odes.SingularityError("forced")
        return integrate(problem, h)

    monkeypatch.setattr(odes, "integrate", failing)
    rows = derive_rows()
    assert rows["pythagoras"] == ["SingularityError", "inf", "--", "False"]
    assert rows["pyth_alt"][3] == "True"


def test_import_is_timed_in_a_fresh_interpreter():
    # a fresh interpreter pays for each import; this one has both cached
    seconds = load_script().import_seconds("geodiff.cli", "geodiff.polyroots")
    assert len(seconds) == 2
    assert all(0.0 < s < 60.0 for s in seconds)
