"""In-memory span tracer that wraps geodiff's public functions from outside.

Spans are kept as parallel arrays (name id, start, end, parent, run id) and
written out once, when the traced run ends; exceptions are counted per span
name and exception class.  Hot leaf
functions (``sampling.length``, ``Poly.__call__``, ``Poly.deriv``,
``ContinuationPath.at``) get counting wrappers instead of spans: they are
called hundreds of thousands of times and only their call counts, keyed by
the enclosing span, are reported.

Every wrapped attribute is restored by ``Tracer.restore``; nothing under
``src/`` is edited.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

# Oracle functions the suites call; the internal helpers (dist, shoelace,
# incenter, ...) stay unwrapped so that their time counts as their caller's.
ORACLE_MEASURES = (
    "measure_median", "measure_cevian", "measure_area", "measure_angle_gamma",
    "measure_bisector_full", "measure_bisector_to_incenter",
    "measure_circumradius", "measure_inradius", "measure_euler_distance",
    "right_triangle_hypotenuse", "third_side_by_construction",
    "inscribed_angle_by_construction", "measure_trirect", "cyclic_diagonal",
    "cyclic_area",
)

DUAL_SUFFIX = ":dual"


def public_functions(module) -> list[str]:
    """Names of the functions a module defines itself, without a leading _."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def span_targets(geodiff) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every function that gets a span."""
    cli, sampling, oracle = geodiff.cli, geodiff.sampling, geodiff.oracle
    targets = [(cli, name, f"cli.{name}") for name in ("run", "write_report")]
    targets += [(sampling, name, f"sampling.{name}")
                for name in ("triangle", "cyclic_quad")]
    targets += [(oracle, name, f"oracle.{name}")
                for name in ("embed_triangle", "embed_cyclic") + ORACLE_MEASURES]
    targets += [(geodiff.geom, name, f"geom.{name}")
                for name in public_functions(geodiff.geom)]
    targets += [(geodiff.homogeneity, name, f"homogeneity.{name}")
                for name in ("scale_residual", "partials")]
    targets += [(geodiff.odes, name, f"odes.{name}")
                for name in ("integrate", "residual", "convergence")]
    targets += [(geodiff.polyroots, name, f"polyroots.{name}")
                for name in ("track", "oracle_roots", "match_distance")]
    return targets


def count_targets(geodiff) -> list[tuple[object, str, str]]:
    """(owner, attribute, counter name) for the hot leaf functions."""
    pr = geodiff.polyroots
    return [
        (geodiff.sampling, "length", "sampling.length"),
        (pr.Poly, "__call__", "polyroots.poly_eval"),
        (pr.Poly, "deriv", "polyroots.poly_deriv"),
        (pr.ContinuationPath, "at", "polyroots.path_at"),
    ]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = [0]
        self.calls = Counter()    # (counter id, enclosing span name id or -1)
        self.raised = Counter()   # (span name id, exception class name)
        self._saved: list[tuple[object, str, object]] = []

    def name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_run(self) -> None:
        """Later spans belong to the next CLI invocation."""
        self.run_id[0] += 1

    def _span_wrapper(self, fn, pick_id):
        name_id, start, end = self.name_id, self.start, self.end
        parent, run = self.parent, self.run
        stack, run_id, raised = self.stack, self.run_id, self.raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            nid = pick_id(args, kwargs)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(run_id[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(nid, type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def span(self, fn, name: str):
        nid = self.name(name)
        return self._span_wrapper(fn, lambda args, kwargs: nid)

    def typed_span(self, fn, name: str, dual_type):
        """Span named ``name`` or ``name:dual``, by the type of the arguments."""
        fid, did = self.name(name), self.name(name + DUAL_SUFFIX)

        def pick(args, kwargs):
            for a in args:
                if type(a) is dual_type:
                    return did
            for a in kwargs.values():
                if type(a) is dual_type:
                    return did
            return fid

        return self._span_wrapper(fn, pick)

    def counter(self, fn, name: str):
        cid = self.name(name)
        calls, stack, name_id = self.calls, self.stack, self.name_id

        def wrapper(*args, **kwargs):
            top = stack[-1]
            calls[(cid, name_id[top] if top >= 0 else -1)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, geodiff) -> None:
        """Wrap the traced functions of an imported ``geodiff`` package."""
        for owner, attr, name in span_targets(geodiff):
            self._replace(owner, attr, self.span(getattr(owner, attr), name))
        for name in public_functions(geodiff.formulas):
            fn = getattr(geodiff.formulas, name)
            self._replace(geodiff.formulas, name, self.typed_span(
                fn, f"formulas.{name}", geodiff.dual.DualScalar))
        for owner, attr, name in count_targets(geodiff):
            self._replace(owner, attr, self.counter(owner.__dict__[attr], name))

    def restore(self) -> None:
        """Put back every original attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans and counters as plain arrays, the format ``save`` writes."""
        calls = sorted(self.calls.items())
        raised = sorted(self.raised.items())
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
            "calls": np.array([[c, p, n] for (c, p), n in calls],
                              dtype=np.int64).reshape(-1, 3),
            "raised_span": np.array([nid for (nid, _), _ in raised],
                                    dtype=np.int32),
            "raised_type": np.array([exc for (_, exc), _ in raised], dtype=str),
            "raised_count": np.array([n for _, n in raised], dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())
