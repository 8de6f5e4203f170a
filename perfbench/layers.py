"""Per-layer metrics from the spans and counters of one traced run.

Self time of a span is its duration minus the durations of its child spans;
on one thread child spans never overlap, so that is the part of the interval
no child covers.  A group total (``total``) sums only the spans with no
ancestor in the same group, so nested calls are not counted twice.
"""

from __future__ import annotations

import numpy as np

from perfbench.tracer import DUAL_SUFFIX, ORACLE_MEASURES

# (name, unit, better); BENCHMARK.json lists the same metrics in this order.
PER_LAYER = [
    ("cli.run.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.records", "count", "higher"),
    ("cli.write_report.s", "s", "lower"),
    ("cli.write_report.bytes", "bytes", "lower"),
    ("sampling.triangle.calls", "count", "lower"),
    ("sampling.triangle.s", "s", "lower"),
    ("sampling.triangle.accept_ratio", "ratio", "higher"),
    ("sampling.cyclic_quad.calls", "count", "lower"),
    ("sampling.cyclic_quad.self_s", "s", "lower"),
    ("sampling.cyclic_quad.accept_ratio", "ratio", "higher"),
    ("sampling.cyclic_quad.embeds_per_quad", "ratio", "lower"),
    ("oracle.embed_cyclic.calls", "count", "lower"),
    ("oracle.embed_cyclic.s", "s", "lower"),
    ("oracle.embed_cyclic.not_constructible", "count", "lower"),
    ("oracle.embed_cyclic.calls_per_case", "ratio", "lower"),
    ("oracle.embed_triangle.calls", "count", "lower"),
    ("oracle.embed_triangle.s", "s", "lower"),
    ("oracle.measure.s", "s", "lower"),
    ("geom.closed.s", "s", "lower"),
    ("geom.bisector_problem_solve.calls", "count", "lower"),
    ("geom.bisector_problem_solve.s", "s", "lower"),
    ("geom.bisector_problem_solve.failures", "count", "lower"),
    ("formulas.float.calls", "count", "lower"),
    ("formulas.float.ns_per_call", "ns", "lower"),
    ("formulas.dual.calls", "count", "lower"),
    ("formulas.dual.ns_per_call", "ns", "lower"),
    ("homogeneity.scale_residual.calls", "count", "lower"),
    ("homogeneity.scale_residual.s", "s", "lower"),
    ("homogeneity.partials.s", "s", "lower"),
    ("odes.integrate.calls", "count", "lower"),
    ("odes.integrate.s", "s", "lower"),
    ("odes.residual.calls", "count", "lower"),
    ("odes.residual.s", "s", "lower"),
    ("odes.convergence.s", "s", "lower"),
    ("polyroots.track.calls", "count", "lower"),
    ("polyroots.track.s", "s", "lower"),
    ("polyroots.track.p50_ms", "ms", "lower"),
    ("polyroots.track.tail_ms", "ms", "lower"),
    ("polyroots.track.failures", "count", "lower"),
    ("polyroots.path_at.calls", "count", "lower"),
    ("polyroots.poly_eval.calls", "count", "lower"),
    ("polyroots.poly_deriv.calls", "count", "lower"),
    ("polyroots.oracle_roots.s", "s", "lower"),
    ("polyroots.match_distance.s", "s", "lower"),
    ("setup.import.geodiff.polyroots_s", "s", "lower"),
    ("setup.import.geodiff.odes_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Spans:
    """Span arrays as written by ``Tracer.save``, with derived durations."""

    def __init__(self, arrays):
        self.names = [str(n) for n in arrays["names"]]
        self.name_id = np.asarray(arrays["name_id"], dtype=np.int64)
        self.parent = np.asarray(arrays["parent"], dtype=np.int64)
        self.dur = (np.asarray(arrays["end"], dtype=np.float64)
                    - np.asarray(arrays["start"], dtype=np.float64))
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.calls = {}
        for cid, pid, n in np.asarray(arrays["calls"]).reshape(-1, 3).tolist():
            key = (self.names[cid], self.names[pid] if pid >= 0 else None)
            self.calls[key] = self.calls.get(key, 0) + n
        self.raised = {}
        for nid, exc, n in zip(arrays["raised_span"], arrays["raised_type"],
                               arrays["raised_count"]):
            self.raised[(self.names[int(nid)], str(exc))] = int(n)

    def mask(self, names) -> np.ndarray:
        wanted = set(names)
        ids = [i for i, n in enumerate(self.names) if n in wanted]
        return np.isin(self.name_id, ids)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` with no ancestor in ``mask``."""
        nested = np.zeros(len(mask), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= mask[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return mask & ~nested

    def count(self, *names) -> int:
        return int(self.mask(names).sum())

    def total(self, *names) -> float:
        return float(self.dur[self.outermost(self.mask(names))].sum())

    def self_total(self, *names) -> float:
        return float(self.self_time[self.mask(names)].sum())

    def failures(self, name) -> int:
        """Spans of ``name`` that ended in an exception."""
        return sum(n for (span, _), n in self.raised.items() if span == name)

    def durations(self, name) -> np.ndarray:
        return self.dur[self.mask([name])]

    def counted(self, name, under=None) -> int:
        """Calls of a counted function, optionally only those made directly
        inside a span named ``under``."""
        return sum(n for (c, p), n in self.calls.items()
                   if c == name and (under is None or p == under))

    def children(self, name, parent_name) -> int:
        parents = self.mask([parent_name])
        has_parent = self.parent >= 0
        inside = np.zeros(len(parents), dtype=bool)
        inside[has_parent] = parents[self.parent[has_parent]]
        return int((self.mask([name]) & inside).sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(durations: np.ndarray) -> float:
    """The value with ten samples beyond it; the maximum below 11 samples."""
    ordered = np.sort(durations)
    if len(ordered) == 0:
        return 0.0
    return float(ordered[-11] if len(ordered) > 10 else ordered[-1])


def layer_metrics(spans: Spans, info: dict) -> dict[str, float]:
    """Every PER_LAYER metric; ``info`` carries what the spans cannot:
    cases, records, report_bytes, the import times and the trace overhead."""
    s = spans
    names = s.names
    geom_names = [n for n in names if n.startswith("geom.")]
    outer_geom = s.outermost(s.mask(geom_names))
    closed = outer_geom & ~s.mask(["geom.bisector_problem_solve"])
    float_names = [n for n in names if n.startswith("formulas.")
                   and not n.endswith(DUAL_SUFFIX)]
    dual_names = [n for n in names if n.startswith("formulas.")
                  and n.endswith(DUAL_SUFFIX)]
    tri_calls = s.count("sampling.triangle")
    quad_calls = s.count("sampling.cyclic_quad")
    track_ms = s.durations("polyroots.track") * 1e3
    return {
        "cli.run.s": s.total("cli.run"),
        "cli.run.self_s": s.self_total("cli.run"),
        "cli.records": info["records"],
        "cli.write_report.s": s.total("cli.write_report"),
        "cli.write_report.bytes": info["report_bytes"],
        "sampling.triangle.calls": tri_calls,
        "sampling.triangle.s": s.total("sampling.triangle"),
        "sampling.triangle.accept_ratio": _ratio(
            tri_calls, s.counted("sampling.length", "sampling.triangle") / 3),
        "sampling.cyclic_quad.calls": quad_calls,
        "sampling.cyclic_quad.self_s": s.self_total("sampling.cyclic_quad"),
        "sampling.cyclic_quad.accept_ratio": _ratio(
            quad_calls, s.counted("sampling.length", "sampling.cyclic_quad") / 4),
        "sampling.cyclic_quad.embeds_per_quad": _ratio(
            s.children("oracle.embed_cyclic", "sampling.cyclic_quad"), quad_calls),
        "oracle.embed_cyclic.calls": s.count("oracle.embed_cyclic"),
        "oracle.embed_cyclic.s": s.total("oracle.embed_cyclic"),
        "oracle.embed_cyclic.not_constructible": s.raised.get(
            ("oracle.embed_cyclic", "NotConstructibleError"), 0),
        "oracle.embed_cyclic.calls_per_case": _ratio(
            s.count("oracle.embed_cyclic"), info["cases"]),
        "oracle.embed_triangle.calls": s.count("oracle.embed_triangle"),
        "oracle.embed_triangle.s": s.total("oracle.embed_triangle"),
        "oracle.measure.s": s.total(*(f"oracle.{n}" for n in ORACLE_MEASURES)),
        "geom.closed.s": float(s.dur[closed].sum()),
        "geom.bisector_problem_solve.calls": s.count("geom.bisector_problem_solve"),
        "geom.bisector_problem_solve.s": s.total("geom.bisector_problem_solve"),
        "geom.bisector_problem_solve.failures": s.failures(
            "geom.bisector_problem_solve"),
        "formulas.float.calls": s.count(*float_names),
        "formulas.float.ns_per_call": 1e9 * _ratio(
            s.self_total(*float_names), s.count(*float_names)),
        "formulas.dual.calls": s.count(*dual_names),
        "formulas.dual.ns_per_call": 1e9 * _ratio(
            s.self_total(*dual_names), s.count(*dual_names)),
        "homogeneity.scale_residual.calls": s.count("homogeneity.scale_residual"),
        "homogeneity.scale_residual.s": s.total("homogeneity.scale_residual"),
        "homogeneity.partials.s": s.total("homogeneity.partials"),
        "odes.integrate.calls": s.count("odes.integrate"),
        "odes.integrate.s": s.total("odes.integrate"),
        "odes.residual.calls": s.count("odes.residual"),
        "odes.residual.s": s.total("odes.residual"),
        "odes.convergence.s": s.total("odes.convergence"),
        "polyroots.track.calls": len(track_ms),
        "polyroots.track.s": s.total("polyroots.track"),
        "polyroots.track.p50_ms": float(np.median(track_ms)) if len(track_ms) else 0.0,
        "polyroots.track.tail_ms": tail(track_ms),
        "polyroots.track.failures": s.failures("polyroots.track"),
        "polyroots.path_at.calls": s.counted("polyroots.path_at"),
        "polyroots.poly_eval.calls": s.counted("polyroots.poly_eval"),
        "polyroots.poly_deriv.calls": s.counted("polyroots.poly_deriv"),
        "polyroots.oracle_roots.s": s.total("polyroots.oracle_roots"),
        "polyroots.match_distance.s": s.total("polyroots.match_distance"),
        "setup.import.geodiff.polyroots_s": info["import_polyroots_s"],
        "setup.import.geodiff.odes_s": info["import_odes_s"],
        "trace.overhead_s": info["overhead_s"],
    }
