"""Per-layer metrics from one traced operation.

Span counts and self times come from the :class:`tracing.Tracer`; cache
sizes are read from the context objects the operation used; the harness
figures time ``run_suites`` restricted to one suite at a time, untraced.
A layer a workload never calls reports 0 for each of its metrics.
"""

from __future__ import annotations

from time import perf_counter

from workloads import SUITES, VerifyWorkload

# name -> unit, in the order they are printed.
PER_LAYER = {
    "rmatrix.eval_r.calls": "count",
    "rmatrix.eval_r.self_s": "s",
    "rmatrix.lift_pair.calls": "count",
    "rmatrix.lift_pair.self_s": "s",
    "rmatrix.whitelist_s": "s",
    "fock.apply_creation.calls": "count",
    "fock.apply_creation.self_s": "s",
    "fock.apply_annihilation.calls": "count",
    "fock.apply_annihilation.self_s": "s",
    "fock.canonicalize.calls": "count",
    "fock.canonicalize.self_s": "s",
    "fock.transpose_adjacent.calls": "count",
    "fock.terms_per_transposition": "terms/step",
    "fock.swap_cache.entries": "count",
    "fock.ann_cache.entries": "count",
    "fock.peak_terms": "count",
    "vertex.apply_T.calls": "count",
    "vertex.apply_T.self_s": "s",
    "vertex.apply_T_inverse.calls": "count",
    "vertex.apply_T_inverse.self_s": "s",
    "vertex.apply_b.calls": "count",
    "vertex.apply_b.self_s": "s",
    "vertex.matrix_build.self_s": "s",
    "vertex.chain.hit_ratio": "ratio",
    "vertex.chain_inv.hit_ratio": "ratio",
    "vertex.b_matrix.hit_ratio": "ratio",
    "vertex.cached_matrix_bytes": "bytes",
    "boundary.evaluators.calls": "count",
    "boundary.evaluators.self_s": "s",
    "boundary.generators.calls": "count",
    "boundary.generators.self_s": "s",
    "boundary.memo.entries": "count",
    "relations.identity_residual.calls": "count",
    "relations.identity_residual.self_s": "s",
    "hierarchy.apply_H.calls": "count",
    "hierarchy.apply_H.self_s": "s",
    "harness.sample_plan_s": "s",
    "harness.render_s": "s",
    "harness.report_bytes": "bytes",
    "harness.records_measured": "count",
    "harness.records_skipped": "count",
    **{f"harness.{suite}_s": "s" for suite in SUITES},
    "trace.overhead_ratio": "ratio",
}


def _suite_seconds(wl) -> dict[str, float]:
    """Wall time of run_suites restricted to each suite, shared set-up included."""
    from zfcheck import harness

    out = {}
    for suite in SUITES:
        t0 = perf_counter()
        harness.run_suites(wl.cfg, suites=[suite])
        out[suite] = perf_counter() - t0
    return out


def layer_metrics(wl, tracer, traced, traced_wall: float, plain_wall: float) -> dict:
    """Every PER_LAYER metric as name -> (value, unit)."""
    per = tracer.per_name()

    def calls(name: str) -> int:
        return per.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return per.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return per.get(name, {}).get("total_s", 0.0)

    def hit_ratio(name: str, caches) -> float:
        made = sum(len(c) for c in caches)
        return 1.0 - made / calls(name) if calls(name) else 0.0

    spaces = list(tracer.instances.get("FockSpace", []))
    spaces += [s for s in wl.spaces() if s not in spaces]
    vctxs = tracer.instances.get("VertexContext", [])
    bctxs = tracer.instances.get("BoundaryContext", [])
    transpositions = tracer.counts.get("fock.transpose_adjacent", 0)

    m: dict[str, float] = {}
    for layer in (
        "rmatrix.eval_r", "rmatrix.lift_pair",
        "fock.apply_creation", "fock.apply_annihilation", "fock.canonicalize",
        "vertex.apply_T", "vertex.apply_T_inverse", "vertex.apply_b",
        "boundary.evaluators", "boundary.generators",
        "relations.identity_residual", "hierarchy.apply_H",
    ):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    m["rmatrix.whitelist_s"] = total_s("rmatrix.whitelist_reflection")
    m["fock.transpose_adjacent.calls"] = transpositions
    m["fock.terms_per_transposition"] = (
        tracer.canonical_terms / transpositions if transpositions else 0.0
    )
    m["fock.swap_cache.entries"] = sum(len(s._swap_cache) for s in spaces)
    m["fock.ann_cache.entries"] = sum(len(s._ann_cache) for s in spaces)
    m["fock.peak_terms"] = tracer.peak_terms
    m["vertex.matrix_build.self_s"] = sum(
        self_s(n) for n in ("vertex.chain", "vertex.chain_inv", "vertex.b_matrix")
    )
    m["vertex.chain.hit_ratio"] = hit_ratio("vertex.chain", [c._chains for c in vctxs])
    m["vertex.chain_inv.hit_ratio"] = hit_ratio("vertex.chain_inv", [c._chains_inv for c in vctxs])
    m["vertex.b_matrix.hit_ratio"] = hit_ratio("vertex.b_matrix", [c._bmats for c in vctxs])
    m["vertex.cached_matrix_bytes"] = sum(
        mat.nbytes
        for c in vctxs
        for cache in (c._chains, c._chains_inv, c._bmats)
        for mat in cache.values()
    )
    m["boundary.memo.entries"] = sum(len(c._memo) for c in bctxs)

    verify = isinstance(wl, VerifyWorkload)
    counts = traced.report.counts if verify else {}
    m["harness.sample_plan_s"] = total_s("harness.build_sample_plan")
    m["harness.render_s"] = total_s("harness.render_json")
    m["harness.report_bytes"] = len(traced.rendered.encode())
    m["harness.records_measured"] = counts.get("pass", 0) + counts.get("fail", 0)
    m["harness.records_skipped"] = counts.get("skip", 0)
    suite_s = _suite_seconds(wl) if verify else {}
    for suite in SUITES:
        m[f"harness.{suite}_s"] = suite_s.get(suite, 0.0)
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    return {name: (m[name], unit) for name, unit in PER_LAYER.items()}
