"""Span tracing of zfcheck's layers, installed from outside the package.

A :class:`Tracer` replaces module-level bindings and class methods of the
zfcheck modules with wrappers that record one span per call: a name id, a
start, an end and the index of the enclosing span.  Spans live in flat
arrays while the traced operation runs and are written to a JSON file when
the run ends.  Nothing inside ``src/`` knows about the tracer; every binding
is restored by :meth:`Tracer.uninstall`.

Several modules import a function by name (``fock``, ``vertex`` and
``boundary`` each hold their own ``eval_r``), so each module's binding is
wrapped separately under one span name.  The hottest leaf,
``FockSpace.transpose_adjacent`` (hundreds of thousands of calls per
operation), is counted but not spanned: its time stays in the self time of
its caller, ``fock.canonicalize``.

Self time of a span is its duration minus the durations of its direct
children.  Over the whole tree the self times add up to the root span's
duration, which is the traced wall time of the operation.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.peak_terms = 0
        self.canonical_terms = 0
        self.instances: dict[str, list] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper of ``fn`` that records one span named ``name`` per call."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span; returns (result, wall seconds)."""
        traced = self.wrap(ROOT, fn)
        t0 = perf_counter()
        result = traced(*args)
        return result, perf_counter() - t0

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _capturing_init(self, kind: str, init):
        seen = self.instances.setdefault(kind, [])

        @functools.wraps(init)
        def capturing(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            seen.append(obj)

        return capturing

    def _note_terms(self, result) -> None:
        n = len(getattr(result, "amps", ()))
        if n > self.peak_terms:
            self.peak_terms = n

    def _note_canonical(self, result) -> None:
        n = len(result.amps)
        self.canonical_terms += n
        if n > self.peak_terms:
            self.peak_terms = n

    def _wrap_evaluators(self, factory):
        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, dict):
                return {
                    tag: self.wrap("boundary.evaluators", fn)
                    for tag, fn in made.items()
                }
            return self.wrap("boundary.evaluators", made)

        return wrapped_factory

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None
        )
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer binding the per-layer metrics read."""
        from zfcheck import boundary, fock, harness, hierarchy, relations, rmatrix, vertex

        spans = {
            "rmatrix.eval_r": [rmatrix, fock, vertex, boundary],
            "rmatrix.lift_pair": [rmatrix, vertex],
            "rmatrix.whitelist_reflection": [rmatrix, vertex],
            "relations.identity_residual": [relations, vertex, boundary],
            "hierarchy.apply_H": [hierarchy],
            "harness.build_sample_plan": [harness],
            "harness.render_json": [harness],
        }
        for name, modules in spans.items():
            attr = name.split(".", 1)[1]
            hook = self._note_terms if name == "hierarchy.apply_H" else None
            for mod in modules:
                self._patch(mod, attr, lambda f, n=name, h=hook: self.wrap(n, f, h))

        methods = [
            (fock.FockSpace, "apply_creation", "fock.apply_creation", self._note_terms),
            (fock.FockSpace, "apply_annihilation", "fock.apply_annihilation", self._note_terms),
            (fock.FockSpace, "canonicalize", "fock.canonicalize", self._note_canonical),
            (vertex.VertexContext, "apply_T", "vertex.apply_T", None),
            (vertex.VertexContext, "apply_T_inverse", "vertex.apply_T_inverse", None),
            (vertex.VertexContext, "apply_b", "vertex.apply_b", None),
            (vertex.VertexContext, "chain", "vertex.chain", None),
            (vertex.VertexContext, "chain_inv", "vertex.chain_inv", None),
            (vertex.VertexContext, "b_matrix", "vertex.b_matrix", None),
            (boundary.BoundaryContext, "apply_a_tilde", "boundary.generators", self._note_terms),
            (boundary.BoundaryContext, "apply_a_tilde_dagger", "boundary.generators", self._note_terms),
        ]
        for cls, attr, name, hook in methods:
            self._patch(cls, attr, lambda f, n=name, h=hook: self.wrap(n, f, h))

        self._patch(
            fock.FockSpace,
            "transpose_adjacent",
            lambda f: self._counted("fock.transpose_adjacent", f),
        )
        for factory in ("boundary_relation_evaluators", "rho_evaluator", "rho_B_evaluators"):
            self._patch(boundary, factory, self._wrap_evaluators)
        for cls in (fock.FockSpace, vertex.VertexContext, boundary.BoundaryContext):
            self._patch(cls, "__init__", lambda f, k=cls.__name__: self._capturing_init(k, f))
        if self.missing:
            print(f"trace: bindings not found, not traced: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the raw spans plus the per-name table as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "per_name": self.per_name(),
            "counts": self.counts,
            **extra,
        }
        path.write_text(json.dumps(doc))
