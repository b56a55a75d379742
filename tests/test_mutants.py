"""Mutation checks: a defect in a seam's output must turn its tags to FAIL.

Each mutant injects one named, non-uniform defect at a public seam: at the
vertex layer (``VertexContext.apply_T``, ``apply_T_inverse``, ``apply_b``,
which map aux vectors s to images with rows sum_l M_il s_l) row 0 gains a
little of column 1's input, a leak into the off-diagonal entry (0, 1), or
0.001 M_00 s_0, a rescale of the diagonal entry (0, 0); at the Fock layer
(``FockSpace.apply_creation``, ``apply_annihilation``) it rescales the
output of one color at one momentum; at the boundary factor builders
(``BoundaryContext.at_vec``, ``atdag_covec``) the at column's component 0
and the at† row's color-0 part come out too large at one momentum; in
``hierarchy.apply_H`` it rescales the words of H(4) s that start with color
0; and at the two matrix families a run builds (the ``rational_r`` and
``build_reflection`` that ``harness`` calls) R(k1, k2) gains an entry odd
under k1 <-> k2 and B(1) a rescaled diagonal entry.  A uniform rescale of
every entry could cancel between the two sides of an identity; these cannot.
The default config then runs, all five suites, under each mutant.  The set
of tags each one turns to FAIL is pinned, and every ``RELATIONS`` row must
FAIL under at least one of them, by a residual far above the tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from zfcheck import harness, hierarchy
from zfcheck.boundary import BoundaryContext
from zfcheck.fock import FockSpace, FockState
from zfcheck.harness import RELATIONS, RunConfig, run_suites
from zfcheck.relations import Vec
from zfcheck.vertex import VertexContext


def _leak(apply, vecs, images):
    """Row 0 of each image gains 1e-3 times the vector's column-1 state."""
    for vec, image in zip(vecs, images):
        image[0] = image[0] + vec[1].scaled(1e-3)


def _scale(apply, vecs, images):
    """Row 0 of each image gains 0.001 M_00 s_0: entry (0, 0) is 1.001 times too large."""
    zero = FockState()
    col0 = apply([[vec[0]] + [zero] * (len(vec) - 1) for vec in vecs])
    for image, extra in zip(images, col0):
        image[0] = image[0] + extra[0].scaled(1e-3)


def _mutated(original, defect):
    def method(self, k, vecs, *args, **kwargs):
        images = original(self, k, vecs, *args, **kwargs)
        defect(lambda batch: original(self, k, batch, *args, **kwargs), vecs, images)
        return images

    return method


def _color_scaled(original):
    """Color 0 at momentum 1 comes out 1.001 times too large."""

    def method(self, color, k, state):
        out = original(self, color, k, state)
        return out.scaled(1.001) if (color, k) == (0, 1.0) else out

    return method


def _builder_scaled(original):
    """At momentum 1, at's component 0 is 1.001 times too large; at† s gains 0.001 at†_0 s_0."""

    def method(self, space_label, k):
        factor = original(self, space_label, k)
        if k != 1.0:
            return factor

        def op(vecs):
            images = factor.op(vecs)
            if isinstance(factor, Vec):
                return [[image[0].scaled(1.001), *image[1:]] for image in images]
            zero = FockState()
            col0 = factor.op([[vec[0]] + [zero] * (len(vec) - 1) for vec in vecs])
            return [[image[0] + extra[0].scaled(1e-3)] for image, extra in zip(images, col0)]

        return type(factor)(space_label, op)

    return method


def _r_skewed(original):
    """R(k1, k2) gains 1e-3 (k1 - k2) at entry (0, 1): zero at k1 = k2, odd under the swap."""

    def rational_r(N, g):
        spec = original(N, g)

        def evaluator(k1, k2):
            mat = np.array(spec.evaluator(k1, k2), dtype=complex)
            mat[0, 1] += 1e-3 * (k1 - k2)
            return mat

        return replace(spec, evaluator=evaluator)

    return rational_r


def _b_scaled(original):
    """B(1) comes out with entry (0, 0) 1.001 times too large."""

    def build_reflection(cfg):
        spec = original(cfg)

        def evaluator(k):
            mat = np.array(spec.evaluator(k), dtype=complex)
            if k == 1.0:
                mat[0, 0] *= 1.001
            return mat

        return replace(spec, evaluator=evaluator)

    return build_reflection


def _h4_scaled(original):
    """H(4) s comes out 1.001 times too large on the words starting with color 0."""

    def apply_H(ctx, n, state):
        out = original(ctx, n, state)
        if n != 4:
            return out
        return FockState(
            {w: 1.001 * a if w and w[0][1] == 0 else a for w, a in out.amps.items()}
        )

    return apply_H


# name: (owner, patched names, defect maker)
MUTANTS = {
    "T leaks into (0, 1)": (VertexContext, ("apply_T",), lambda f: _mutated(f, _leak)),
    "T^-1 scales (0, 0)": (VertexContext, ("apply_T_inverse",), lambda f: _mutated(f, _scale)),
    "b scales (0, 0)": (VertexContext, ("apply_b",), lambda f: _mutated(f, _scale)),
    "a† scales color 0 at k=1": (FockSpace, ("apply_creation",), _color_scaled),
    "a scales color 0 at k=1": (FockSpace, ("apply_annihilation",), _color_scaled),
    "at and at† scale color 0 at k=1": (
        BoundaryContext, ("at_vec", "atdag_covec"), _builder_scaled
    ),
    "H(4) scales words starting with color 0": (hierarchy, ("apply_H",), _h4_scaled),
    "R gains 1e-3 (k1 - k2) at (0, 1)": (harness, ("rational_r",), _r_skewed),
    "B(1) scales (0, 0)": (harness, ("build_reflection",), _b_scaled),
}

# Per mutant, every (suite, tag) that FAILs under it on the default config.
FAILS = {
    "T leaks into (0, 1)": {
        ("vertex", "T-inverse"),
        ("vertex", "TOmega"),
        ("vertex", "defT-a"),
        ("vertex", "defT-adag"),
        ("vertex", "rtt"),
    },
    "T^-1 scales (0, 0)": {("vertex", "T-inverse")},
    "b scales (0, 0)": {
        ("boundary", "BNl-1"),
        ("boundary", "BNl-2"),
        ("boundary", "BNl-3"),
        ("boundary", "BNl-4"),
        ("boundary", "BNl-5"),
        ("boundary", "eq:bb"),
        ("boundary", "rbrb"),
        ("boundary", "rho"),
        ("boundary", "rhoB-aa"),
        ("boundary", "rhoB-aad"),
        ("boundary", "rhoB-adad"),
        ("boundary", "rhoB-involution"),
        ("hierarchy", "H-commute"),
        ("hierarchy", "H-eigen"),
        ("hierarchy", "H-iom"),
        ("hierarchy", "H-odd"),
        ("hierarchy", "ssb"),
        ("vertex", "b-vacuum"),
        ("vertex", "eq:ab"),
        ("vertex", "eq:bad"),
        ("vertex", "eq:bb"),
        ("vertex", "rbrb"),
    },
    "a† scales color 0 at k=1": {
        ("boundary", "BNl-2"),
        ("boundary", "BNl-3"),
        ("boundary", "BNl-5"),
        ("boundary", "rhoB-aad"),
        ("boundary", "rhoB-adad"),
        ("fock", "AN-2"),
        ("fock", "AN-3"),
        ("hierarchy", "H-eigen"),
        ("hierarchy", "H-iom"),
        ("vertex", "defT-adag"),
        ("vertex", "eq:bad"),
    },
    "a scales color 0 at k=1": {
        ("boundary", "BNl-1"),
        ("boundary", "BNl-3"),
        ("boundary", "BNl-4"),
        ("boundary", "rhoB-aa"),
        ("fock", "AN-1"),
        ("fock", "AN-3"),
        ("hierarchy", "H-eigen"),
        ("hierarchy", "H-iom"),
        ("vertex", "defT-a"),
        ("vertex", "eq:ab"),
    },
    "at and at† scale color 0 at k=1": {
        ("boundary", "BNl-1"),
        ("boundary", "BNl-2"),
        ("boundary", "BNl-3"),
        ("boundary", "BNl-4"),
        ("boundary", "BNl-5"),
        ("boundary", "coset"),
        ("boundary", "rho"),
    },
    "H(4) scales words starting with color 0": {
        ("hierarchy", "H-commute"),
        ("hierarchy", "H-eigen"),
    },
    # The reflection whitelist fails too (RBRB), so every b row is a gate skip.
    "R gains 1e-3 (k1 - k2) at (0, 1)": {
        ("fock", "AN-1"),
        ("fock", "AN-2"),
        ("fock", "AN-3"),
        ("fock", "confluence"),
        ("fock", "roundtrip"),
        ("rmatrix", "RBRB"),
        ("rmatrix", "YBE"),
        ("rmatrix", "unitarity"),
        ("vertex", "T-inverse"),
        ("vertex", "defT-a"),
        ("vertex", "defT-adag"),
        ("vertex", "rtt"),
    },
    "B(1) scales (0, 0)": {("rmatrix", "B-unitarity"), ("rmatrix", "RBRB")},
}

TAGS = tuple((r.suite, r.tag) for r in RELATIONS)


@pytest.fixture(scope="module")
def failures():
    """Per mutant, the largest FAIL residual of each (suite, tag)."""
    out = {}
    for name, (owner, attrs, make) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            for attr in attrs:
                mp.setattr(owner, attr, make(getattr(owner, attr)))
            report = run_suites(RunConfig())
        worst: dict = {}
        for r in report.records:
            if r.status == "fail":
                key = (r.suite, r.relation)
                worst[key] = max(worst.get(key, 0.0), r.residual)
        out[name] = worst
    return out


@pytest.mark.parametrize("suite,tag", TAGS, ids=lambda v: str(v))
def test_tag_fails_under_some_mutant(failures, suite, tag):
    tol = RunConfig().tolerance
    worst = max(f.get((suite, tag), 0.0) for f in failures.values())
    assert worst >= 1e3 * tol, {name: f.get((suite, tag)) for name, f in failures.items()}


def test_every_mutant_is_caught(failures):
    tol = RunConfig().tolerance
    for name, worst in failures.items():
        assert worst, f"mutant {name!r} made no record FAIL"
        assert max(worst.values()) >= 1e3 * tol, (name, worst)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_fail_set_is_pinned(failures, name):
    assert set(failures[name]) == FAILS[name]
