"""Mutation checks: a defect in a seam's output must turn its tags to FAIL.

Each mutant injects one named, non-uniform defect at a public seam: at the
vertex layer (``VertexContext.apply_T``, ``apply_T_inverse``, ``apply_b``)
it leaks a little of the input state into one off-diagonal aux entry, or
rescales one diagonal entry; at the Fock layer
(``FockSpace.apply_creation``, ``apply_annihilation``) and at the boundary
factor builders (``BoundaryContext.at_vec``, ``atdag_covec``) it rescales
the output of one color at one momentum; in ``hierarchy.apply_H`` it
rescales the words of H(4) s that start with color 0.  A uniform rescale of
every entry could cancel between the two sides of an identity; these cannot.
The default config then runs under each mutant.  The set of tags each one
turns to FAIL is pinned, and every tag listed below must FAIL under at
least one of them, by a residual far above the tolerance.
"""

import pytest

from zfcheck import hierarchy
from zfcheck.boundary import BoundaryContext
from zfcheck.fock import FockSpace, FockState
from zfcheck.harness import RunConfig, run_suites
from zfcheck.vertex import VertexContext


def _leak(entries, state):
    entries[0, 1] = entries[0, 1] + state.scaled(1e-3)


def _scale(entries, state):
    entries[0, 0] = entries[0, 0].scaled(1.001)


def _mutated(original, defect):
    def method(self, k, state, *args, **kwargs):
        out = original(self, k, state, *args, **kwargs)
        defect(out, state)
        return out

    return method


def _color_scaled(original):
    """Color 0 at momentum 1 comes out 1.001 times too large."""

    def method(self, color, k, state):
        out = original(self, color, k, state)
        return out.scaled(1.001) if (color, k) == (0, 1.0) else out

    return method


def _builder_scaled(original):
    """The factor of color 0 at momentum 1 comes out 1.001 times too large."""

    def method(self, space_label, k):
        factor = original(self, space_label, k)

        def op(color, state):
            out = factor.op(color, state)
            return out.scaled(1.001) if (color, k) == (0, 1.0) else out

        return type(factor)(space_label, op)

    return method


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


# name: (owner, patched names, defect maker, suites that hold the tags it must break)
MUTANTS = {
    "T leaks into (0, 1)": (
        VertexContext, ("apply_T",), lambda f: _mutated(f, _leak), ("vertex",)
    ),
    "T^-1 scales (0, 0)": (
        VertexContext, ("apply_T_inverse",), lambda f: _mutated(f, _scale), ("vertex",)
    ),
    "b scales (0, 0)": (
        VertexContext, ("apply_b",), lambda f: _mutated(f, _scale), ("vertex", "hierarchy")
    ),
    "a† scales color 0 at k=1": (
        FockSpace, ("apply_creation",), _color_scaled, ("fock", "vertex")
    ),
    "a scales color 0 at k=1": (
        FockSpace, ("apply_annihilation",), _color_scaled, ("fock", "vertex")
    ),
    "at and at† scale color 0 at k=1": (
        BoundaryContext, ("at_vec", "atdag_covec"), _builder_scaled, ("boundary",)
    ),
    "H(4) scales words starting with color 0": (
        hierarchy, ("apply_H",), _h4_scaled, ("hierarchy",)
    ),
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
        ("fock", "AN-2"),
        ("fock", "AN-3"),
        ("vertex", "defT-adag"),
        ("vertex", "eq:bad"),
    },
    "a scales color 0 at k=1": {
        ("fock", "AN-1"),
        ("fock", "AN-3"),
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
}

TAGS = (
    ("fock", "AN-1"),
    ("fock", "AN-2"),
    ("fock", "AN-3"),
    ("vertex", "defT-adag"),
    ("vertex", "defT-a"),
    ("vertex", "TOmega"),
    ("vertex", "T-inverse"),
    ("vertex", "b-vacuum"),
    ("vertex", "rbrb"),
    ("hierarchy", "ssb"),
    ("boundary", "BNl-1"),
    ("boundary", "BNl-2"),
    ("boundary", "BNl-3"),
    ("boundary", "BNl-4"),
    ("boundary", "BNl-5"),
    ("boundary", "coset"),
    ("boundary", "rho"),
    ("hierarchy", "H-commute"),
    ("hierarchy", "H-eigen"),
)


@pytest.fixture(scope="module")
def failures():
    """Per mutant, the largest FAIL residual of each (suite, tag)."""
    out = {}
    for name, (owner, attrs, make, suites) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            for attr in attrs:
                mp.setattr(owner, attr, make(getattr(owner, attr)))
            report = run_suites(RunConfig(), suites=suites)
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
