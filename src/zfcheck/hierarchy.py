"""Conserved charges built from the boundary generators.

H(n) sums k^n at†_i(k) at_i(k) over the grid and the colors.  On a
negation-symmetric grid the odd orders cancel exactly (each +k term
telescopes against its -k partner through the reflection-twisted identity),
the even orders preserve particle number, commute with one another and with
every reflection generator, and act on the dressed one-particle states
at†(k) vacuum with eigenvalue k^n.  Every one of those statements is checked
numerically here; none is assumed.  The odd orders' vanishing and the
commutators are (lhs, rhs) pairs of factor products of the charge (a
``StateOp``) with the generators and b, which ``harness.RELATIONS``
measures through ``relations.identity``.  Only the vacuum test of b(k) is
measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .boundary import BoundaryContext
from .fock import FockState, Word
from .relations import Pair, StateOp, one_hot
from .rmatrix import Residual, eval_b


# A vacuum expectation of b(k) above this counts as a broken generator.
_EXPECTATION_FLOOR = 1e-13


def apply_H(ctx: BoundaryContext, n: int, state: FockState) -> FockState:
    """Apply sum over grid k, colors i of k^n at†_i(k) at_i(k): the at† row on the at column.

    H(n) is linear, so H(n) s = sum_w s_w H(n) w over the words w of s, with
    H(n) w = sum_k k^n u_k(w) and u_k(w) = at†(k) at(k) w, the images that
    ``BoundaryContext.pair_images`` keeps per word.
    """
    if n < 0:
        raise ValueError(f"hierarchy order must be nonnegative, got {n}")
    if not state.amps:
        return FockState()
    weights = [complex(k**n) for k in ctx.grid]
    acc: dict[Word, complex] = {}
    for a, images in zip(state.amps.values(), ctx.pair_images(list(state.amps))):
        for v, b in FockState.combine(zip(weights, images)).amps.items():
            acc[v] = acc.get(v, 0j) + a * b
    prune = ctx.space.prune
    return FockState.wrap({w: a for w, a in acc.items() if abs(a) > prune})


# ---------------------------------------------------------------------------
# The relations of the charges, each as its (lhs, rhs) pairs


def odd_vanishing(ctx: BoundaryContext, n: int) -> list[Pair]:
    """H(n) = 0 for odd n: an empty right side."""
    if n % 2 == 0:
        raise ValueError(f"odd-order check called with even order {n}")
    return [([(1.0, [StateOp(partial(apply_H, ctx, n))])], [])]


def eigenrelation(ctx: BoundaryContext, n: int, k: float) -> list[Pair]:
    """Commutator spectrum test for one order and one grid momentum.

    Even orders must satisfy [H(n), at†(k)] = k^n at†(k) and
    [H(n), at(k)] = -k^n at(k) on samples.  Odd orders vanish identically,
    so their commutators must vanish too (eigenvalue 0).
    """
    ctx.grid.index_of(k)
    lam = complex(k**n) if n % 2 == 0 else 0j
    h = StateOp(partial(apply_H, ctx, n))
    # [H(n), x] = eig x, for x = at† with eig = lam and x = at with eig = -lam.
    return [
        ([(1.0, [h, x]), (-1.0, [x, h])], [(eig, [x])])
        for x, eig in ((ctx.atdag_covec(1, k), lam), (ctx.at_vec(1, k), -lam))
    ]


def flow_commute(ctx: BoundaryContext, n: int, m: int) -> list[Pair]:
    """H(n) H(m) = H(m) H(n)."""
    hn, hm = StateOp(partial(apply_H, ctx, n)), StateOp(partial(apply_H, ctx, m))
    return [([(1.0, [hn, hm])], [(1.0, [hm, hn])])]


def integral_of_motion(ctx: BoundaryContext, n: int, k: float) -> list[Pair]:
    """The entrywise commutator [H(n), b(k)] vanishes."""
    h, b = StateOp(partial(apply_H, ctx, n)), ctx.vertex.b_opmat(1, k)
    return [([(1.0, [h, b])], [(1.0, [b, h])])]


@dataclass(frozen=True)
class SymmetryBreakingReport:
    """Vacuum test of the reflection generators plus the surviving-symmetry list."""

    residual: Residual
    broken: tuple[tuple[int, int], ...]
    expectations: dict


def check_symmetry_breaking(ctx: BoundaryContext) -> SymmetryBreakingReport:
    """Measure b(k) on the vacuum against the numeric reflection matrix.

    One image of b(k) on the vacuum per grid k gives both results.  The
    residual is the worst |<b_ij(k)> - B(k)_ij| over the grid, with <b_ij(k)>
    the vacuum amplitude of b_ij(k) vacuum; b(k) vacuum holds no other word.
    The broken-generator list collects the index pairs (i, j) whose vacuum
    expectation is nonzero for some grid k: those components act on the
    vacuum with a nonvanishing value, so the symmetry they generate does not
    fix it.
    """
    vac = ctx.space.vacuum()
    worst = 0.0
    broken: set[tuple[int, int]] = set()
    expectations: dict = {}
    for k in ctx.grid:
        want = eval_b(ctx.vertex.reflection, k).tolist()
        got = ctx.vertex.apply_b(k, one_hot(vac, ctx.N))
        for i in range(ctx.N):
            for j in range(ctx.N):
                expect = got[j][i].amps.get((), 0j)
                expectations[(i, j, k)] = expect
                worst = max(worst, abs(expect - want[i][j]))
                if abs(expect) > _EXPECTATION_FLOOR:
                    broken.add((i, j))
    residual = Residual(worst, {"momenta": tuple(ctx.grid)})
    return SymmetryBreakingReport(
        residual=residual, broken=tuple(sorted(broken)), expectations=expectations
    )
