"""Conserved charges built from the boundary generators.

H(n) sums k^n at†_i(k) at_i(k) over the grid and the colors.  On a
negation-symmetric grid the odd orders cancel exactly (each +k term
telescopes against its -k partner through the reflection-twisted identity),
the even orders preserve particle number, commute with one another and with
every reflection generator, and act on the dressed one-particle states
at†(k) vacuum with eigenvalue k^n.  Every one of those statements is checked
numerically here; none is assumed.  The commutators are factor products of
the charge (a ``StateOp``) with the generators and b, measured by
``relations.identity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .boundary import BoundaryContext
from .fock import FockState
from .relations import ResidualFn, StateOp, identity, one_hot
from .rmatrix import Residual
from .vertex import b_vacuum_evaluator


# A vacuum expectation of b(k) above this counts as a broken generator.
_EXPECTATION_FLOOR = 1e-13


def apply_H(ctx: BoundaryContext, n: int, state: FockState) -> FockState:
    """Apply sum over grid k, colors i of k^n at†_i(k) at_i(k): the at† row on the at column."""
    if n < 0:
        raise ValueError(f"hierarchy order must be nonnegative, got {n}")
    if not state.amps:
        return FockState()
    terms: list[tuple[complex, FockState]] = []
    for k in ctx.grid:
        weight = complex(k**n)
        if weight != 0:
            (row,) = ctx.apply_a_tilde_dagger(k, ctx.apply_a_tilde(k, [[state]]))
            terms.append((weight, row[0]))
    return FockState.combine(terms).pruned(ctx.space.prune)


# ---------------------------------------------------------------------------
# Per-sample residual evaluators (state -> float)


def odd_vanishing_evaluator(ctx: BoundaryContext, n: int) -> ResidualFn:
    """Residual of H(n) s = 0 for odd n."""
    if n % 2 == 0:
        raise ValueError(f"odd-order check called with even order {n}")
    return lambda s: apply_H(ctx, n, s).maxamp()


def eigenrelation_evaluator(ctx: BoundaryContext, n: int, k: float) -> ResidualFn:
    """Commutator spectrum test for one order and one grid momentum.

    Even orders must satisfy [H(n), at†(k)] = k^n at†(k) and
    [H(n), at(k)] = -k^n at(k) on samples.  Odd orders vanish identically,
    so their commutators must vanish too (eigenvalue 0).
    """
    ctx.grid.index_of(k)
    lam = complex(k**n) if n % 2 == 0 else 0j
    h = StateOp(partial(apply_H, ctx, n))
    # [H(n), x] = eig x, for x = at† with eig = lam and x = at with eig = -lam.
    return identity(ctx.N, *(
        ([(1.0, [h, x]), (-1.0, [x, h])], [(eig, [x])])
        for x, eig in ((ctx.atdag_covec(1, k), lam), (ctx.at_vec(1, k), -lam))
    ))


def flow_commute_evaluator(ctx: BoundaryContext, n: int, m: int) -> ResidualFn:
    """Residual of H(n) H(m) s = H(m) H(n) s."""
    hn, hm = StateOp(partial(apply_H, ctx, n)), StateOp(partial(apply_H, ctx, m))
    return identity(ctx.N, ([(1.0, [hn, hm])], [(1.0, [hm, hn])]))


def integral_of_motion_evaluator(
    ctx: BoundaryContext, n: int, k: float
) -> ResidualFn:
    """Residual of the entrywise commutator [H(n), b(k)]."""
    h, b = StateOp(partial(apply_H, ctx, n)), ctx.vertex.b_opmat(1, k)
    return identity(ctx.N, ([(1.0, [h, b])], [(1.0, [b, h])]))


@dataclass(frozen=True)
class SymmetryBreakingReport:
    """Vacuum test of the reflection generators plus the surviving-symmetry list."""

    residual: Residual
    broken: tuple[tuple[int, int], ...]
    expectations: dict


def check_symmetry_breaking(ctx: BoundaryContext) -> SymmetryBreakingReport:
    """Measure b(k) on the vacuum against the numeric reflection matrix.

    The residual compares b(k) vacuum with B(k) times the vacuum over the
    grid through ``vertex.b_vacuum_evaluator``.  The broken-generator list
    collects the index pairs (i, j) whose vacuum expectation is nonzero for
    some grid k: those components act on the vacuum with a nonvanishing
    value, so the symmetry they generate does not fix it.
    """
    vac = ctx.space.vacuum()
    worst = 0.0
    broken: set[tuple[int, int]] = set()
    expectations: dict = {}
    for k in ctx.grid:
        worst = max(worst, b_vacuum_evaluator(ctx.vertex, k)(vac))
        got = ctx.vertex.apply_b(k, one_hot(vac, ctx.N))
        for i in range(ctx.N):
            for j in range(ctx.N):
                expect = got[j][i].amps.get((), 0j)
                expectations[(i, j, k)] = expect
                if abs(expect) > _EXPECTATION_FLOOR:
                    broken.add((i, j))
    residual = Residual(worst, {"relation": "ssb", "momenta": tuple(ctx.grid)})
    return SymmetryBreakingReport(
        residual=residual, broken=tuple(sorted(broken)), expectations=expectations
    )
