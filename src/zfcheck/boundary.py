"""Boundary generators built from a, a† and the dressed reflection operator.

The halved combinations

    at_i(k)  = 1/2 ( a_i(k)  + sum_j b_ij(k)  a_j(-k) )
    at†_i(k) = 1/2 ( a†_i(k) + sum_j a†_j(-k) b_ji(-k) )

close a boundary exchange algebra on the Fock space: the same R-weighted
relations as a and a†, except that the mixed relation picks up two extra
channels, a Kronecker delta supported on k1 = k2 and a reflection term
supported on k1 = -k2, both carrying the factor 1/2.  This module realizes
the generators concretely and measures all of those relations, plus two
structural facts: the reflection-twisted map at_i(k) -> sum_j b_ij(k)
at_j(-k) acts as the identity, and the substitution a -> b a', a† -> a'† b'
(primes flip the momentum sign) is an automorphism of the bulk exchange
algebra whose average with the identity reproduces the halved generators.

Every relation is exposed as a per-sample residual function (state ->
float), which lets a caller pick sample sectors relation by relation;
``rmatrix.worst_over`` aggregates one over a fixed sample list.  The
exchange relations are the two families of ``relations``: the bulk triple
(``exchange_triple``) of at, at† (BNl-1..3) and of alpha, alpha† (rhoB-aa,
adad, aad), and the triple with b (``b_exchange_triple``: BNl-4, BNl-5,
eq:bb).

Every generator maps a batch of aux vectors, as T and b do, and sends the
whole batch through b once: alpha(k) = b(k) a(-k) takes 1-vectors [s] to
b(k) [a_j(-k) s]_j, alpha†(k) = a†(-k) b(-k) takes N-vectors (s_i) to the
a†(-k) row of b(-k) (s_i), and at and at† are their halves with a(k) and
a†(k).  On top of the vertex context's cached per-word matrices a small
memo, keyed by generator, momentum and aux vector, keeps each image.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Sequence

from .errors import NotWhitelistedError
from .fock import FockState
from .relations import (
    AuxVec, CoVec, ResidualFn, Vec, b_exchange_triple, delta_term, exchange_triple, identity
)
from .vertex import VertexContext, b_involution_evaluator

_MEMO_LIMIT = 8192
# The largest |B(k) B(-k) - I| over the grid that a context accepts.
_INVOLUTION_LIMIT = 1e-11


class BoundaryContext:
    """A vertex context plus the memoized batch maps of at, at†, alpha and alpha†."""

    def __init__(self, vertex: VertexContext):
        self.vertex = vertex
        self.space = vertex.space
        self.N = vertex.N
        self.grid = vertex.grid
        self._memo: dict = {}
        # The dressed reflection operator must square to the identity across
        # the grid before anything downstream trusts it; at the matrix level
        # this is exactly B(k) B(-k) = I conjugated by invertible chains, which
        # the whitelist gate measured at every grid momentum.
        worst = 0.0
        if vertex.b_allowed():
            checks = vertex.whitelist.checks
            worst = max(r.value for r in checks if r.context["relation"] == "B-unitarity")
            if worst >= _INVOLUTION_LIMIT:
                raise NotWhitelistedError(
                    f"b(k)b(-k)=id fails at matrix level: residual {worst:.3e}"
                )
        self.involution_residual = worst

    def _memoized(self, tag: str, k: float, build, vecs: Sequence[AuxVec]) -> list[AuxVec]:
        """The images of a batch; ``build`` maps the vectors not seen before in one call."""
        memo = self._memo
        keys = [(tag, float(k), tuple(tuple(sorted(s.amps.items())) for s in v)) for v in vecs]
        todo = {key: v for key, v in zip(keys, vecs) if key not in memo}
        fresh = dict(zip(todo, map(tuple, build(list(todo.values()))))) if todo else {}
        out = [fresh[key] if key in fresh else memo[key] for key in keys]
        if len(memo) + len(fresh) > _MEMO_LIMIT:
            memo.clear()
        memo.update(fresh)
        return out

    def _alpha(self, k: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """alpha(k) = b(k) a(-k): [s] -> [sum_j b_ij(k) a_j(-k) s]_i."""
        return self.vertex.apply_b(k, self.space.annihilation_column(-k, vecs))

    def _alpha_dag(self, k: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """alpha†(k) = a†(-k) b(-k): (s_i) -> [sum_ij a†_j(-k) b_ji(-k) s_i]."""
        return self.space.creation_row(-k, self.vertex.apply_b(-k, vecs))

    def _halved(self, plain, dressed) -> list[list[FockState]]:
        """1/2 (plain + dressed), image by image and row by row."""
        prune = self.space.prune
        return [
            [FockState.combine([(0.5 + 0j, p), (0.5 + 0j, d)]).pruned(prune) for p, d in pair]
            for pair in map(zip, plain, dressed)
        ]

    def apply_a_tilde(self, k: float, vecs: Sequence[AuxVec]) -> list[AuxVec]:
        """at(k) = (a(k) + alpha(k)) / 2 on a batch of 1-vectors [s]: [at_i(k) s]_i."""
        self.grid.index_of(k)
        return self._memoized("at", k, lambda todo: self._halved(
            self.space.annihilation_column(k, todo), self._alpha(k, todo)
        ), vecs)

    def apply_a_tilde_dagger(self, k: float, vecs: Sequence[AuxVec]) -> list[AuxVec]:
        """at†(k) = (a†(k) + alpha†(k)) / 2 on a batch of N-vectors (s_i).

        The image of (s_i) is [sum_i at†_i(k) s_i].  Raises past the particle cap.
        """
        self.grid.index_of(k)
        return self._memoized("atdag", k, lambda todo: self._halved(
            self.space.creation_row(k, todo), self._alpha_dag(k, todo)
        ), vecs)

    # -- factor builders for the relation evaluator ------------------------------

    def at_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, partial(self.apply_a_tilde, k))

    def atdag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(space_label, partial(self.apply_a_tilde_dagger, k))

    # rho_B images of the bulk generators: alpha = b a', alpha† = a'† b'.

    def alpha_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, partial(self._memoized, "alpha", k, partial(self._alpha, k)))

    def alpha_dag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(
            space_label, partial(self._memoized, "alphadag", k, partial(self._alpha_dag, k))
        )


# ---------------------------------------------------------------------------
# Per-sample relation evaluators


def boundary_relation_evaluators(
    ctx: BoundaryContext, k1: float, k2: float
) -> dict[str, ResidualFn]:
    """Residual functions for the seven boundary-algebra relations at (k1, k2).

    BNl-1..3 are the bulk exchange triple of at and at†, BNl-4, BNl-5 and
    eq:bb the exchange triple with b.  The mixed relation BNl-3 only sees its
    contact channels when the momenta collide: a halved delta at k1 == k2, a
    halved b(k1) bridging the two spaces at k1 == -k2.  A zero-free grid
    never fires both at once.
    """
    r, b = ctx.space.r, ctx.vertex.b_opmat
    contact = []
    if k1 == k2:
        contact.append(delta_term(ctx.N, 0.5))
    if k1 == -k2:
        contact.append((0.5, [replace(b(1, k1), space_in=2)]))
    fns = (
        *exchange_triple(r, k1, k2, ctx.at_vec, ctx.atdag_covec, contact),
        *b_exchange_triple(r, k1, k2, ctx.at_vec, ctx.atdag_covec, b),
    )
    tags = ("BNl-1", "BNl-2", "BNl-3", "BNl-4", "BNl-5", "eq:bb")
    return {**dict(zip(tags, fns)), "rbrb": b_involution_evaluator(ctx.vertex, k1)}


def rho_evaluator(ctx: BoundaryContext, k: float) -> ResidualFn:
    """Residual of at_i(k) = sum_j b_ij(k) at_j(-k) and its adjoint, per sample.

    The adjoint side creates a particle, so samples need one unit of headroom.
    """
    at_k = ctx.at_vec(1, k)
    at_mk = ctx.at_vec(1, -k)
    atdag_k = ctx.atdag_covec(1, k)
    atdag_mk = ctx.atdag_covec(1, -k)
    b_k = ctx.vertex.b_opmat(1, k)
    b_mk = ctx.vertex.b_opmat(1, -k)
    return identity(
        ctx.N,
        ([(1.0, [at_k])], [(1.0, [b_k, at_mk])]),
        ([(1.0, [atdag_k])], [(1.0, [atdag_mk, b_mk])]),
    )


def rho_B_evaluators(
    ctx: BoundaryContext, k1: float, k2: float
) -> dict[str, ResidualFn]:
    """Automorphism, involution and coset residual functions at (k1, k2).

    With alpha_i(k) = sum_j b_ij(k) a_j(-k) and alpha†_i(k) = sum_j a†_j(-k)
    b_ji(-k), the three bulk exchange relations must survive the substitution
    verbatim (the mixed one with its full delta term at k1 == k2), applying
    the substitution twice must restore the bulk annihilator, and the halved
    generators must equal the average of the bulk generators with their
    images.  The single-momentum facts (involution, coset) ignore k2.
    """
    N = ctx.N
    contact = [delta_term(N)] if k1 == k2 else []
    triple = exchange_triple(
        ctx.space.r, k1, k2, ctx.alpha_vec, ctx.alpha_dag_covec, contact
    )
    plain_a = ctx.vertex.a_vec(1, k1)
    plain_adag = ctx.vertex.adag_covec(1, k1)
    at1 = ctx.at_vec(1, k1)
    atdag1 = ctx.atdag_covec(1, k1)
    al1, aldag1 = ctx.alpha_vec(1, k1), ctx.alpha_dag_covec(1, k1)
    b1 = ctx.vertex.b_opmat(1, k1)
    al1_neg = ctx.alpha_vec(1, -k1)
    return {
        **dict(zip(("rhoB-aa", "rhoB-adad", "rhoB-aad"), triple)),
        "rhoB-involution": identity(N, ([(1.0, [b1, al1_neg])], [(1.0, [plain_a])])),
        "coset": identity(
            N,
            ([(1.0, [at1])], [(0.5, [plain_a]), (0.5, [al1])]),
            ([(1.0, [atdag1])], [(0.5, [plain_adag]), (0.5, [aldag1])]),
        ),
    }
