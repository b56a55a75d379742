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

Each generator sends one batch of aux vectors through b: the lowered states
[a_j(-k) s]_j form one vector for at and alpha, and the one-hot vectors of s
give the columns of b(-k) s for at† and alpha†.  The evaluator and
``apply_H`` ask for one color at a time, so on top of the vertex context's
cached per-word matrices a small memo, keyed by generator, momentum and the
state's amplitude map, keeps all N components of each application.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .errors import NotWhitelistedError
from .fock import FockState
from .relations import (
    CoVec, Vec, b_exchange_triple, delta_term, exchange_triple, identity_residual, one_hot
)
from .rmatrix import check_b_unitarity
from .vertex import VertexContext, b_involution_evaluator

ResidualFn = Callable[[FockState], float]

_MEMO_LIMIT = 8192


class BoundaryContext:
    """A vertex context plus memoized component applications of at, at†, b rows."""

    def __init__(self, vertex: VertexContext, involution_tol: float = 1e-11):
        self.vertex = vertex
        self.space = vertex.space
        self.N = vertex.N
        self.grid = vertex.grid
        self._memo: dict = {}
        # The dressed reflection operator must square to the identity across
        # the grid before anything downstream trusts it; at the matrix level
        # this is exactly B(k) B(-k) = I conjugated by invertible chains.
        worst = 0.0
        if vertex.b_allowed():
            for k in self.grid:
                worst = max(worst, check_b_unitarity(vertex.reflection, k).value)
            if worst >= involution_tol:
                raise NotWhitelistedError(
                    f"b(k)b(-k)=id fails at matrix level: residual {worst:.3e}"
                )
        self.involution_residual = worst

    # -- memo plumbing -------------------------------------------------------

    def _state_key(self, state: FockState) -> tuple:
        return tuple(sorted(state.amps.items()))

    def _memoized(self, tag: str, k: float, state: FockState, build):
        key = (tag, float(k), self._state_key(state))
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            hit = build()
            self._memo[key] = hit
        return hit

    # -- generators ------------------------------------------------------------

    def _alpha_all(self, k: float, state: FockState) -> tuple[FockState, ...]:
        """alpha_i(k) s = sum_j b_ij(k) a_j(-k) s for every color i."""
        lowered = [self.space.apply_annihilation(j, -k, state) for j in range(self.N)]
        return tuple(self.vertex.apply_b(k, [lowered])[0])

    def _alpha_dag_all(self, k: float, state: FockState) -> tuple[FockState, ...]:
        """alpha†_i(k) s = sum_j a†_j(-k) b_ji(-k) s for every color i."""
        sp = self.space
        return tuple(
            FockState.combine(
                (1.0 + 0j, sp.apply_creation(j, -k, s)) for j, s in enumerate(column) if s.amps
            ).pruned(sp.prune)
            for column in self.vertex.apply_b(-k, one_hot(state, self.N))
        )

    def _halved(self, tag: str, plain, dressed_all, k: float, state: FockState):
        """Components i of 1/2 (plain_i(k) + dressed_i(k)) s, memoized."""

        def build() -> tuple[FockState, ...]:
            return tuple(
                FockState.combine([(0.5 + 0j, plain(i, k, state)), (0.5 + 0j, dressed)])
                .pruned(self.space.prune)
                for i, dressed in enumerate(dressed_all(k, state))
            )

        return self._memoized(tag, k, state, build)

    def _a_tilde_all(self, k: float, state: FockState) -> tuple[FockState, ...]:
        return self._halved("at", self.space.apply_annihilation, self._alpha_all, k, state)

    def _a_tilde_dagger_all(self, k: float, state: FockState) -> tuple[FockState, ...]:
        return self._halved("atdag", self.space.apply_creation, self._alpha_dag_all, k, state)

    def apply_a_tilde(self, i: int, k: float, state: FockState) -> FockState:
        """Halved annihilation-type boundary generator component i at momentum k."""
        self.grid.index_of(k)
        self.space._check_color(i)
        return self._a_tilde_all(k, state)[i]

    def apply_a_tilde_dagger(self, i: int, k: float, state: FockState) -> FockState:
        """Halved creation-type boundary generator; raises past the particle cap."""
        self.grid.index_of(k)
        self.space._check_color(i)
        return self._a_tilde_dagger_all(k, state)[i]

    # -- factor builders for the relation evaluator ------------------------------

    def at_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, lambda c, s: self._a_tilde_all(k, s)[c])

    def atdag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(space_label, lambda c, s: self._a_tilde_dagger_all(k, s)[c])

    # rho_B images of the bulk generators: alpha = b a', alpha† = a'† b'.

    def alpha_vec(self, space_label: int, k: float) -> Vec:
        return Vec(
            space_label,
            lambda c, s: self._memoized("alpha", k, s, lambda: self._alpha_all(k, s))[c],
        )

    def alpha_dag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(
            space_label,
            lambda c, s: self._memoized("alphadag", k, s, lambda: self._alpha_dag_all(k, s))[c],
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
    N = ctx.N
    at_k = ctx.at_vec(1, k)
    at_mk = ctx.at_vec(1, -k)
    atdag_k = ctx.atdag_covec(1, k)
    atdag_mk = ctx.atdag_covec(1, -k)
    b_k = ctx.vertex.b_opmat(1, k)
    b_mk = ctx.vertex.b_opmat(1, -k)

    def fn(s: FockState) -> float:
        vec_side = identity_residual([(1.0, [at_k])], [(1.0, [b_k, at_mk])], s, N)
        covec_side = identity_residual(
            [(1.0, [atdag_k])], [(1.0, [atdag_mk, b_mk])], s, N
        )
        return max(vec_side, covec_side)

    return fn


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

    def coset(s: FockState) -> float:
        vec_side = identity_residual(
            [(1.0, [at1])], [(0.5, [plain_a]), (0.5, [al1])], s, N
        )
        covec_side = identity_residual(
            [(1.0, [atdag1])], [(0.5, [plain_adag]), (0.5, [aldag1])], s, N
        )
        return max(vec_side, covec_side)

    return {
        **dict(zip(("rhoB-aa", "rhoB-adad", "rhoB-aad"), triple)),
        "rhoB-involution": lambda s: identity_residual(
            [(1.0, [b1, al1_neg])], [(1.0, [plain_a])], s, N
        ),
        "coset": coset,
    }
