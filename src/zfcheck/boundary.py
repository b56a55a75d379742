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
``worst_over`` aggregates one over a fixed sample list.

Each generator sends one batch of aux vectors through b: the lowered states
[a_j(-k) s]_j form one vector for at and alpha, and the one-hot vectors of s
give the columns of b(-k) s for at† and alpha†.  On top of the vertex
context's cached per-word matrices, a small memo keyed by the state's
amplitude map avoids recomputing all N components when a relation evaluator
asks for the same state once per color.
"""

from __future__ import annotations

from typing import Callable

from .fock import FockState
from .relations import (
    CoVec, OpMat, RMat, Vec, delta_bridge, identity_residual, one_hot, states_bridge
)
from .rmatrix import eval_r, perm_conj
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
            from .rmatrix import check_b_unitarity

            for k in self.grid:
                worst = max(worst, check_b_unitarity(vertex.reflection, k).value)
            if worst >= involution_tol:
                from .errors import NotWhitelistedError

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

    def b_opmat(self, space_label: int, k: float) -> OpMat:
        return self.vertex.b_opmat(space_label, k)

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

    The mixed relation BNl-3 only sees its contact channels when the momenta
    collide: a halved delta bridge at k1 == k2, a halved b-mediated bridge at
    k1 == -k2.  A zero-free grid never fires both at once.
    """
    N = ctx.N
    r = ctx.space.r
    at1 = ctx.at_vec(1, k1)
    at2 = ctx.at_vec(2, k2)
    atdag1 = ctx.atdag_covec(1, k1)
    atdag2 = ctx.atdag_covec(2, k2)
    b1 = ctx.b_opmat(1, k1)
    b2 = ctx.b_opmat(2, k2)
    r_12 = RMat(1, 2, eval_r(r, k1, k2))
    r_21 = RMat(1, 2, perm_conj(eval_r(r, k2, k1), N))
    rp_12 = RMat(1, 2, eval_r(r, k1, -k2))
    rp_21 = RMat(1, 2, perm_conj(eval_r(r, k2, -k1), N))
    rbar_21 = RMat(1, 2, perm_conj(eval_r(r, -k2, -k1), N))

    def bnl3(s: FockState) -> float:
        rhs = [(1.0, [atdag2, r_12, at1])]
        if k1 == k2:
            rhs.append((0.5, delta_bridge(1, 2, N, s)))
        if k1 == -k2:
            rhs.append((0.5, states_bridge(1, 2, ctx.vertex.apply_b(k1, one_hot(s, N)))))
        return identity_residual([(1.0, [at1, atdag2])], rhs, s, N)

    return {
        "BNl-1": lambda s: identity_residual(
            [(1.0, [at1, at2])], [(1.0, [r_21, at2, at1])], s, N
        ),
        "BNl-2": lambda s: identity_residual(
            [(1.0, [atdag1, atdag2])], [(1.0, [atdag2, atdag1, r_21])], s, N
        ),
        "BNl-3": bnl3,
        "BNl-4": lambda s: identity_residual(
            [(1.0, [at1, b2])], [(1.0, [r_21, b2, rp_12, at1])], s, N
        ),
        "BNl-5": lambda s: identity_residual(
            [(1.0, [b1, atdag2])], [(1.0, [atdag2, r_12, b1, rp_21])], s, N
        ),
        "eq:bb": lambda s: identity_residual(
            [(1.0, [r_12, b1, rp_21, b2])], [(1.0, [b2, rp_12, b1, rbar_21])], s, N
        ),
        "rbrb": b_involution_evaluator(ctx.vertex, k1),
    }


def rho_evaluator(ctx: BoundaryContext, k: float) -> ResidualFn:
    """Residual of at_i(k) = sum_j b_ij(k) at_j(-k) and its adjoint, per sample.

    The adjoint side creates a particle, so samples need one unit of headroom.
    """
    N = ctx.N
    at_k = ctx.at_vec(1, k)
    at_mk = ctx.at_vec(1, -k)
    atdag_k = ctx.atdag_covec(1, k)
    atdag_mk = ctx.atdag_covec(1, -k)
    b_k = ctx.b_opmat(1, k)
    b_mk = ctx.b_opmat(1, -k)

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
    r = ctx.space.r
    al1 = ctx.alpha_vec(1, k1)
    al2 = ctx.alpha_vec(2, k2)
    aldag1 = ctx.alpha_dag_covec(1, k1)
    aldag2 = ctx.alpha_dag_covec(2, k2)
    r_12 = RMat(1, 2, eval_r(r, k1, k2))
    r_21 = RMat(1, 2, perm_conj(eval_r(r, k2, k1), N))
    plain_a = ctx.vertex.a_vec(1, k1)
    plain_adag = ctx.vertex.adag_covec(1, k1)
    at1 = ctx.at_vec(1, k1)
    atdag1 = ctx.atdag_covec(1, k1)
    b1 = ctx.b_opmat(1, k1)
    al1_neg = ctx.alpha_vec(1, -k1)

    def aad(s: FockState) -> float:
        rhs = [(1.0, [aldag2, r_12, al1])]
        if k1 == k2:
            rhs.append((1.0, delta_bridge(1, 2, N, s)))
        return identity_residual([(1.0, [al1, aldag2])], rhs, s, N)

    def coset(s: FockState) -> float:
        vec_side = identity_residual(
            [(1.0, [at1])], [(0.5, [plain_a]), (0.5, [al1])], s, N
        )
        covec_side = identity_residual(
            [(1.0, [atdag1])], [(0.5, [plain_adag]), (0.5, [aldag1])], s, N
        )
        return max(vec_side, covec_side)

    return {
        "rhoB-aa": lambda s: identity_residual(
            [(1.0, [al1, al2])], [(1.0, [r_21, al2, al1])], s, N
        ),
        "rhoB-adad": lambda s: identity_residual(
            [(1.0, [aldag1, aldag2])], [(1.0, [aldag2, aldag1, r_21])], s, N
        ),
        "rhoB-aad": aad,
        "rhoB-involution": lambda s: identity_residual(
            [(1.0, [b1, al1_neg])], [(1.0, [plain_a])], s, N
        ),
        "coset": coset,
    }
