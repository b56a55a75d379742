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

Every relation is a builder from (context, momenta) to its (lhs, rhs)
pairs; ``relations.identity`` turns them into a per-sample residual
function, and ``harness.RELATIONS`` measures each.  The exchange relations
are the two families of ``relations``: the bulk triple (``exchange_triple``)
of at, at† (BNl-1..3) and of alpha, alpha† (rhoB-aa, adad, aad), and the
triple with b (``b_exchange_triple``: BNl-4, BNl-5, eq:bb).

Every generator maps a batch of aux vectors, as T and b do, and sends the
whole batch through b once: alpha(k) = b(k) a(-k) takes 1-vectors [s] to
b(k) [a_j(-k) s]_j, alpha†(k) = a†(-k) b(-k) takes N-vectors (s_i) to the
a†(-k) row of b(-k) (s_i), and at and at† are their halves with a(k) and
a†(k).  The generators keep no images.  On top of the vertex context's
matrices, cached per momentum tuple, the context keeps one memo: per basis
word w, the images at†(k) at(k) w over the grid that the charges H(n) sum.

B need only be admissible, and the vertex context's whitelist gate, at the
run's tolerance, is the one judge of that: B(k) B(-k) = I and the
reflection equation.  When the gate failed, every generator that goes
through b raises ``NotWhitelistedError`` from ``VertexContext.apply_b``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Sequence

from .fock import FockState, Word
from .relations import AuxVec, CoVec, Pair, Vec, b_exchange_triple, delta_term, exchange_triple
from .vertex import VertexContext


class BoundaryContext:
    """A vertex context plus the batch maps of at, at†, alpha and alpha†.

    It adds no check on B of its own: any vertex context will do.
    ``pair_images`` fills its one cache, ``_memo``.
    """

    def __init__(self, vertex: VertexContext):
        self.vertex = vertex
        self.space = vertex.space
        self.N = vertex.N
        self.grid = vertex.grid
        self._memo: dict[Word, tuple[FockState, ...]] = {}

    def pair_images(self, words: Sequence[Word]) -> list[tuple[FockState, ...]]:
        """Per word w, the images at†(k) at(k) w over the grid, memoized.

        The words not seen before go through the at column and the at† row
        in one batch per grid k.
        """
        memo = self._memo
        new = [w for w in words if w not in memo]
        if new:
            vecs = [[FockState.wrap({w: 1.0 + 0j})] for w in new]
            rows = [self.apply_a_tilde_dagger(k, self.apply_a_tilde(k, vecs)) for k in self.grid]
            for j, w in enumerate(new):
                memo[w] = tuple(row[j][0] for row in rows)
        return [memo[w] for w in words]

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
        return self._halved(self.space.annihilation_column(k, vecs), self._alpha(k, vecs))

    def apply_a_tilde_dagger(self, k: float, vecs: Sequence[AuxVec]) -> list[AuxVec]:
        """at†(k) = (a†(k) + alpha†(k)) / 2 on a batch of N-vectors (s_i).

        The image of (s_i) is [sum_i at†_i(k) s_i].  Raises past the particle cap.
        """
        self.grid.index_of(k)
        return self._halved(self.space.creation_row(k, vecs), self._alpha_dag(k, vecs))

    # -- factor builders for the relation evaluator ------------------------------

    def at_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, partial(self.apply_a_tilde, k))

    def atdag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(space_label, partial(self.apply_a_tilde_dagger, k))

    # rho_B images of the bulk generators: alpha = b a', alpha† = a'† b'.

    def alpha_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, partial(self._alpha, k))

    def alpha_dag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(space_label, partial(self._alpha_dag, k))


# ---------------------------------------------------------------------------
# The relations, each as its (lhs, rhs) pairs


def boundary_exchange(ctx: BoundaryContext, k1: float, k2: float) -> tuple[Pair, ...]:
    """The six exchange relations of the boundary algebra at (k1, k2).

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
    return (
        *exchange_triple(r, k1, k2, ctx.at_vec, ctx.atdag_covec, contact),
        *b_exchange_triple(r, k1, k2, ctx.at_vec, ctx.atdag_covec, b),
    )


def rho(ctx: BoundaryContext, k: float) -> list[Pair]:
    """at_i(k) = sum_j b_ij(k) at_j(-k), and its adjoint.

    The adjoint side creates a particle, so samples need one unit of headroom.
    """
    b_k, b_mk = ctx.vertex.b_opmat(1, k), ctx.vertex.b_opmat(1, -k)
    return [
        ([(1.0, [ctx.at_vec(1, k)])], [(1.0, [b_k, ctx.at_vec(1, -k)])]),
        ([(1.0, [ctx.atdag_covec(1, k)])], [(1.0, [ctx.atdag_covec(1, -k), b_mk])]),
    ]


# The substitution rho_B: a -> alpha = b a', a† -> alpha† = a'† b', with
# alpha_i(k) = sum_j b_ij(k) a_j(-k) and alpha†_i(k) = sum_j a†_j(-k) b_ji(-k).
# The single-momentum facts (involution, coset) take a pair and ignore k2.


def substitution_exchange(ctx: BoundaryContext, k1: float, k2: float) -> tuple[Pair, ...]:
    """The three bulk exchange relations, verbatim under the substitution (the
    mixed one with its full delta term at k1 == k2)."""
    contact = [delta_term(ctx.N)] if k1 == k2 else []
    return exchange_triple(ctx.space.r, k1, k2, ctx.alpha_vec, ctx.alpha_dag_covec, contact)


def substitution_involution(ctx: BoundaryContext, k1: float, k2: float) -> list[Pair]:
    """Applying the substitution twice restores the bulk annihilator: b(k) alpha(-k) = a(k)."""
    b1, al1_neg = ctx.vertex.b_opmat(1, k1), ctx.alpha_vec(1, -k1)
    return [([(1.0, [b1, al1_neg])], [(1.0, [ctx.vertex.a_vec(1, k1)])])]


def coset(ctx: BoundaryContext, k1: float, k2: float) -> list[Pair]:
    """The halved generators are the average of the bulk ones and their images."""
    at1, atdag1 = ctx.at_vec(1, k1), ctx.atdag_covec(1, k1)
    plain_a, plain_adag = ctx.vertex.a_vec(1, k1), ctx.vertex.adag_covec(1, k1)
    al1, aldag1 = ctx.alpha_vec(1, k1), ctx.alpha_dag_covec(1, k1)
    return [
        ([(1.0, [at1])], [(0.5, [plain_a]), (0.5, [al1])]),
        ([(1.0, [atdag1])], [(0.5, [plain_adag]), (0.5, [aldag1])]),
    ]
