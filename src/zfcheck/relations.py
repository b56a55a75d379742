"""A small evaluator for operator identities with matrix-valued coefficients.

Every identity this package checks has the same shape: a product of factors,
each factor living in one or two labeled auxiliary color spaces, applied to a
concrete Fock state.  A factor is one of

* ``Vec``     -- an annihilation-type column of operators, sum_c x_c e_c,
                 mapping 1-vectors [s] to N-vectors [x_c s]_c;
* ``CoVec``   -- a creation-type row of operators, sum_c x†_c e†_c, mapping
                 N-vectors (s_c) to 1-vectors [sum_c x†_c s_c];
* ``OpMat``   -- an N x N matrix of operators acting in one space (a vertex
                 operator or a dressed reflection operator), mapping
                 N-vectors to N-vectors;
* ``NumMat``  -- an N x N scalar matrix in one space;
* ``RMat``    -- an N^2 x N^2 scalar matrix coupling an ordered pair of
                 spaces (an exchange-matrix value);
* ``StateOp`` -- a color-blind operator (a charge H(n)), applied to every
                 entry.

Every factor is a batch map on aux vectors, lists of states, and maps all of
a product's aux vectors in one call.  It acts on 0, 1 or 2 spaces: it reads
their legs, or each entry as the 1-vector [s], and it writes their legs or
closes them.  A space that a factor reads while it has no open leg is first
opened with the identity: its row leg opens and its column leg dangles, in
``space_in`` if an ``OpMat`` or ``NumMat`` gives one, and no space gets a
second column leg.  That is how a contact term bridges two spaces: the
delta term is ``NumMat(1, I, space_in=2)``.

Evaluating a product against a state yields a tensor of Fock states indexed
by the exposed color legs: one "out" (row) leg per space whose last factor
left a row open, one "in" (column) leg per space where a creation row or a
matrix column never got contracted.  Two sides of an identity evaluate to
tensors with the same legs; their entrywise difference is the residual.

Factors are listed in operator order (left to right) and applied to the
state right to left, so the rightmost factor acts first.

A tensor holds only its nonzero entries, a map from leg-index tuple to
state; an absent index is the zero state.  Every factor is linear, so it
maps the zero state to the zero state, and the evaluator relies on that: it
forms aux vectors only from the entries present, so no factor sees an empty
state or an aux vector without one nonzero entry, and a scalar matrix costs
only its nonzero entries (the rational R has at most 2 of N^2 per column).

Every state-level relation is measured by ``identity_residual`` on two sums
of factor products.  The exchange relations come in two families, each
written once here: ``exchange_triple`` (x x, x† x† and x x† with its contact
terms) and ``b_exchange_triple`` (x b, b x† and b b); the layers instantiate
them with their own generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Sequence, Union

import numpy as np

from . import rmatrix
from .fock import AuxVec, FockState

# An operator factor maps a batch of aux vectors to their images; for a
# matrix, out_i = sum_l M_il s_l.
BatchOp = Callable[[Sequence[AuxVec]], Sequence[AuxVec]]

_ZERO = FockState()  # the empty slot of an aux vector


def one_hot(state: FockState, N: int) -> list[list[FockState]]:
    """The N aux vectors e_l (x) state; their images are the columns of M state."""
    return [[state if c == l else _ZERO for c in range(N)] for l in range(N)]


class _Factor:
    """A batch map on aux vectors over ``legs``, the row leg ("open", space) of
    each of its 0, 1 or 2 spaces.  It reads those legs, or each entry as [s]
    if not ``reads``, and it writes them, or closes them if not ``writes``."""

    reads = writes = True
    space_in: int | None = None
    legs = cached_property(lambda f: (("open", f.space),))
    batch = property(attrgetter("op"))


@dataclass(frozen=True)
class Vec(_Factor):
    space: int
    op: BatchOp
    reads = False


@dataclass(frozen=True)
class CoVec(_Factor):
    space: int
    op: BatchOp
    writes = False


@dataclass(frozen=True)
class OpMat(_Factor):
    space: int
    op: BatchOp
    space_in: int | None = None


class _ScalarMatrix(_Factor):
    mat: np.ndarray
    columns = cached_property(lambda self: _columns(self.mat))  # built once per factor

    def batch(self, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """out_r = sum_l M_rl s_l over the nonzero entries M_rl of each column l."""
        images = []
        for vec in vecs:
            terms: list[list[tuple[complex, FockState]]] = [[] for _ in self.columns]
            for l, s in enumerate(vec):
                for r, m in self.columns[l] if s.amps else ():
                    terms[r].append((m, s))
            images.append([FockState.combine(t) if t else _ZERO for t in terms])
        return images


@dataclass(frozen=True)
class NumMat(_ScalarMatrix):
    space: int
    mat: np.ndarray
    space_in: int | None = None


@dataclass(frozen=True)
class RMat(_ScalarMatrix):
    space_a: int
    space_b: int
    mat: np.ndarray
    legs = cached_property(lambda f: (("open", f.space_a), ("open", f.space_b)))


@dataclass(frozen=True)
class StateOp(_Factor):
    op: Callable[[FockState], FockState]
    legs = ()

    def batch(self, vecs: Sequence[AuxVec]) -> Sequence[AuxVec]:
        return [[self.op(s)] for (s,) in vecs]


Factor = Union[Vec, CoVec, OpMat, NumMat, RMat, StateOp]

Label = tuple[str, int]  # ("out" | "in" | "open", space)
Index = tuple[int, ...]


@dataclass
class LabeledTensor:
    """The nonzero Fock-state entries of a tensor with named color axes.

    ``entries`` maps a leg-index tuple, one index per axis, to a state; an
    absent index is the zero state.
    """

    axes: tuple[Label, ...]
    entries: dict[Index, FockState]


def _columns(mat: np.ndarray) -> list[list[tuple[int, complex]]]:
    """Per column of a scalar matrix, the rows and values of its nonzero entries."""
    mat = np.asarray(mat, dtype=complex)
    return [
        [(r, v) for r, v in enumerate(mat[:, c].tolist()) if v != 0]
        for c in range(mat.shape[1])
    ]


@lru_cache(maxsize=None)
def _rows(N: int, legs: int) -> list[Index]:
    """The leg indices of rows 0, 1, ... of an image on ``legs`` legs: r = a*N + b for two."""
    return list(product(range(N), repeat=legs))


class _Accumulator:
    """Mutable tensor-with-labels used while scanning a factor product."""

    def __init__(self, state: FockState, N: int):
        self.N = N
        self.entries: dict[Index, FockState] = {(): state} if state.amps else {}
        self.labels: list[Label] = []

    def _open(self, space: int, space_in: int | None) -> None:
        """Apply the identity on a fresh space: its row leg opens in front, its
        column leg dangles last, in ``space_in`` if given, and must be new."""
        col = ("in", space if space_in is None else space_in)
        if col in self.labels:
            raise ValueError(f"space {col[1]} already closed: it has a column leg")
        self.labels = [("open", space), *self.labels, col]
        self.entries = {
            (c,) + idx + (c,): s for idx, s in self.entries.items() for c in range(self.N)
        }

    def apply(self, f: Factor) -> None:
        """One call of a factor's batch map on every aux vector.

        A fresh space it reads is first opened with the identity, and the legs
        it reads move to the front of the index.  The entries that differ only in them form one
        vector, keyed by the rest t of the index (a*N + b indexes two legs a,
        b); with no read leg each entry is the 1-vector [s].  The read legs go
        and the written legs open in front: row r of the image of the vector
        keyed t lands at (r,) + t, or at divmod(r, N) + t for two legs.
        """
        if not isinstance(f, _Factor):
            raise TypeError(f"unknown factor {f!r}")
        N, legs = self.N, f.legs
        for leg in legs:
            if not f.reads:
                if leg in self.labels or ("in", leg[1]) in self.labels:
                    raise ValueError(
                        f"annihilation-type factor must be rightmost in space {leg[1]}"
                    )
            elif leg not in self.labels:
                self._open(leg[1], f.space_in)
            elif f.space_in is not None:
                raise ValueError(f"space_in needs a fresh space, but space {leg[1]} is open")
        labels = self.labels
        ps = list(map(labels.index, legs)) if f.reads else []
        n = len(ps)
        if n and max(ps) >= n:
            order = ps + [q for q in range(len(labels)) if q not in ps]
            labels, get = [labels[q] for q in order], itemgetter(*order)
            self.entries = {get(idx): s for idx, s in self.entries.items()}
            ps = list(range(n))
        self.labels = [*legs, *labels[n:]] if f.writes else labels[n:]
        groups: dict[Index, list[FockState]] = {}
        for idx, s in self.entries.items():
            col = 0
            for p in ps:
                col = col * N + idx[p]
            groups.setdefault(idx[n:], [_ZERO] * N**n)[col] = s
        self.entries = out = {}
        if groups:
            rows = _rows(N, len(legs) if f.writes else 0)
            for t, image in zip(groups, f.batch(list(groups.values()))):
                for r, s in zip(rows, image):
                    if s.amps:
                        out[r + t] = s

    def finish(self) -> LabeledTensor:
        labels = [
            ("out", s) if kind == "open" else (kind, s) for kind, s in self.labels
        ]
        order = sorted(
            range(len(labels)), key=lambda i: (labels[i][1], labels[i][0] != "out")
        )
        axes = tuple(labels[i] for i in order)
        entries = self.entries
        if order != sorted(order):  # two or more legs, so itemgetter gives tuples
            get = itemgetter(*order)
            entries = {get(idx): s for idx, s in entries.items()}
        return LabeledTensor(axes, entries)


def evaluate(factors: Sequence[Factor], state: FockState, N: int) -> LabeledTensor:
    """Apply a factor product (operator order, left to right) to a state."""
    acc = _Accumulator(state, N)
    for f in reversed(factors):
        acc.apply(f)
    return acc.finish()


Term = tuple[complex, Sequence[Factor]]
ResidualFn = Callable[[FockState], float]


def identity_residual(
    lhs: Sequence[Term], rhs: Sequence[Term], state: FockState, N: int
) -> float:
    """Max amplitude of lhs - rhs on one state.

    Every term of both sides, the right side's with its sign flipped, goes
    into one sum per leg index; each sum is formed in one pass.
    """
    if not lhs or not rhs:
        raise ValueError("a side needs at least one term")
    axes = None
    sums: dict[Index, list[tuple[complex, FockState]]] = {}
    for sign, side in ((1.0, lhs), (-1.0, rhs)):
        for coeff, factors in side:
            lt = evaluate(factors, state, N)
            if axes is None:
                axes = lt.axes
            elif lt.axes != axes:
                raise ValueError(f"axis mismatch: {axes} vs {lt.axes}")
            for idx, s in lt.entries.items():
                sums.setdefault(idx, []).append((sign * coeff, s))
    return max((FockState.combine(terms).maxamp() for terms in sums.values()), default=0.0)


# ---------------------------------------------------------------------------
# The two exchange families.  ``ann(space, k)`` and ``cre(space, k)`` build a
# generator's annihilation column and creation row, ``b(space, k)`` the
# dressed reflection operator; spaces 1 and 2 carry k1 and k2.

Builder = Callable[[int, float], Factor]


def r_mat(r: rmatrix.RMatrixSpec, k1: float, k2: float, swap: bool = False) -> RMat:
    """R_12 = R(k1, k2) on the spaces (1, 2); with ``swap``, R_21 = P R(k2, k1) P."""
    return RMat(1, 2, rmatrix.r21(r, k2, k1) if swap else rmatrix.eval_r(r, k1, k2))


def delta_term(N: int, coeff: complex = 1.0) -> Term:
    """The contact term coeff delta_12: the identity matrix from space 2 into space 1."""
    return (coeff, [NumMat(1, np.eye(N, dtype=complex), space_in=2)])


def _identity(lhs: Sequence[Term], rhs: Sequence[Term], N: int) -> ResidualFn:
    return lambda s: identity_residual(lhs, rhs, s, N)


def exchange_triple(
    r: rmatrix.RMatrixSpec, k1: float, k2: float, ann: Builder, cre: Builder,
    contact: Sequence[Term],
) -> tuple[ResidualFn, ResidualFn, ResidualFn]:
    """The exchange identities of a generator x with itself:

        x_1 x_2 = R_21 x_2 x_1
        x†_1 x†_2 = x†_2 x†_1 R_21
        x_1 x†_2 = x†_2 R_12 x_1 + contact

    Subscripts are the two open color legs; R_21 is the leg-swapped
    evaluation at (k2, k1).  ``contact`` holds the terms that colliding
    momenta add, such as ``delta_term``.
    """
    x1, x2, xd1, xd2 = ann(1, k1), ann(2, k2), cre(1, k1), cre(2, k2)
    r12, r21 = r_mat(r, k1, k2), r_mat(r, k1, k2, swap=True)
    return (
        _identity([(1.0, [x1, x2])], [(1.0, [r21, x2, x1])], r.N),
        _identity([(1.0, [xd1, xd2])], [(1.0, [xd2, xd1, r21])], r.N),
        _identity([(1.0, [x1, xd2])], [(1.0, [xd2, r12, x1]), *contact], r.N),
    )


def b_exchange_triple(
    r: rmatrix.RMatrixSpec, k1: float, k2: float, ann: Builder, cre: Builder, b: Builder
) -> tuple[ResidualFn, ResidualFn, ResidualFn]:
    """The exchange identities of a generator with b, and of b with itself:

        x_1 b_2 = R_21 b_2 R'_12 x_1
        b_1 x†_2 = x†_2 R_12 b_1 R'_21
        R_12 b_1 R'_21 b_2 = b_2 R'_12 b_1 Rbar_21

    Primed and barred values are argument substitutions, e.g. R'_21 is the
    leg-swapped evaluation at (k2, -k1) and Rbar_21 at (-k2, -k1).
    """
    x1, xd2, b1, b2 = ann(1, k1), cre(2, k2), b(1, k1), b(2, k2)
    r12, r21 = r_mat(r, k1, k2), r_mat(r, k1, k2, swap=True)
    rp12, rp21 = r_mat(r, k1, -k2), r_mat(r, -k1, k2, swap=True)
    rbar21 = r_mat(r, -k1, -k2, swap=True)
    return (
        _identity([(1.0, [x1, b2])], [(1.0, [r21, b2, rp12, x1])], r.N),
        _identity([(1.0, [b1, xd2])], [(1.0, [xd2, r12, b1, rp21])], r.N),
        _identity([(1.0, [r12, b1, rp21, b2])], [(1.0, [b2, rp12, b1, rbar21])], r.N),
    )
