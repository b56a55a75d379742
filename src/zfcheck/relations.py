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
closes them.  A space that a factor reads while it has no open leg is opened
with the identity: its row leg opens and its column leg dangles, in
``space_in`` if an ``OpMat`` or ``NumMat`` gives one, and no space gets a
second column leg.  That is how a contact term bridges two spaces: the
delta term is ``NumMat(1, I, space_in=2)``.

Evaluating a product against a state yields a tensor of Fock states indexed
by the exposed color legs: one "out" (row) leg per space whose last factor
left a row open, one "in" (column) leg per space where a creation row or a
matrix column never got contracted.  Factors are listed in operator order
(left to right) and applied right to left, so the rightmost acts first.  A
tensor holds only its nonzero entries, a map from leg-index tuple to state.
Every factor is linear, and the evaluator forms aux vectors only from the
entries present, so no factor sees an empty state or an aux vector without
one nonzero entry, and a scalar matrix costs only its nonzero entries.

A product is compiled once into a plan: the leg bookkeeping and every check
happen there, and running the plan on a state only moves data (open,
permute, group, batch map, scatter).  A scalar matrix whose spaces are all
fresh is not applied where it stands.  Its spaces open when a later factor
first reads them, and at the end its transpose, out_c = sum_r M_rc v_r,
maps their column legs; one that no factor read is applied as it stands.
That is exact by linearity, since the later factors act on row legs and
states only.  So x†_1 x†_2 = x†_2 x†_1 R_21 applies x† to the one-hot
columns, not to every copy of the state that R_21 scales.

Every state-level relation is an identity of two sums of factor products,
a (lhs, rhs) pair, and ``identity(N, (lhs, rhs), ...)`` is its residual
function: the worst ``identity_residual`` over its pairs.  The exchange
relations come in two families, each written once here as three pairs:
``exchange_triple`` (x x, x† x† and x x† with its contact terms) and
``b_exchange_triple`` (x b, b x† and b b); the layers instantiate them with
their own generators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Sequence, Union

import numpy as np

from . import rmatrix
from .fock import AuxVec, FockState, Word

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
    transposed = cached_property(lambda self: replace(self, mat=np.transpose(self.mat)))

    def batch(self, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """out_r = sum_l M_rl s_l over the nonzero entries M_rl of each column l."""
        images = []
        for vec in vecs:
            rows: list[dict[Word, complex]] = [{} for _ in self.columns]
            for l, s in enumerate(vec):
                for r, m in self.columns[l] if s.amps else ():
                    acc = rows[r]
                    for w, a in s.amps.items():
                        acc[w] = acc.get(w, 0j) + m * a
            images.append([FockState.wrap(acc) for acc in rows])
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


class _Plan(tuple):
    """A factor product, compiled for ``N`` colors into ``steps`` that end on ``axes``,
    and the most particles it adds over its input, its ``headroom``."""


def _permute(order: list[int]) -> Callable:
    get = itemgetter(*order)  # at least two legs, so it gives tuples
    return lambda entries: {get(idx): s for idx, s in entries.items()}


def _open(N: int) -> Callable:
    """The identity on a fresh space: a row leg in front and a column leg last."""
    return lambda entries: {(c,) + idx + (c,): s for idx, s in entries.items() for c in range(N)}


def _map(n: int, rows: list[Index], batch: BatchOp, N: int) -> Callable:
    """One call of ``batch`` on the aux vectors read off the first n legs.

    The entries that differ only in those legs form one vector, keyed by the
    rest t of the index (a*N + b indexes two legs a, b); with n = 0 each
    entry is the 1-vector [s].  Row r of the image keyed t lands at rows[r] + t.
    """

    def step(entries: dict[Index, FockState]) -> dict[Index, FockState]:
        if n == 0:
            groups = {idx: [s] for idx, s in entries.items()}
        else:
            groups = {}
            for idx, s in entries.items():
                vec = groups.get(idx[n:])
                if vec is None:
                    vec = groups[idx[n:]] = [_ZERO] * N**n
                vec[idx[0] if n == 1 else idx[0] * N + idx[1]] = s
        out = {}
        for t, image in zip(groups, batch(list(groups.values()))):
            for r, s in zip(rows, image):
                if s.amps:
                    out[r + t] = s
        return out

    return step


def _compile(factors: Sequence[Factor], N: int) -> _Plan:
    """The leg bookkeeping and every check of a product, done once, right to left."""
    labels: list[Label] = []  # the legs of the entries' index, in order
    pending: dict[int, Label] = {}  # per fresh space the index lacks yet, its column leg
    deferred: list[tuple[_ScalarMatrix, list[Label]]] = []
    steps: list[Callable] = []
    level = headroom = 0  # particles added over the input: +1 per CoVec, -1 per Vec

    def has(label: Label) -> bool:
        """Whether the product has the leg so far, in the index or in a pending space."""
        pend = label[1] in pending if label[0] == "open" else label in pending.values()
        return pend or label in labels

    def open_pending(legs: Sequence[Label]) -> None:
        nonlocal labels
        for leg in reversed(legs):  # so the legs open in front in their order
            col = pending.pop(leg[1], None)
            if col is not None:
                labels = [leg, *labels, col]
                steps.append(_open(N))

    def apply(legs: Sequence[Label], batch: BatchOp, reads=True, writes=True) -> None:
        nonlocal labels
        ps = list(map(labels.index, legs)) if reads else []
        if ps != list(range(len(ps))):
            order = ps + [q for q in range(len(labels)) if q not in ps]
            labels = [labels[q] for q in order]
            steps.append(_permute(order))
        labels = [*legs, *labels[len(ps):]] if writes else labels[len(ps):]
        steps.append(_map(len(ps), _rows(N, len(legs) if writes else 0), batch, N))

    for f in reversed(factors):
        if not isinstance(f, _Factor):
            raise TypeError(f"unknown factor {f!r}")
        level += isinstance(f, CoVec) - isinstance(f, Vec)
        headroom = max(headroom, level)
        cols = []  # the column legs of the spaces it finds fresh
        for leg in f.legs:
            space = leg[1]
            if not f.reads:
                if has(leg) or has(("in", space)):
                    raise ValueError(
                        f"annihilation-type factor must be rightmost in space {space}"
                    )
            elif not has(leg):
                col = ("in", space if f.space_in is None else f.space_in)
                if has(col):
                    raise ValueError(f"space {col[1]} already closed: it has a column leg")
                pending[space] = col
                cols.append(col)
            elif f.space_in is not None:
                raise ValueError(f"space_in needs a fresh space, but space {space} is open")
        if isinstance(f, _ScalarMatrix) and len(cols) == len(f.legs):
            deferred.append((f, cols))
            continue
        open_pending(f.legs)
        apply(f.legs, f.batch, f.reads, f.writes)
    for f, cols in deferred:
        as_is = all(leg[1] in pending for leg in f.legs)
        open_pending(f.legs)
        apply(*((f.legs, f.batch) if as_is else (cols, f.transposed.batch)))
    final = [("out", s) if kind == "open" else (kind, s) for kind, s in labels]
    order = sorted(range(len(final)), key=lambda i: (final[i][1], final[i][0] != "out"))
    if order != sorted(order):
        steps.append(_permute(order))
    plan = _Plan(factors)
    plan.N, plan.steps, plan.axes = N, steps, tuple(final[i] for i in order)
    plan.headroom = headroom
    return plan


def evaluate(factors: Sequence[Factor], state: FockState, N: int) -> LabeledTensor:
    """Apply a factor product (operator order, left to right) to a state."""
    plan = factors if isinstance(factors, _Plan) and factors.N == N else _compile(factors, N)
    entries = {(): state} if state.amps else {}
    for step in plan.steps:
        if not entries:
            break
        entries = step(entries)
    return LabeledTensor(plan.axes, entries)


Term = tuple[complex, Sequence[Factor]]
Pair = tuple[Sequence[Term], Sequence[Term]]  # the two sides of one identity
ResidualFn = Callable[[FockState], float]


def identity_residual(
    lhs: Sequence[Term], rhs: Sequence[Term], state: FockState, N: int
) -> float:
    """Max amplitude of lhs - rhs on one state; an empty right side reads as 0.

    Every term of both sides, the right side's with its sign flipped, is
    added straight into one amplitude map per leg index.
    """
    if not lhs:
        raise ValueError("the left side needs at least one term")
    axes = None
    sums: dict[Index, dict[Word, complex]] = {}
    for sign, side in ((1.0, lhs), (-1.0, rhs)):
        for coeff, factors in side:
            lt = evaluate(factors, state, N)
            if axes is None:
                axes = lt.axes
            elif lt.axes != axes:
                raise ValueError(f"axis mismatch: {axes} vs {lt.axes}")
            c = sign * coeff
            for idx, s in lt.entries.items():
                acc = sums.setdefault(idx, {})
                for w, a in s.amps.items():
                    acc[w] = acc.get(w, 0j) + c * a
    return max((abs(a) for acc in sums.values() for a in acc.values()), default=0.0)


def identity(N: int, *pairs: Pair) -> ResidualFn:
    """The residual function of the identities lhs = rhs: their worst on a state.

    Each side's factor products are compiled once into plans here.  The
    function's ``headroom`` is their worst: a state needs that many particles
    of room under the cap, and with 0 any state will do.
    """
    plans = [
        tuple([(coeff, _compile(factors, N)) for coeff, factors in side] for side in pair)
        for pair in pairs
    ]
    fn = lambda s: max(identity_residual(lhs, rhs, s, N) for lhs, rhs in plans)
    fn.headroom = max(plan.headroom for pair in plans for side in pair for _, plan in side)
    return fn


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


def exchange_triple(
    r: rmatrix.RMatrixSpec, k1: float, k2: float, ann: Builder, cre: Builder,
    contact: Sequence[Term],
) -> tuple[Pair, Pair, Pair]:
    """The (lhs, rhs) pairs of the exchange identities of a generator x with itself:

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
        ([(1.0, [x1, x2])], [(1.0, [r21, x2, x1])]),
        ([(1.0, [xd1, xd2])], [(1.0, [xd2, xd1, r21])]),
        ([(1.0, [x1, xd2])], [(1.0, [xd2, r12, x1]), *contact]),
    )


def b_exchange_triple(
    r: rmatrix.RMatrixSpec, k1: float, k2: float, ann: Builder, cre: Builder, b: Builder
) -> tuple[Pair, Pair, Pair]:
    """The (lhs, rhs) pairs of the exchange identities of x with b and of b with itself:

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
        ([(1.0, [x1, b2])], [(1.0, [r21, b2, rp12, x1])]),
        ([(1.0, [b1, xd2])], [(1.0, [xd2, r12, b1, rp21])]),
        ([(1.0, [r12, b1, rp21, b2])], [(1.0, [b2, rp12, b1, rbar21])]),
    )
