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

On a fresh space an ``OpMat`` or ``NumMat`` may take ``space_in``: its rows
open in ``space`` and its columns dangle in ``space_in``.  That is how a
contact term bridges two spaces: the delta term is ``NumMat(1, I,
space_in=2)``.

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
applies operators and scalar matrix columns only to the entries present, so
no operator sees an empty state or an aux vector without one nonzero entry,
and a scalar matrix costs only its nonzero entries (the rational R has at
most 2 of N^2 per column).  An operator factor maps all of a product's aux
vectors in one call.

Every state-level relation is measured by ``identity_residual`` on two sums
of factor products.  The exchange relations come in two families, each
written once here: ``exchange_triple`` (x x, x† x† and x x† with its contact
terms) and ``b_exchange_triple`` (x b, b x† and b b); the layers instantiate
them with their own generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from . import rmatrix
from .fock import AuxVec, FockState

# An operator factor maps a batch of aux vectors to their images; for a
# matrix, out_i = sum_l M_il s_l.
BatchOp = Callable[[Sequence[AuxVec]], Sequence[AuxVec]]


def one_hot(state: FockState, N: int) -> list[list[FockState]]:
    """The N aux vectors e_l (x) state; their images are the columns of M state."""
    zero, vecs = FockState(), []
    for l in range(N):  # a loop, not a comprehension: this runs once per entry
        vec = [zero] * N
        vec[l] = state
        vecs.append(vec)
    return vecs


@dataclass(frozen=True)
class Vec:
    space: int
    op: BatchOp


@dataclass(frozen=True)
class CoVec:
    space: int
    op: BatchOp


@dataclass(frozen=True)
class OpMat:
    space: int
    op: BatchOp
    space_in: int | None = None


class _ScalarMatrix:
    mat: np.ndarray
    columns = cached_property(lambda self: _columns(self.mat))  # built once per factor


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


@dataclass(frozen=True)
class StateOp:
    op: Callable[[FockState], FockState]


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

    def scaled(self, c: complex) -> "LabeledTensor":
        if c == 0:
            return LabeledTensor(self.axes, {})
        return LabeledTensor(self.axes, {i: s.scaled(c) for i, s in self.entries.items()})

    def add(self, other: "LabeledTensor", c: complex = 1.0) -> "LabeledTensor":
        """self + c other, without scaling the entries that meet one of self."""
        if self.axes != other.axes:
            raise ValueError(f"axis mismatch: {self.axes} vs {other.axes}")
        out = dict(self.entries)
        for idx, s in other.entries.items():
            mine = out.get(idx)
            out[idx] = s.scaled(c) if mine is None else FockState.combine([(1.0, mine), (c, s)])
        return LabeledTensor(self.axes, out)

    def sub(self, other: "LabeledTensor") -> "LabeledTensor":
        return self.add(other, -1.0)

    def max_amp(self) -> float:
        return max((s.maxamp() for s in self.entries.values()), default=0.0)


def _columns(mat: np.ndarray) -> list[list[tuple[int, complex]]]:
    """Per column of a scalar matrix, the rows and values of its nonzero entries."""
    mat = np.asarray(mat, dtype=complex)
    return [
        [(r, v) for r, v in enumerate(mat[:, c].tolist()) if v != 0]
        for c in range(mat.shape[1])
    ]


class _Accumulator:
    """Mutable tensor-with-labels used while scanning a factor product."""

    def __init__(self, state: FockState, N: int):
        self.N = N
        self.entries: dict[Index, FockState] = {(): state} if state.amps else {}
        self.labels: list[Label] = []

    # axis helpers ---------------------------------------------------------

    def _axis_of_open(self, space: int) -> int | None:
        for pos, lab in enumerate(self.labels):
            if lab == ("open", space):
                return pos
        return None

    def _has(self, kind: str, space: int) -> bool:
        return (kind, space) in self.labels

    def _matrix_axis(self, space: int, space_in: int | None) -> int | None:
        """The open axis of ``space``, or None for a fresh one, which then opens."""
        p = self._axis_of_open(space)
        if p is not None and space_in is not None:
            raise ValueError(f"space_in needs a fresh space, but space {space} is open")
        if p is None:
            # The column leg dangles (in space_in if given), the row leg opens.
            self.labels[0:0] = [("open", space), ("in", space if space_in is None else space_in)]
        return p

    # factor cases -----------------------------------------------------------

    def apply_op(self, f: Vec | CoVec | OpMat) -> None:
        """One call of an operator factor's batch map on every aux vector.

        A ``Vec`` takes each entry as the 1-vector [s].  A ``CoVec`` or
        ``OpMat`` takes each entry of a fresh space as its N one-hot vectors,
        keyed (column,) + index, and the column leg dangles.  In the space's
        open axis p the entries that differ only in index p form one vector,
        keyed by the rest of the index.  Row r of the image of the vector
        keyed t lands at t[:p] + (r,) + t[p:], p = 0 for a fresh space; the
        1-vector a ``CoVec`` returns lands at t.
        """
        N, entries = self.N, self.entries
        if isinstance(f, Vec):
            if self._axis_of_open(f.space) is not None or self._has("in", f.space):
                raise ValueError(
                    f"annihilation-type factor must be rightmost in space {f.space}"
                )
            self.labels.insert(0, ("open", f.space))
            p, keys, vecs = 0, entries, list(zip(entries.values()))
        else:
            if isinstance(f, OpMat):
                p = self._matrix_axis(f.space, f.space_in)
            elif (p := self._axis_of_open(f.space)) is None:
                if self._has("in", f.space):
                    raise ValueError(f"space {f.space} already closed by a creation row")
                self.labels.insert(0, ("in", f.space))
            if p is None:
                p, keys, vecs = 0, [], []
                for idx, s in entries.items():
                    for c, vec in enumerate(one_hot(s, N)):
                        keys.append((c,) + idx)
                        vecs.append(vec)
            else:
                zero, groups = FockState(), {}
                for idx, e in entries.items():
                    groups.setdefault(idx[:p] + idx[p + 1 :], [zero] * N)[idx[p]] = e
                keys, vecs = groups, list(groups.values())
                if isinstance(f, CoVec):
                    del self.labels[p]
        out: dict[Index, FockState] = {}
        images = f.op(vecs) if vecs else []
        if isinstance(f, CoVec):
            for t, (s,) in zip(keys, images):
                if s.amps:
                    out[t] = s
        else:
            for t, image in zip(keys, images):
                head, tail = t[:p], t[p:]
                for r, s in enumerate(image):
                    if s.amps:
                        out[head + (r,) + tail] = s
        self.entries = out

    def apply_nummat(self, f: NumMat) -> None:
        self._apply_matrix(f.space, f.columns, f.space_in)

    def apply_stateop(self, f: StateOp) -> None:
        images = ((idx, f.op(s)) for idx, s in self.entries.items())
        self.entries = {idx: s for idx, s in images if s.amps}

    def _apply_matrix(self, space: int, columns, space_in: int | None = None) -> None:
        """Apply a scalar matrix, given by its nonzero ``columns``."""
        p = self._matrix_axis(space, space_in)
        if p is None:
            self.entries = {
                (r, c) + idx: s if coeff == 1 else s.scaled(coeff)
                for idx, s in self.entries.items()
                for c, col in enumerate(columns)
                for r, coeff in col
            }
            return
        contribs: dict[Index, list[tuple[complex, FockState]]] = {}
        for idx, e in self.entries.items():
            head, tail = idx[:p], idx[p + 1 :]
            for r, coeff in columns[idx[p]]:
                contribs.setdefault(head + (r,) + tail, []).append((coeff, e))
        self.entries = {idx: FockState.combine(terms) for idx, terms in contribs.items()}

    def apply_rmat(self, f: RMat) -> None:
        N = self.N
        # A fresh space hit by a pair matrix behaves like the identity matrix
        # applied first: its column leg dangles, its row leg opens.
        for space in (f.space_a, f.space_b):
            if self._axis_of_open(space) is None:
                self._apply_matrix(space, [[(c, 1.0 + 0j)] for c in range(N)])
        pa = self._axis_of_open(f.space_a)
        pb = self._axis_of_open(f.space_b)
        assert pa is not None and pb is not None and pa != pb
        columns = f.columns
        contribs: dict[Index, list[tuple[complex, FockState]]] = {}
        for idx, e in self.entries.items():
            for row, coeff in columns[idx[pa] * N + idx[pb]]:
                out = list(idx)
                out[pa], out[pb] = divmod(row, N)
                contribs.setdefault(tuple(out), []).append((coeff, e))
        self.entries = {idx: FockState.combine(terms) for idx, terms in contribs.items()}

    # finish -----------------------------------------------------------------

    def finish(self) -> LabeledTensor:
        labels = [
            ("out", s) if kind == "open" else (kind, s) for kind, s in self.labels
        ]
        order = sorted(
            range(len(labels)), key=lambda i: (labels[i][1], labels[i][0] != "out")
        )
        axes = tuple(labels[i] for i in order)
        entries = {tuple(idx[i] for i in order): s for idx, s in self.entries.items()}
        return LabeledTensor(axes, entries)


def evaluate(factors: Sequence[Factor], state: FockState, N: int) -> LabeledTensor:
    """Apply a factor product (operator order, left to right) to a state."""
    acc = _Accumulator(state, N)
    for f in reversed(factors):
        if isinstance(f, (Vec, CoVec, OpMat)):
            acc.apply_op(f)
        elif isinstance(f, NumMat):
            acc.apply_nummat(f)
        elif isinstance(f, RMat):
            acc.apply_rmat(f)
        elif isinstance(f, StateOp):
            acc.apply_stateop(f)
        else:
            raise TypeError(f"unknown factor {f!r}")
    return acc.finish()


Term = tuple[complex, Sequence[Factor]]
ResidualFn = Callable[[FockState], float]


def evaluate_side(terms: Sequence[Term], state: FockState, N: int) -> LabeledTensor:
    """Sum of factor products, with common axes."""
    total: LabeledTensor | None = None
    for coeff, factors in terms:
        lt = evaluate(factors, state, N)
        lt = lt.scaled(coeff) if coeff != 1.0 else lt
        total = lt if total is None else total.add(lt)
    if total is None:
        raise ValueError("a side needs at least one term")
    return total


def identity_residual(
    lhs: Sequence[Term], rhs: Sequence[Term], state: FockState, N: int
) -> float:
    """Max amplitude deviation between two sides evaluated on one state."""
    left = evaluate_side(lhs, state, N)
    right = evaluate_side(rhs, state, N)
    return left.sub(right).max_amp()


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
