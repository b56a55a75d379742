"""A small evaluator for operator identities with matrix-valued coefficients.

Every identity this package checks has the same shape: a product of factors,
each factor living in one or two labeled auxiliary color spaces, applied to a
concrete Fock state.  A factor is one of

* ``Vec``     -- an annihilation-type column of operators, sum_c op(c) e_c;
* ``CoVec``   -- a creation-type row of operators, sum_c op(c) e†_c;
* ``OpMat``   -- an N x N matrix of operators acting in one space (a vertex
                 operator or a dressed reflection operator);
* ``NumMat``  -- an N x N scalar matrix in one space;
* ``RMat``    -- an N^2 x N^2 scalar matrix coupling an ordered pair of
                 spaces (an exchange-matrix value).

Evaluating a product against a state yields a tensor of Fock states indexed
by the exposed color legs: one "out" (row) leg per space whose last factor
left a row open, one "in" (column) leg per space where a creation row or a
matrix column never got contracted.  Two sides of an identity evaluate to
tensors with the same legs; their entrywise difference is the residual.

Factors are listed in operator order (left to right) and applied to the
state right to left, so the rightmost factor acts first.

Every factor is linear, so it maps the zero state to the zero state.  The
evaluator relies on that: where a tensor entry is zero it writes the zero
state instead of calling the factor's operator, so operators are never
called on an empty state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .fock import FockState

ColorOp = Callable[[int, FockState], FockState]
MatrixOp = Callable[[FockState], np.ndarray]  # -> (N, N) object array of FockState


@dataclass(frozen=True)
class Vec:
    space: int
    op: ColorOp


@dataclass(frozen=True)
class CoVec:
    space: int
    op: ColorOp


@dataclass(frozen=True)
class OpMat:
    space: int
    op: MatrixOp


@dataclass(frozen=True)
class NumMat:
    space: int
    mat: np.ndarray


@dataclass(frozen=True)
class RMat:
    space_a: int
    space_b: int
    mat: np.ndarray


Factor = Union[Vec, CoVec, OpMat, NumMat, RMat]

Label = tuple[str, int]  # ("out" | "in" | "open", space)


@dataclass
class LabeledTensor:
    """An object ndarray of Fock states with named color axes."""

    axes: tuple[Label, ...]
    data: np.ndarray

    def scaled(self, c: complex) -> "LabeledTensor":
        out = _fresh(self.data.shape)
        for idx in _indices(self.data.shape):
            out[idx] = self.data[idx].scaled(c)
        return LabeledTensor(self.axes, out)

    def add(self, other: "LabeledTensor") -> "LabeledTensor":
        if self.axes != other.axes:
            raise ValueError(f"axis mismatch: {self.axes} vs {other.axes}")
        out = _fresh(self.data.shape)
        for idx in _indices(self.data.shape):
            out[idx] = self.data[idx] + other.data[idx]
        return LabeledTensor(self.axes, out)

    def sub(self, other: "LabeledTensor") -> "LabeledTensor":
        return self.add(other.scaled(-1.0))

    def max_amp(self) -> float:
        worst = 0.0
        for idx in _indices(self.data.shape):
            worst = max(worst, self.data[idx].maxamp())
        return worst


def _fresh(shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape, dtype=object)


def _indices(shape: tuple[int, ...]):
    if not shape:
        yield ()
    else:
        yield from np.ndindex(*shape)


class _Accumulator:
    """Mutable tensor-with-labels used while scanning a factor product."""

    def __init__(self, state: FockState, N: int):
        self.N = N
        self.data = _fresh(())
        self.data[()] = state
        self.labels: list[Label] = []

    # axis helpers ---------------------------------------------------------

    def _axis_of_open(self, space: int) -> int | None:
        for pos, lab in enumerate(self.labels):
            if lab == ("open", space):
                return pos
        return None

    def _has(self, kind: str, space: int) -> bool:
        return (kind, space) in self.labels

    def _prepend(self, label: Label, op: ColorOp) -> None:
        N = self.N
        out = _fresh((N,) + self.data.shape)
        for idx in _indices(self.data.shape):
            s = self.data[idx]
            for v in range(N):
                out[(v,) + idx] = op(v, s) if s.amps else FockState()
        self.data = out
        self.labels.insert(0, label)

    # factor cases -----------------------------------------------------------

    def apply_vec(self, f: Vec) -> None:
        if self._axis_of_open(f.space) is not None or self._has("in", f.space):
            raise ValueError(
                f"annihilation-type factor must be rightmost in space {f.space}"
            )
        self._prepend(("open", f.space), f.op)

    def apply_covec(self, f: CoVec) -> None:
        p = self._axis_of_open(f.space)
        if p is None:
            if self._has("in", f.space):
                raise ValueError(f"space {f.space} already closed by a creation row")
            self._prepend(("in", f.space), f.op)
            return
        N = self.N
        old = self.data
        shape = old.shape[:p] + old.shape[p + 1 :]
        out = _fresh(shape)
        for idx in _indices(shape):
            entries = ((l, old[idx[:p] + (l,) + idx[p:]]) for l in range(N))
            out[idx] = FockState.combine((1.0, f.op(l, e)) for l, e in entries if e.amps)
        self.data = out
        del self.labels[p]

    def apply_nummat(self, f: NumMat) -> None:
        self._apply_matrix(f.space, scalar=np.asarray(f.mat, dtype=complex), op=None)

    def apply_opmat(self, f: OpMat) -> None:
        self._apply_matrix(f.space, scalar=None, op=f.op)

    def _apply_matrix(self, space: int, scalar, op) -> None:
        N = self.N
        p = self._axis_of_open(space)
        if p is None:
            # Fresh space: the column leg dangles, the row leg opens.
            old = self.data
            out = _fresh((N, N) + old.shape)
            for idx in _indices(old.shape):
                if op is not None:
                    w = op(old[idx]) if old[idx].amps else None
                    for r in range(N):
                        for c in range(N):
                            out[(r, c) + idx] = FockState() if w is None else w[r, c]
                else:
                    for r in range(N):
                        for c in range(N):
                            out[(r, c) + idx] = old[idx].scaled(complex(scalar[r, c]))
            self.data = out
            self.labels[0:0] = [("open", space), ("in", space)]
            return
        old = self.data
        out = _fresh(old.shape)
        for idx in _indices(old.shape[:p] + old.shape[p + 1 :]):
            entries = []
            for c in range(N):
                full = idx[:p] + (c,) + idx[p:]
                entries.append(old[full])
            if op is not None:
                applied = [(c, op(e)) for c, e in enumerate(entries) if e.amps]
                for r in range(N):
                    full = idx[:p] + (r,) + idx[p:]
                    out[full] = FockState.combine((1.0, m[r, c]) for c, m in applied)
            else:
                for r in range(N):
                    full = idx[:p] + (r,) + idx[p:]
                    out[full] = FockState.combine(
                        (complex(scalar[r, c]), entries[c]) for c in range(N)
                    )
        self.data = out

    def apply_rmat(self, f: RMat) -> None:
        N = self.N
        # A fresh space hit by a pair matrix behaves like the identity matrix
        # applied first: its column leg dangles, its row leg opens.
        for space in (f.space_a, f.space_b):
            if self._axis_of_open(space) is None:
                self._apply_matrix(space, scalar=np.eye(N, dtype=complex), op=None)
        pa = self._axis_of_open(f.space_a)
        pb = self._axis_of_open(f.space_b)
        assert pa is not None and pb is not None and pa != pb
        mat = np.asarray(f.mat, dtype=complex)
        old = self.data
        out = _fresh(old.shape)
        reduced = tuple(
            s for i, s in enumerate(old.shape) if i not in (pa, pb)
        )
        for idx in _indices(reduced):
            def full_at(va: int, vb: int) -> tuple:
                lst = list(idx)
                first, second = sorted([(pa, va), (pb, vb)])
                lst.insert(first[0], first[1])
                lst.insert(second[0], second[1])
                return tuple(lst)

            cached = {
                (ca, cb): old[full_at(ca, cb)] for ca in range(N) for cb in range(N)
            }
            for ra in range(N):
                for rb in range(N):
                    row = ra * N + rb
                    out[full_at(ra, rb)] = FockState.combine(
                        (mat[row, ca * N + cb], cached[(ca, cb)])
                        for ca in range(N)
                        for cb in range(N)
                    )
        self.data = out

    # finish -----------------------------------------------------------------

    def finish(self) -> LabeledTensor:
        labels = [
            ("out", s) if kind == "open" else (kind, s) for kind, s in self.labels
        ]
        order = sorted(
            range(len(labels)), key=lambda i: (labels[i][1], labels[i][0] != "out")
        )
        axes = tuple(labels[i] for i in order)
        data = np.transpose(self.data, order) if order else self.data
        return LabeledTensor(axes, data)


def evaluate(factors: Sequence[Factor], state: FockState, N: int) -> LabeledTensor:
    """Apply a factor product (operator order, left to right) to a state."""
    acc = _Accumulator(state, N)
    for f in reversed(factors):
        if isinstance(f, Vec):
            acc.apply_vec(f)
        elif isinstance(f, CoVec):
            acc.apply_covec(f)
        elif isinstance(f, OpMat):
            acc.apply_opmat(f)
        elif isinstance(f, NumMat):
            acc.apply_nummat(f)
        elif isinstance(f, RMat):
            acc.apply_rmat(f)
        else:
            raise TypeError(f"unknown factor {f!r}")
    return acc.finish()


Term = tuple[complex, Union[Sequence[Factor], LabeledTensor]]


def evaluate_side(terms: Sequence[Term], state: FockState, N: int) -> LabeledTensor:
    """Sum of factor products and prebuilt tensors, with common axes."""
    total: LabeledTensor | None = None
    for coeff, item in terms:
        lt = item if isinstance(item, LabeledTensor) else evaluate(item, state, N)
        lt = lt.scaled(coeff) if coeff != 1.0 else lt
        total = lt if total is None else total.add(lt)
    if total is None:
        raise ValueError("a side needs at least one term")
    return total


def delta_bridge(
    space_out: int, space_in: int, N: int, state: FockState
) -> LabeledTensor:
    """The tensor with entries delta_{ij} * state on legs (out_a, in_b)."""
    data = _fresh((N, N))
    zero = FockState()
    for i in range(N):
        for j in range(N):
            data[i, j] = state if i == j else zero
    return states_bridge(space_out, space_in, data)


def states_bridge(
    space_out: int, space_in: int, entries: np.ndarray
) -> LabeledTensor:
    """A tensor built from an (N, N) object array of already-applied states."""
    axes_raw = [("out", space_out), ("in", space_in)]
    order = sorted(range(2), key=lambda t: (axes_raw[t][1], axes_raw[t][0] != "out"))
    return LabeledTensor(
        tuple(axes_raw[i] for i in order), np.transpose(entries, order)
    )


def identity_residual(
    lhs: Sequence[Term], rhs: Sequence[Term], state: FockState, N: int
) -> float:
    """Max amplitude deviation between two sides evaluated on one state."""
    left = evaluate_side(lhs, state, N)
    right = evaluate_side(rhs, state, N)
    return left.sub(right).max_amp()
