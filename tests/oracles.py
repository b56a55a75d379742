"""Independent reference implementations the unit tests compare against.

Everything here is deliberately the slow, obvious version: explicit loops
instead of einsum, recursion straight off the defining relations instead of
cached closed forms.  Where a value is frozen as a literal, the formula it
came from sits next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from zfcheck.fock import FockSpace, FockState, Word, states_equal
from zfcheck.relations import (
    AuxVec, CoVec, Factor, Label, LabeledTensor, NumMat, OpMat, RMat, StateOp, Vec, one_hot
)
from zfcheck.rmatrix import eval_b, eval_r, lift_pair, perm_conj


def naive_lift_pair(mat: np.ndarray, n_legs: int, leg_a: int, leg_b: int, N: int):
    """Loop-built embedding of a pair matrix into an n-leg tensor product."""
    dim = N**n_legs
    out = np.zeros((dim, dim), dtype=complex)

    def digits(idx: int) -> list[int]:
        ds = [0] * n_legs
        for pos in range(n_legs - 1, -1, -1):
            idx, ds[pos] = divmod(idx, N)
        return ds

    for row in range(dim):
        rd = digits(row)
        for col in range(dim):
            cd = digits(col)
            if any(rd[p] != cd[p] for p in range(n_legs) if p not in (leg_a, leg_b)):
                continue
            out[row, col] = mat[rd[leg_a] * N + rd[leg_b], cd[leg_a] * N + cd[leg_b]]
    return out


def creation_pair_oracle(
    space: FockSpace, j: int, k2: float, c1: int, k1: float
) -> FockState:
    """a†_j(k2) applied to the one-particle state a†_{c1}(k1) |vac>, by hand.

    Straight from the creation exchange rule

        a†_j(k2) a†_c(k1) = sum_{l,m} R(k1, k2)[(l,m), (c,j)] a†_l(k1) a†_m(k2)

    used once when k2 > k1 (the prepended word is then out of order), and not
    at all when k2 <= k1.
    """
    g1 = space.grid.index_of(k1)
    g2 = space.grid.index_of(k2)
    N = space.N
    if g2 <= g1:
        return FockState({((g2, j), (g1, c1)): 1.0 + 0j})
    mat = eval_r(space.r, k1, k2)
    amps: dict[Word, complex] = {}
    for l in range(N):
        for m in range(N):
            coeff = mat[l * N + m, c1 * N + j]
            if coeff != 0:
                amps[((g1, l), (g2, m))] = coeff
    return FockState(amps)


def annihilation_pair_oracle(
    space: FockSpace, i: int, k: float, word: Word
) -> FockState:
    """a_i(k) applied to a canonical two-letter basis word, by hand.

    With word letters (k', j), (k'', j2), the move-through rule gives

        delta_{k,k'} delta_{i,j} |(k'', j2)>
        + sum_l R(k, k')[(i,l), (j2,j)] |(k', l)>   when k == k''

    (the recursion's second step only survives through its own delta).
    """
    (g1, j), (g2, j2) = word
    gi = space.grid.index_of(k)
    N = space.N
    amps: dict[Word, complex] = {}
    if gi == g1 and i == j:
        amps[((g2, j2),)] = amps.get(((g2, j2),), 0j) + 1.0
    if gi == g2:
        mat = eval_r(space.r, k, space.grid.value(g1))
        for l in range(N):
            coeff = mat[i * N + l, j2 * N + j]
            if coeff != 0:
                amps[((g1, l),)] = amps.get(((g1, l),), 0j) + coeff
    return FockState(amps)


def prepend_canonicalize_oracle(
    space: FockSpace, color: int, k: float, state: FockState
) -> FockState:
    """a†_color(k) applied to a state by prepending its letter to every word.

    The prepended words are out of order wherever the new momentum exceeds
    a letter's, and ``canonicalize`` rewrites them, one transposition per
    inversion, with no knowledge of where the new letter came from.
    """
    letter = (space.grid.index_of(k), color)
    return space.canonicalize({(letter,) + w: a for w, a in state.amps.items()})


def stack_canonicalize_oracle(
    space: FockSpace, raw: dict[Word, complex], schedule: str = "leftmost"
) -> FockState:
    """Canonical form by walking every rewrite path, one word at a time.

    The unmerged worklist: pop a word, transpose its leftmost (or rightmost)
    momentum inversion with the exchange rule

        a†_i(k1) a†_j(k2) = sum_{l,m} R(k2, k1)[(l,m), (j,i)] a†_l(k2) a†_m(k1)

    read straight off ``eval_r``, and push every resulting word back with
    its own amplitude.  Equal words are only summed once they are canonical,
    so the cost is the number of rewrite paths; keep inputs short.
    """
    N = space.N
    out: dict[Word, complex] = {}
    stack = list(raw.items())
    while stack:
        w, a = stack.pop()
        inversions = [p for p in range(len(w) - 1) if w[p][0] > w[p + 1][0]]
        if not inversions:
            out[w] = out.get(w, 0j) + a
            continue
        p = inversions[-1] if schedule == "rightmost" else inversions[0]
        (ga, ca), (gb, cb) = w[p], w[p + 1]
        mat = eval_r(space.r, space.grid.value(gb), space.grid.value(ga))
        for l in range(N):
            for m in range(N):
                coeff = mat[l * N + m, cb * N + ca]
                if coeff != 0:
                    stack.append((w[:p] + ((gb, l), (ga, m)) + w[p + 2 :], a * coeff))
    return FockState(out)


def dense_T_oracle(space: FockSpace, k0: float, state: FockState) -> np.ndarray:
    """T(k0) applied to a state using only the defining relations.

    Recursion over the leftmost letter: T fixes the vacuum as the identity
    aux matrix, and pushing T through one creation operator costs one
    exchange matrix,

        (T a†_c(k) s)_{il} = sum_{c', p} R(k0, k)[(i,c'), (p,c)]
                             a†_{c'}(k) (T s)_{pl}.

    Returns an (N, N) object array of FockStates.  No chain matrices, no
    caching: this is the slow path the closed form must reproduce.
    """
    N = space.N
    memo: dict[Word, np.ndarray] = {}

    def rec(word: Word) -> np.ndarray:
        hit = memo.get(word)
        if hit is not None:
            return hit
        out = np.empty((N, N), dtype=object)
        if not word:
            vac = space.vacuum()
            zero = FockState()
            for i in range(N):
                for l in range(N):
                    out[i, l] = vac if i == l else zero
        else:
            (g1, c1), rest = word[0], word[1:]
            k1 = space.grid.value(g1)
            inner = rec(rest)
            mat = eval_r(space.r, k0, k1)
            for i in range(N):
                for l in range(N):
                    terms = []
                    for cp in range(N):
                        for p in range(N):
                            coeff = mat[i * N + cp, p * N + c1]
                            if coeff == 0:
                                continue
                            terms.append(
                                (coeff, space.apply_creation(cp, k1, inner[p, l]))
                            )
                    out[i, l] = FockState.combine(terms)
        memo[word] = out
        return out

    total = np.empty((N, N), dtype=object)
    for i in range(N):
        for l in range(N):
            total[i, l] = FockState()
    for w, a in state.amps.items():
        block = rec(w)
        for i in range(N):
            for l in range(N):
                total[i, l] = total[i, l] + block[i, l].scaled(a)
    return total


def dense_chain_oracle(ctx, k0: float, gs: tuple[int, ...]) -> np.ndarray:
    """C(k0; gs) = R_01(k0, k_1) ... R_0n(k0, k_n), one dense product per factor.

    Each factor is lifted to the full (n+1)-leg space first, so this costs
    n products of N^(n+1)-square matrices.
    """
    n, N = len(gs), ctx.N
    mat = np.eye(N ** (n + 1), dtype=complex)
    for j, g in enumerate(gs):
        factor = eval_r(ctx.space.r, k0, ctx.grid.value(g))
        mat = mat @ lift_pair(factor, n + 1, 0, j + 1, N)
    return mat


def dense_chain_inv_oracle(ctx, k0: float, gs: tuple[int, ...]) -> np.ndarray:
    """C(k0; gs)^-1 as the reversed dense product of P R(k_j, k0) P on legs (0, j)."""
    n, N = len(gs), ctx.N
    mat = np.eye(N ** (n + 1), dtype=complex)
    for j in range(n - 1, -1, -1):
        factor = perm_conj(eval_r(ctx.space.r, ctx.grid.value(gs[j]), k0), N)
        mat = mat @ lift_pair(factor, n + 1, 0, j + 1, N)
    return mat


def dense_b_oracle(ctx, k: float, gs: tuple[int, ...]) -> np.ndarray:
    """b(k) on a momentum tuple as C(k; gs) (B(k) (x) I) C(-k; gs)^-1, densely."""
    bfac = np.kron(eval_b(ctx.reflection, k), np.eye(ctx.N ** len(gs), dtype=complex))
    return dense_chain_oracle(ctx, k, gs) @ bfac @ dense_chain_inv_oracle(ctx, -k, gs)


def word_matrix_map_oracle(ctx, matrix_of, state: FockState) -> np.ndarray:
    """Contract a per-word (aux, colors) matrix against a state, word by word.

    ``matrix_of(gs)`` is the cached matrix of one momentum tuple, as
    ``VertexContext.chain``, ``chain_inv`` or ``b_matrix`` build it: row and
    column index aux * N^n + colors, colors read as base-N digits.  Each
    input word reads its column for every aux column l, and every nonzero
    entry is decoded back into a word, one scalar at a time.
    """
    N = ctx.N

    def color_code(colors) -> int:
        code = 0
        for c in colors:
            code = code * N + c
        return code

    def decode_colors(code: int, n: int) -> tuple[int, ...]:
        out = [0] * n
        for pos in range(n - 1, -1, -1):
            code, out[pos] = divmod(code, N)
        return tuple(out)

    acc: list[list[dict[Word, complex]]] = [[dict() for _ in range(N)] for _ in range(N)]
    for w, amp in state.amps.items():
        gs = tuple(g for g, _ in w)
        cs = tuple(c for _, c in w)
        n = len(w)
        dimc = N**n
        mat = matrix_of(gs)
        base = color_code(cs)
        for l in range(N):
            col = mat[:, l * dimc + base]
            for row, v in enumerate(col):
                if abs(v) <= 1e-300:  # drop exact-zero matrix entries only
                    continue
                i, rem = divmod(row, dimc)
                nw = tuple(zip(gs, decode_colors(rem, n)))
                target = acc[i][l]
                target[nw] = target.get(nw, 0j) + amp * v
    data = np.empty((N, N), dtype=object)
    for i in range(N):
        for l in range(N):
            data[i, l] = FockState(acc[i][l]).pruned(ctx.space.prune)
    return data


def apply_H_oracle(ctx, n: int, state: FockState) -> FockState:
    """H(n) state as sum over grid k of k^n at†(k) (at(k) state), on the whole state.

    The at column and the at† row are applied to the state itself, one grid
    momentum at a time, with no per-word image.
    """
    terms = []
    for k in ctx.grid:
        weight = complex(k**n)
        if weight != 0:
            (row,) = ctx.apply_a_tilde_dagger(k, ctx.apply_a_tilde(k, [[state]]))
            terms.append((weight, row[0]))
    return FockState.combine(terms).pruned(ctx.space.prune)


def aux_entries(op, state: FockState, N: int) -> np.ndarray:
    """The (N, N) object array of an aux-matrix operator on one state.

    ``op`` maps a batch of aux vectors to their images, as
    ``VertexContext.apply_T`` does at a fixed momentum.  Entry (i, l) is row
    i of the image of the one-hot vector that holds ``state`` in column l.
    """
    zero = FockState()
    images = op([[state if c == l else zero for c in range(N)] for l in range(N)])
    out = np.empty((N, N), dtype=object)
    for l, image in enumerate(images):
        for i, s in enumerate(image):
            out[i, l] = s
    return out


def scalar_times_state(mat: np.ndarray, state: FockState) -> np.ndarray:
    """The (N, N) array of states with entries mat[i, l] * state."""
    out = np.empty(mat.shape, dtype=object)
    for idx in np.ndindex(*mat.shape):
        out[idx] = state.scaled(complex(mat[idx]))
    return out


def max_entry_deviation(got: np.ndarray, want: np.ndarray) -> float:
    """Largest amplitude difference between two equal-shape arrays of states."""
    dev = 0.0
    for idx in np.ndindex(*got.shape):
        _, d = states_equal(got[idx], want[idx], tol=0.0)
        dev = max(dev, d)
    return dev


def dense_operator_matrix(space: FockSpace, n: int, apply_aux) -> tuple[np.ndarray, list]:
    """Dense matrix of an aux-matrix-valued operator on (aux ⊗ sector n).

    ``apply_aux(state)`` must return an (N, N) object array of states.
    Row/column composite index is aux * dim_sector + word_index.
    """
    words = space.canonical_words(n)
    index = {w: t for t, w in enumerate(words)}
    N = space.N
    dim = len(words)
    out = np.zeros((N * dim, N * dim), dtype=complex)
    for col_w, w in enumerate(words):
        applied = apply_aux(space.basis_state(w))
        for l in range(N):
            for i in range(N):
                for nw, amp in applied[i, l].amps.items():
                    out[i * dim + index[nw], l * dim + col_w] = amp
    return out, words


def states_bridge(space_out: int, space_in: int, columns: Sequence[AuxVec]) -> LabeledTensor:
    """A tensor on legs (out ``space_out``, in ``space_in``) from already-applied states.

    Entry (i, l) is ``columns[l][i]``, so the images of the one-hot vectors
    of a state under a matrix operator give that operator's tensor: what a
    bridge factor (``OpMat`` or ``NumMat`` with ``space_in``) must evaluate to.
    """
    flip = space_in < space_out  # axes sort by space, "out" first on a tie
    axes = (("out", space_out), ("in", space_in))
    return LabeledTensor(
        axes[::-1] if flip else axes,
        {
            (l, i) if flip else (i, l): s
            for l, column in enumerate(columns)
            for i, s in enumerate(column)
            if s.amps
        },
    )


# -- the dense factor-product evaluator -----------------------------------------
#
# ``relations.evaluate`` as it was before tensors held only their nonzero
# entries: every tensor is a full object ndarray of states, zero states
# included, and ``RMat`` combines all N^4 products per reduced index.


@dataclass
class ObjectArrayTensor:
    """An object ndarray of Fock states, zero states included, with named color axes."""

    axes: tuple[Label, ...]
    data: np.ndarray

    def scaled(self, c: complex) -> "ObjectArrayTensor":
        out = _fresh(self.data.shape)
        for idx in _indices(self.data.shape):
            out[idx] = self.data[idx].scaled(c)
        return ObjectArrayTensor(self.axes, out)

    def add(self, other: "ObjectArrayTensor") -> "ObjectArrayTensor":
        if self.axes != other.axes:
            raise ValueError(f"axis mismatch: {self.axes} vs {other.axes}")
        out = _fresh(self.data.shape)
        for idx in _indices(self.data.shape):
            out[idx] = self.data[idx] + other.data[idx]
        return ObjectArrayTensor(self.axes, out)

    def sub(self, other: "ObjectArrayTensor") -> "ObjectArrayTensor":
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


class _ObjectArrayAccumulator:
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

    # factor cases -----------------------------------------------------------
    # Operator factors are called once per aux vector, and only on vectors
    # with a nonzero entry.

    def apply_vec(self, f: Vec) -> None:
        if self._axis_of_open(f.space) is not None or self._has("in", f.space):
            raise ValueError(
                f"annihilation-type factor must be rightmost in space {f.space}"
            )
        N = self.N
        out = _fresh((N,) + self.data.shape)
        for idx in _indices(self.data.shape):
            s = self.data[idx]
            image = f.op([[s]])[0] if s.amps else [FockState()] * N
            for v in range(N):
                out[(v,) + idx] = image[v]
        self.data = out
        self.labels.insert(0, ("open", f.space))

    def apply_covec(self, f: CoVec) -> None:
        N = self.N
        p = self._axis_of_open(f.space)
        if p is None:
            if self._has("in", f.space):
                raise ValueError(f"space {f.space} already closed by a creation row")
            out = _fresh((N,) + self.data.shape)
            for idx in _indices(self.data.shape):
                s = self.data[idx]
                for l, vec in enumerate(one_hot(s, N)):
                    out[(l,) + idx] = f.op([vec])[0][0] if s.amps else FockState()
            self.data = out
            self.labels.insert(0, ("in", f.space))
            return
        old = self.data
        shape = old.shape[:p] + old.shape[p + 1 :]
        out = _fresh(shape)
        for idx in _indices(shape):
            vec = [old[idx[:p] + (l,) + idx[p:]] for l in range(N)]
            out[idx] = f.op([vec])[0][0] if any(e.amps for e in vec) else FockState()
        self.data = out
        del self.labels[p]

    def apply_nummat(self, f: NumMat) -> None:
        self._apply_matrix(f.space, np.asarray(f.mat, dtype=complex), None, f.space_in)

    def apply_opmat(self, f: OpMat) -> None:
        self._apply_matrix(f.space, None, f.op, f.space_in)

    def apply_stateop(self, f: StateOp) -> None:
        out = _fresh(self.data.shape)
        for idx in _indices(self.data.shape):
            s = self.data[idx]
            out[idx] = f.op(s) if s.amps else FockState()
        self.data = out

    def _apply_matrix(self, space: int, scalar, op, space_in: int | None = None) -> None:
        N = self.N
        p = self._axis_of_open(space)
        if p is not None and space_in is not None:
            raise ValueError(f"space_in needs a fresh space, but space {space} is open")
        if p is None:
            # Fresh space: the column leg dangles, the row leg opens.
            old = self.data
            out = _fresh((N, N) + old.shape)
            for idx in _indices(old.shape):
                if op is not None:
                    w = aux_entries(op, old[idx], N) if old[idx].amps else None
                    for r in range(N):
                        for c in range(N):
                            out[(r, c) + idx] = FockState() if w is None else w[r, c]
                else:
                    for r in range(N):
                        for c in range(N):
                            out[(r, c) + idx] = old[idx].scaled(complex(scalar[r, c]))
            self.data = out
            self.labels[0:0] = [("open", space), ("in", space if space_in is None else space_in)]
            return
        old = self.data
        out = _fresh(old.shape)
        for idx in _indices(old.shape[:p] + old.shape[p + 1 :]):
            entries = []
            for c in range(N):
                full = idx[:p] + (c,) + idx[p:]
                entries.append(old[full])
            if op is not None:
                applied = [(c, aux_entries(op, e, N)) for c, e in enumerate(entries) if e.amps]
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
                self._apply_matrix(space, np.eye(N, dtype=complex), None)
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

    def finish(self) -> ObjectArrayTensor:
        labels = [
            ("out", s) if kind == "open" else (kind, s) for kind, s in self.labels
        ]
        order = sorted(
            range(len(labels)), key=lambda i: (labels[i][1], labels[i][0] != "out")
        )
        axes = tuple(labels[i] for i in order)
        data = np.transpose(self.data, order) if order else self.data
        return ObjectArrayTensor(axes, data)


def object_array_evaluate(
    factors: Sequence[Factor], state: FockState, N: int
) -> ObjectArrayTensor:
    """The factor product evaluated on dense object arrays of states."""
    acc = _ObjectArrayAccumulator(state, N)
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
        elif isinstance(f, StateOp):
            acc.apply_stateop(f)
        else:
            raise TypeError(f"unknown factor {f!r}")
    return acc.finish()


# -- frozen values ------------------------------------------------------------

# Rational exchange matrix, N = 2, g = 1, momentum difference 1:
# ((k1-k2) I + i g P) / (k1 - k2 + i g) = (I + iP) / (1 + i), and
# 1 / (1+i) = (1-i)/2, i / (1+i) = (1+i)/2.
R_N2_G1_DIFF1 = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5 - 0.5j, 0.5 + 0.5j, 0.0],
        [0.0, 0.5 + 0.5j, 0.5 - 0.5j, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)

# Momentum-dependent diagonal reflection family, c = 1, signs (+1, -1), k = 1:
# B_00 = (1 + i)/(1 - i) = i, B_11 = (1 - i)/(1 - i) = 1.
PHASE_B_C1_K1 = np.diag([1j, 1.0 + 0j])

# Constant diagonal (2, 1): B(k) B(-k) = diag(4, 1), so the deviation from
# the identity is diag(3, 0) and the max-norm residual is exactly 3.
CONST_DIAG_21_UNITARITY_RESIDUAL = 3.0
