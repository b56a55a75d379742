"""Vertex operator T(k), its inverse, and the dressed reflection operator b(k).

T(k0) is pinned down by three facts: it fixes the vacuum, it intertwines
creation operators as ``T_0 a†_1 = a†_1 R_01 T_0``, and it is invertible.
Pushing T through a canonical word letter by letter turns those facts into a
closed form: on a word with momenta (k_1, ..., k_n) the operator acts on the
colors alone, through the chain matrix

    C(k0; k_1..k_n) = R_01(k0, k_1) R_02(k0, k_2) ... R_0n(k0, k_n)

living on the (n+1)-leg space (aux leg 0, then one leg per letter).  T acts
on aux vectors (s_l), one state per aux column; row i of the image is
sum_l C_il s_l, C contracted against the word's colors.  The one-hot vectors
e_l (x) s give the columns of T s.  The inverse uses the reversed product of
unitarity inverses, R_0j(k0, k_j)^-1 = P R(k_j, k0) P, on the same legs.
b(k) = T(k) B(k) T(-k)^-1 is one matrix per word too.

These matrices depend only on (k0, momentum tuple), never on colors, and are
cached per context.  Each is one leg contraction of the cached matrix of the
word one letter shorter: the chain and its inverse add the last letter's
factor on legs (0, n), and b(k) peels the first letter,
b(k; k_1..) = R_01(k, k_1) [I_1 (x) b(k; k_2..)] P R(k_1, -k) P|_01, from
B(k) on the empty word.  The words of a batch that share a momentum tuple
share that matrix, so a batch is contracted block by block, one numpy
product per momentum tuple.  Everything here is pure: states in, states out.
Each relation of T and b, T Omega = Omega and b Omega = B Omega included, is
a builder here from (context, momenta) to its (lhs, rhs) pairs, which
``harness.RELATIONS`` measures through ``relations.identity``.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import NotWhitelistedError
from .fock import FockSpace, FockState, Word
from .relations import AuxVec, CoVec, NumMat, OpMat, Pair, Vec, b_exchange_triple, r_mat
from .rmatrix import (
    ReflectionMatrixSpec,
    WhitelistReport,
    eval_b,
    eval_r,
    whitelist_reflection,
)


def _add_leg(subscripts: str, mat: np.ndarray, r: np.ndarray, N: int) -> np.ndarray:
    """One einsum of an (n+1)-leg matrix and an R value into an (n+2)-leg matrix.

    ``subscripts`` index (N, N, N, N) views: the matrix's (aux, other legs)
    out then in, and R, whose P R P is R read with each side's legs swapped.
    """
    m = len(mat) // N
    out = np.einsum(subscripts, mat.reshape(N, m, N, m), r.reshape(N, N, N, N))
    return out.reshape(len(mat) * N, -1)


class VertexContext:
    """Carries the Fock space, the reflection family, and the chain caches."""

    def __init__(
        self,
        space: FockSpace,
        reflection: ReflectionMatrixSpec,
        whitelist_tol: float = 1e-10,
    ):
        if reflection.N != space.N:
            raise ValueError(
                f"reflection matrix dimension {reflection.N} != R-matrix dimension {space.N}"
            )
        self.space = space
        self.reflection = reflection
        self.N = space.N
        self.grid = space.grid
        self.whitelist: WhitelistReport = whitelist_reflection(
            space.r, reflection, space.grid.momenta, whitelist_tol
        )
        self._chains: dict[tuple[float, tuple[int, ...]], np.ndarray] = {}
        self._chains_inv: dict[tuple[float, tuple[int, ...]], np.ndarray] = {}
        self._bmats: dict[tuple[float, tuple[int, ...]], np.ndarray] = {}
        # Per word, its momentum tuple and its base-N color code; per momentum
        # tuple, the (aux row, word) of each row of its matrices.
        self._codes: dict[Word, tuple[tuple[int, ...], int]] = {}
        self._rows: dict[tuple[int, ...], tuple[tuple[int, Word], ...]] = {}

    # -- cached matrices ------------------------------------------------------

    def chain(self, k0: float, gs: tuple[int, ...]) -> np.ndarray:
        """C(k0; gs) = C(k0; gs[:-1]) R_0n(k0, k_n), the identity on the empty word."""
        key = (float(k0), gs)
        mat = self._chains.get(key)
        if mat is None:
            mat = np.eye(self.N, dtype=complex)
            if gs:
                r = eval_r(self.space.r, k0, self.grid.value(gs[-1]))
                mat = _add_leg("xAcB,cydz->xAydBz", self.chain(k0, gs[:-1]), r, self.N)
            self._chains[key] = mat
        return mat

    def chain_inv(self, k0: float, gs: tuple[int, ...]) -> np.ndarray:
        """C(k0; gs)^-1 = P R(k_n, k0) P|_0n C(k0; gs[:-1])^-1."""
        key = (float(k0), gs)
        mat = self._chains_inv.get(key)
        if mat is None:
            mat = np.eye(self.N, dtype=complex)
            if gs:
                r = eval_r(self.space.r, self.grid.value(gs[-1]), k0)
                mat = _add_leg("cAdB,yxzc->xAydBz", self.chain_inv(k0, gs[:-1]), r, self.N)
            self._chains_inv[key] = mat
        return mat

    def b_matrix(self, k: float, gs: tuple[int, ...]) -> np.ndarray:
        """b(k) = T(k) B(k) T(-k)^-1 on (aux, colors), built from b(k; gs[1:])."""
        key = (float(k), gs)
        mat = self._bmats.get(key)
        if mat is None:
            if gs:
                k1 = self.grid.value(gs[0])
                r = eval_r(self.space.r, k1, -k)
                mat = _add_leg("xAcB,yczd->xyAdzB", self.b_matrix(k, gs[1:]), r, self.N)
                left = eval_r(self.space.r, k, k1)
                mat = (left @ mat.reshape(self.N**2, -1)).reshape(mat.shape)
            else:
                mat = eval_b(self.reflection, k)
            self._bmats[key] = mat
        return mat

    # -- closed-form applications ---------------------------------------------

    def _code(self, w: Word) -> tuple[tuple[int, ...], int]:
        """The momentum tuple and color code of a word, filling its tuple's tables."""
        code = self._codes.get(w)
        if code is None:
            gs = tuple(g for g, _ in w)
            words = [tuple(zip(gs, cs)) for cs in product(range(self.N), repeat=len(gs))]
            self._rows[gs] = tuple((i, v) for i in range(self.N) for v in words)
            self._codes.update({v: (gs, c) for c, v in enumerate(words)})
            code = self._codes[w]
        return code

    def _contract(
        self, matrix_of: Callable[[tuple[int, ...]], np.ndarray], vecs: Sequence[AuxVec]
    ) -> list[list[FockState]]:
        """Row i of each image is sum_l M_il s_l, for a per-momentum-tuple matrix M.

        The words sharing a momentum tuple form one block.  Its amplitudes
        over the whole batch fill X, of shape (aux and colors, batch) in the
        matrix's layout, and meet it in one product.  A word's row of X is
        read off its cached color code, and the (aux row, word) of each row
        of the product off its tuple's row table; output is pruned at
        ``space.prune``.
        """
        codes = self._codes
        # Per momentum tuple: its number of color codes, then the row of X,
        # the batch column and the value of each of its amplitudes.
        blocks: dict[tuple[int, ...], tuple] = {}
        for b, vec in enumerate(vecs):
            for l, s in enumerate(vec):
                for w, amp in s.amps.items():
                    gs, code = codes.get(w) or self._code(w)
                    block = blocks.get(gs)
                    if block is None:
                        block = blocks[gs] = (self.N ** len(gs), [], [], [])
                    block[1].append(l * block[0] + code)
                    block[2].append(b)
                    block[3].append(amp)
        acc: list[list[dict[Word, complex]]] = [[{} for _ in range(self.N)] for _ in vecs]
        for gs, (_, rows, cols, amps) in blocks.items():
            table = self._rows[gs]
            x = np.zeros((len(table), len(vecs)), dtype=complex)
            x[rows, cols] = amps
            out = matrix_of(gs) @ x
            hit_rows, hit_cols = np.nonzero(np.abs(out) > self.space.prune)
            values = out[hit_rows, hit_cols].tolist()
            for row, b, v in zip(hit_rows.tolist(), hit_cols.tolist(), values):
                i, w = table[row]
                acc[b][i][w] = v
        return [[FockState.wrap(amps) for amps in image] for image in acc]

    def apply_T(self, k0: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """T(k0) on a batch of aux vectors; acts on colors only, word by word."""
        return self._contract(lambda gs: self.chain(k0, gs), vecs)

    def apply_T_inverse(self, k0: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        return self._contract(lambda gs: self.chain_inv(k0, gs), vecs)

    def gate_cause(self) -> str | None:
        """The whitelist gate's verdict on the reflection family, or None if it passed."""
        if self.whitelist.ok:
            return None
        return (
            f"reflection family {self.reflection.family!r} failed the whitelist gate "
            f"(worst residual {self.whitelist.max_residual:.3e})"
        )

    def apply_b(self, k: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """b(k) on a batch of aux vectors.  Requires k (hence -k) on the grid.

        Raises ``NotWhitelistedError`` unless the reflection family passed
        the whitelist gate when this context was built.
        """
        self.grid.index_of(k)
        if not self.whitelist.ok:
            raise NotWhitelistedError(f"{self.gate_cause()}; refusing to build b(k)")
        return self._contract(lambda gs: self.b_matrix(k, gs), vecs)

    # -- factor builders for the relation evaluator -------------------------------

    def t_opmat(self, space_label: int, k0: float) -> OpMat:
        return OpMat(space_label, lambda vecs: self.apply_T(k0, vecs))

    def t_inverse_opmat(self, space_label: int, k0: float) -> OpMat:
        return OpMat(space_label, lambda vecs: self.apply_T_inverse(k0, vecs))

    def b_opmat(self, space_label: int, k: float) -> OpMat:
        return OpMat(space_label, lambda vecs: self.apply_b(k, vecs))

    def a_vec(self, space_label: int, k: float) -> Vec:
        return Vec(space_label, partial(self.space.annihilation_column, k))

    def adag_covec(self, space_label: int, k: float) -> CoVec:
        return CoVec(space_label, partial(self.space.creation_row, k))


# ---------------------------------------------------------------------------
# The relations of T and b, each as its (lhs, rhs) pairs.  ``harness.RELATIONS``
# measures them through ``relations.identity``.


def t_push(ctx: VertexContext, k0: float, k: float) -> list[Pair]:
    """The two defining relations of T at one (aux, particle) momentum pair.

    Creation side: T_0 a†_1 = a†_1 R_01 T_0.  Annihilation side:
    T_0 a_1 = R_10 a_1 T_0.  Aux space is labeled 1, the particle space 2.
    """
    r01, r10 = r_mat(ctx.space.r, k0, k), r_mat(ctx.space.r, k0, k, swap=True)
    t1 = ctx.t_opmat(1, k0)
    dag = ctx.adag_covec(2, k)
    ann = ctx.a_vec(2, k)
    return [
        ([(1.0, [t1, dag])], [(1.0, [dag, r01, t1])]),
        ([(1.0, [t1, ann])], [(1.0, [r10, ann, t1])]),
    ]


def rtt(ctx: VertexContext, k1: float, k2: float) -> list[Pair]:
    """R_12 T_1 T_2 = T_2 T_1 R_12."""
    r12 = r_mat(ctx.space.r, k1, k2)
    t1 = ctx.t_opmat(1, k1)
    t2 = ctx.t_opmat(2, k2)
    return [([(1.0, [r12, t1, t2])], [(1.0, [t2, t1, r12])])]


def _one(N: int) -> NumMat:
    return NumMat(1, np.eye(N, dtype=complex))


def t_vacuum(ctx: VertexContext, k0: float) -> list[Pair]:
    """T(k0) = 1 on the aux space, which holds on the vacuum."""
    return [([(1.0, [ctx.t_opmat(1, k0)])], [(1.0, [_one(ctx.N)])])]


def t_inverse(ctx: VertexContext, k0: float) -> list[Pair]:
    """T(k0) T(k0)^-1 = 1 on the aux space."""
    t, t_inv = ctx.t_opmat(1, k0), ctx.t_inverse_opmat(1, k0)
    return [([(1.0, [t, t_inv])], [(1.0, [_one(ctx.N)])])]


def b_vacuum(ctx: VertexContext, k: float) -> list[Pair]:
    """b(k) = B(k) on the aux space, which holds on the vacuum."""
    want = NumMat(1, eval_b(ctx.reflection, k))
    return [([(1.0, [ctx.b_opmat(1, k)])], [(1.0, [want])])]


def b_involution(ctx: VertexContext, k: float) -> list[Pair]:
    """b(k) b(-k) = 1 on the aux space."""
    b_k, b_mk = ctx.b_opmat(1, k), ctx.b_opmat(1, -k)
    return [([(1.0, [b_k, b_mk])], [(1.0, [_one(ctx.N)])])]


def b_exchange(ctx: VertexContext, k1: float, k2: float) -> tuple[Pair, Pair, Pair]:
    """eq:ab, eq:bad and eq:bb: the bulk generators and b (``relations.b_exchange_triple``)."""
    return b_exchange_triple(ctx.space.r, k1, k2, ctx.a_vec, ctx.adag_covec, ctx.b_opmat)
