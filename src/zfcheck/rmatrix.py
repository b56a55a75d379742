"""R-matrices, reflection matrices, and the matrix-level consistency checks.

Conventions used everywhere in this package:

* An R-matrix value is an N^2 x N^2 complex array acting on an ordered pair
  of N-dimensional color spaces.  Composite indices are row-major, so the
  pair (i, j) maps to i * N + j.  This matches ``numpy.kron``.
* ``r21(spec, u, v)`` is the leg-swapped evaluation P @ R(u, v) @ P where P
  is the flip operator.  Primed and barred variants that show up in boundary
  identities are plain argument substitutions into the same evaluator, e.g.
  R'(k1, k2) = R(k1, -k2).  Nothing is transposed or cached behind the
  caller's back.
* Residuals are entrywise max-norm differences between the two sides of an
  identity, evaluated on concrete numbers.  A check never proves anything
  symbolically; it measures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ReflectionTableError, ZfcheckError

Matrix = np.ndarray

_TABLE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Residual:
    """Max-norm deviation of one concrete identity, with labels for reporting."""

    value: float
    context: Mapping[str, object] = field(default_factory=dict)


def worst_over(fn: Callable[[object], float], samples: Iterable, **context) -> Residual:
    """The worst residual of a per-sample evaluator over ``samples``.

    ``context`` labels the result.  An empty sample list gives 0.0.
    """
    return Residual(max((fn(s) for s in samples), default=0.0), context)


@dataclass(frozen=True)
class RMatrixSpec:
    """A two-color exchange matrix family: dimension, evaluator, family name.

    ``evaluator(k1, k2)`` must return an N^2 x N^2 array.  The built-in
    rational family depends on k1 - k2 only, but nothing here assumes that.
    """

    N: int
    evaluator: Callable[[float, float], Matrix]
    family: str = "rational"


@dataclass(frozen=True)
class ReflectionMatrixSpec:
    """A one-color reflection matrix family: ``evaluator(k)`` -> N x N array."""

    N: int
    family: str
    evaluator: Callable[[float], Matrix]


@lru_cache(maxsize=None)
def perm_matrix(N: int) -> Matrix:
    """Flip operator P on the pair space: P (x tensor y) = y tensor x."""
    P = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            P[i * N + j, j * N + i] = 1.0
    return P


def perm_conj(mat: Matrix, N: int) -> Matrix:
    """Conjugate a pair-space matrix by the flip: P @ mat @ P."""
    P = perm_matrix(N)
    return P @ mat @ P


def rational_r(N: int, g: float) -> RMatrixSpec:
    """The rational family R(k1, k2) = ((k1-k2) I + i g P) / (k1 - k2 + i g).

    At coincident momenta this is exactly the flip P; for large separation it
    approaches the identity.  g = 0 degenerates to the identity everywhere
    (free exchange), which breaks R(k, k) = P, the assumption the Fock basis
    rests on; run configs therefore reject it.
    """
    P = perm_matrix(N)
    eye = np.eye(N * N, dtype=complex)

    def ev(k1: float, k2: float) -> Matrix:
        if g == 0:
            return eye.copy()
        d = k1 - k2
        return (d * eye + 1j * g * P) / (d + 1j * g)

    return RMatrixSpec(N=N, evaluator=ev, family="rational")


def eval_r(spec: RMatrixSpec, k1: float, k2: float) -> Matrix:
    """Evaluate the exchange matrix at an ordered momentum pair."""
    if not (math.isfinite(k1) and math.isfinite(k2)):
        raise ZfcheckError(f"non-finite momenta in R evaluation: ({k1}, {k2})")
    mat = np.asarray(spec.evaluator(k1, k2), dtype=complex)
    n2 = spec.N * spec.N
    if mat.shape != (n2, n2):
        raise ZfcheckError(
            f"R evaluator returned shape {mat.shape}, expected {(n2, n2)}"
        )
    if not np.all(np.isfinite(mat)):
        raise ZfcheckError(f"R evaluation produced non-finite entries at ({k1}, {k2})")
    return mat


def r21(spec: RMatrixSpec, k1: float, k2: float) -> Matrix:
    """Leg-swapped evaluation: P @ R(k1, k2) @ P."""
    return perm_conj(eval_r(spec, k1, k2), spec.N)


def lift_pair(mat: Matrix, n_legs: int, leg_a: int, leg_b: int, N: int) -> Matrix:
    """Embed an N^2 x N^2 two-leg operator into a product of ``n_legs`` legs.

    The operator acts on legs (leg_a, leg_b) in that order; every other leg
    carries the identity.  Composite indices are row-major over legs
    0, 1, ..., n_legs - 1.
    """
    if leg_a == leg_b:
        raise ValueError("lift_pair needs two distinct legs")
    if not (0 <= leg_a < n_legs and 0 <= leg_b < n_legs):
        raise ValueError(f"legs ({leg_a}, {leg_b}) out of range for {n_legs} legs")
    t = np.asarray(mat, dtype=complex).reshape(N, N, N, N)
    lower = "abcdefghijkl"
    upper = "ABCDEFGHIJKL"
    outs = [lower[i] for i in range(n_legs)]
    ins = [upper[i] for i in range(n_legs)]
    subs = [outs[leg_a] + outs[leg_b] + ins[leg_a] + ins[leg_b]]
    ops: list[Matrix] = [t]
    for leg in range(n_legs):
        if leg in (leg_a, leg_b):
            continue
        subs.append(outs[leg] + ins[leg])
        ops.append(np.eye(N, dtype=complex))
    spec_str = ",".join(subs) + "->" + "".join(outs) + "".join(ins)
    dim = N**n_legs
    return np.einsum(spec_str, *ops).reshape(dim, dim)


def max_abs(mat: Matrix) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def check_yang_baxter(spec: RMatrixSpec, k1: float, k2: float, k3: float) -> Residual:
    """Residual of R12 R13 R23 = R23 R13 R12 on the triple color space."""
    N = spec.N
    r12 = lift_pair(eval_r(spec, k1, k2), 3, 0, 1, N)
    r13 = lift_pair(eval_r(spec, k1, k3), 3, 0, 2, N)
    r23 = lift_pair(eval_r(spec, k2, k3), 3, 1, 2, N)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return Residual(max_abs(lhs - rhs), {"momenta": (k1, k2, k3)})


def check_unitarity(spec: RMatrixSpec, k1: float, k2: float) -> Residual:
    """Residual of R12(k1,k2) R21(k2,k1) = identity on the pair space."""
    lhs = eval_r(spec, k1, k2) @ r21(spec, k2, k1)
    eye = np.eye(spec.N * spec.N, dtype=complex)
    return Residual(max_abs(lhs - eye), {"momenta": (k1, k2)})


# ---------------------------------------------------------------------------
# Reflection matrices


def identity_b(N: int) -> ReflectionMatrixSpec:
    eye = np.eye(N, dtype=complex)

    def ev(k: float) -> Matrix:
        return eye.copy()

    return ReflectionMatrixSpec(N=N, family="identity", evaluator=ev)


def constant_diagonal_b(entries: Sequence[complex]) -> ReflectionMatrixSpec:
    """A momentum-independent diagonal reflection matrix."""
    diag = np.asarray(list(entries), dtype=complex)
    mat = np.diag(diag)

    def ev(k: float) -> Matrix:
        return mat.copy()

    return ReflectionMatrixSpec(N=len(diag), family="constant-diagonal", evaluator=ev)


def phase_diagonal_b(N: int, c: float, signs: Sequence[int] | None = None) -> ReflectionMatrixSpec:
    """The momentum-dependent diagonal family B_jj(k) = (c + i k s_j) / (c - i k).

    Each s_j is +1 or -1.  Entries are unimodular for real c and k, and
    B(k) B(-k) = identity holds exactly for either sign.
    """
    if signs is None:
        signs = [1] * N
    sg = tuple(int(s) for s in signs)
    if len(sg) != N or any(s not in (-1, 1) for s in sg):
        raise ZfcheckError("phase-diagonal signs must be a length-N list of +-1")

    def ev(k: float) -> Matrix:
        denom = c - 1j * k
        if denom == 0:
            raise ZfcheckError(f"phase-diagonal family singular at k = {k}")
        return np.diag([(c + 1j * k * s) / denom for s in sg]).astype(complex)

    return ReflectionMatrixSpec(N=N, family="k-dependent-diagonal", evaluator=ev)


def table_b(N: int, entries: Mapping[float, Matrix]) -> ReflectionMatrixSpec:
    """A reflection matrix given by an explicit momentum -> matrix table.

    A momentum within ``_TABLE_MATCH_TOL`` of a table entry reads that entry.
    """
    table = {float(k): np.asarray(v, dtype=complex).reshape(N, N) for k, v in entries.items()}

    def ev(k: float) -> Matrix:
        if k in table:
            return table[k].copy()
        for kk, mat in table.items():
            if abs(kk - k) <= _TABLE_MATCH_TOL:
                return mat.copy()
        raise ReflectionTableError(
            f"reflection table has no entry for momentum {k!r}; "
            f"known momenta: {sorted(table)}"
        )

    return ReflectionMatrixSpec(N=N, family="table", evaluator=ev)


def load_table_b(path: str, N: int) -> ReflectionMatrixSpec:
    """Parse a reflection table from a text file.

    Each non-blank, non-comment line holds a momentum followed by N*N complex
    entries in row-major order.  Complex entries use Python literal syntax,
    e.g. ``0.6+0.8j`` (no spaces inside a token).  A file that cannot be read
    as UTF-8 text, or that gives one momentum two rows, is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ReflectionTableError(f"cannot read reflection table {path}: {exc}") from None
    rows: dict[float, tuple[int, list[complex]]] = {}  # momentum -> (line, entries)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if len(toks) != 1 + N * N:
            raise ReflectionTableError(
                f"{path}:{lineno}: expected momentum + {N * N} entries, "
                f"got {len(toks)} tokens"
            )
        try:
            k = float(toks[0])
            vals = [complex(t) for t in toks[1:]]
        except ValueError as exc:
            raise ReflectionTableError(f"{path}:{lineno}: {exc}") from exc
        if k in rows:
            raise ReflectionTableError(f"{path}:{lineno}: momentum {k!r} repeats the row on line {rows[k][0]}")
        rows[k] = (lineno, vals)
    if not rows:
        raise ReflectionTableError(f"{path}: no table rows found")
    return table_b(N, {k: vals for k, (_, vals) in rows.items()})


def eval_b(spec: ReflectionMatrixSpec, k: float) -> Matrix:
    """Evaluate the reflection matrix at one momentum."""
    if not math.isfinite(k):
        raise ZfcheckError(f"non-finite momentum in B evaluation: {k}")
    mat = np.asarray(spec.evaluator(k), dtype=complex)
    if mat.shape != (spec.N, spec.N):
        raise ZfcheckError(
            f"B evaluator returned shape {mat.shape}, expected {(spec.N, spec.N)}"
        )
    if not np.all(np.isfinite(mat)):
        raise ZfcheckError(f"B evaluation produced non-finite entries at {k}")
    return mat


def check_b_unitarity(bspec: ReflectionMatrixSpec, k: float) -> Residual:
    """Residual of B(k) B(-k) = identity."""
    lhs = eval_b(bspec, k) @ eval_b(bspec, -k)
    return Residual(
        max_abs(lhs - np.eye(bspec.N, dtype=complex)),
        {"relation": "B-unitarity", "momenta": (k,)},
    )


def check_reflection_equation(
    rspec: RMatrixSpec, bspec: ReflectionMatrixSpec, k1: float, k2: float
) -> Residual:
    """Residual of the reflection equation on the pair space.

    R12(k1,k2) B1(k1) R21(k2,-k1) B2(k2)
        = B2(k2) R12(k1,-k2) B1(k1) R21(-k2,-k1)
    """
    N = rspec.N
    eye = np.eye(N, dtype=complex)
    b1_k1 = np.kron(eval_b(bspec, k1), eye)
    b2_k2 = np.kron(eye, eval_b(bspec, k2))
    lhs = eval_r(rspec, k1, k2) @ b1_k1 @ r21(rspec, k2, -k1) @ b2_k2
    rhs = b2_k2 @ eval_r(rspec, k1, -k2) @ b1_k1 @ r21(rspec, -k2, -k1)
    return Residual(
        max_abs(lhs - rhs),
        {"relation": "RBRB", "momenta": (k1, k2)},
    )


@dataclass(frozen=True)
class WhitelistReport:
    """Outcome of the reflection whitelist gate over a momentum grid."""

    ok: bool
    max_residual: float
    checks: tuple[Residual, ...]


def whitelist_reflection(
    rspec: RMatrixSpec,
    bspec: ReflectionMatrixSpec,
    momenta: Sequence[float],
    tol: float = 1e-10,
) -> WhitelistReport:
    """Gate a reflection family empirically over a concrete grid.

    Runs B-unitarity at every grid momentum and the reflection equation at
    every ordered grid pair (including equal and opposite momenta).  No
    family is assumed correct; the identity passes because its residuals
    vanish, not by fiat.
    """
    checks: list[Residual] = []
    for k in momenta:
        checks.append(check_b_unitarity(bspec, k))
    for k1 in momenta:
        for k2 in momenta:
            checks.append(check_reflection_equation(rspec, bspec, k1, k2))
    worst = max(r.value for r in checks)
    return WhitelistReport(ok=worst < tol, max_residual=worst, checks=tuple(checks))
