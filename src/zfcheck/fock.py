"""Sparse Fock representation over a discrete, negation-symmetric momentum grid.

States are finite complex combinations of canonical creation words.  A word
is a tuple of letters ``(grid_index, color)`` read left to right in operator
order, i.e. the word ``((g1, c1), (g2, c2))`` stands for the state
``a†_{c1}(k_{g1}) a†_{c2}(k_{g2}) |vac>``.

Canonical form sorts letters so grid indices are non-decreasing.  Reordering
two adjacent letters is not free: it costs the exchange-matrix weight

    a†_i(k1) a†_j(k2) = sum_{l,m} R(k2, k1)[(l,m), (j,i)] a†_l(k2) a†_m(k1)

so canonicalization is a weighted bubble sort.  It runs in passes of one
transposition per pending word, and equal words merge after each pass, so
its cost follows the number of distinct intermediate words rather than the
number of rewrite paths.  Different sort schedules agree because the
weights satisfy the Yang-Baxter and unitarity identities; that is a
measured property here, not an assumption (see the confluence checks).
Letters with equal grid momenta keep their encounter order: for the
rational family the coincident-momentum exchange weight is the bare flip
and the rewrite maps every word to itself, so distinct color orders at
equal momenta are independent basis states.

Creation on a canonical state needs no general rewrite: a†_i(k) moves right
past the letters of momentum strictly below k, one transposition each, and
stops before the rest of the word, which it leaves as it is.  The terms of
that move depend only on the color, k and the passed prefix, and are cached
under that key; ``canonicalize`` is for arbitrary input.

The annihilation action is the recursive move-through rule

    a_i(k) a†_j(k') = sum_{l,m} R(k, k')[(i,l), (m,j)] a†_l(k') a_m(k)
                      + delta_{k,k'} delta_{i,j}

with ``a_i(k) |vac> = 0``.

Kronecker deltas replace Dirac deltas throughout: the grid carries unit
weight, momentum sums run over grid points, and 0 is excluded from the grid
so the delta supported on k1 = k2 never collides with the one supported on
k1 = -k2.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, GridDomainError, GridValidationError
from .rmatrix import RMatrixSpec, eval_r

Letter = tuple[int, int]  # (grid index, color)
Word = tuple[Letter, ...]

DEFAULT_PRUNE = 1e-14


class SpectralGrid:
    """Finitely many nonzero real momenta, closed under negation.

    Stored sorted ascending; letters refer to momenta by index into this
    order, so comparing grid indices compares momenta.
    """

    def __init__(self, momenta: Iterable[float]):
        vals = [float(k) for k in momenta]
        if not vals:
            raise GridValidationError("grid must contain at least one momentum")
        for k in vals:
            if not math.isfinite(k):
                raise GridValidationError(f"grid momentum {k!r} is not finite")
            if k == 0.0:
                raise GridValidationError("grid must not contain 0")
        if len(set(vals)) != len(vals):
            raise GridValidationError("grid momenta must be distinct")
        present = set(vals)
        for k in vals:
            if -k not in present:
                raise GridValidationError(
                    f"grid is not closed under negation: {k} present but {-k} missing"
                )
        self.momenta: tuple[float, ...] = tuple(sorted(vals))
        self._index = {k: i for i, k in enumerate(self.momenta)}

    def __len__(self) -> int:
        return len(self.momenta)

    def __iter__(self) -> Iterator[float]:
        return iter(self.momenta)

    def __contains__(self, k: float) -> bool:
        return float(k) in self._index

    def index_of(self, k: float) -> int:
        try:
            return self._index[float(k)]
        except KeyError:
            raise GridDomainError(
                f"momentum {k!r} is not on the grid {self.momenta}"
            ) from None

    def value(self, i: int) -> float:
        return self.momenta[i]

    def positive(self) -> tuple[float, ...]:
        return tuple(k for k in self.momenta if k > 0)

    def __repr__(self) -> str:
        return f"SpectralGrid({list(self.momenta)})"


class FockState:
    """A sparse complex combination of canonical words."""

    __slots__ = ("amps",)

    def __init__(self, amps: Mapping[Word, complex] | None = None):
        self.amps: dict[Word, complex] = dict(amps) if amps else {}

    @classmethod
    def wrap(cls, amps: dict[Word, complex]) -> "FockState":
        """A state over ``amps`` itself, not a copy: for a fresh dict nothing else holds."""
        state = cls.__new__(cls)
        state.amps = amps
        return state

    @staticmethod
    def combine(terms: Iterable[tuple[complex, "FockState"]]) -> "FockState":
        """Linear combination sum_i c_i s_i as a single pass over amplitudes."""
        acc: dict[Word, complex] = {}
        for c, st in terms:
            if c == 0:
                continue
            for w, a in st.amps.items():
                acc[w] = acc.get(w, 0j) + c * a
        return FockState.wrap(acc)

    def scaled(self, c: complex) -> "FockState":
        if c == 0:
            return FockState()
        return FockState.wrap({w: c * a for w, a in self.amps.items()})

    def __add__(self, other: "FockState") -> "FockState":
        return FockState.combine([(1.0, self), (1.0, other)])

    def __sub__(self, other: "FockState") -> "FockState":
        return FockState.combine([(1.0, self), (-1.0, other)])

    def __rmul__(self, c: complex) -> "FockState":
        return self.scaled(c)

    def maxamp(self) -> float:
        if not self.amps:
            return 0.0
        return max(abs(a) for a in self.amps.values())

    def pruned(self, eps: float = DEFAULT_PRUNE) -> "FockState":
        return FockState.wrap({w: a for w, a in self.amps.items() if abs(a) > eps})

    def max_particles(self) -> int:
        if not self.amps:
            return 0
        return max(len(w) for w in self.amps)

    def __len__(self) -> int:
        return len(self.amps)

    def __repr__(self) -> str:
        if not self.amps:
            return "FockState(0)"
        parts = []
        for w, a in sorted(self.amps.items())[:4]:
            parts.append(f"{a:.3g}*{w}")
        more = "" if len(self.amps) <= 4 else f" +{len(self.amps) - 4} terms"
        return f"FockState({' + '.join(parts)}{more})"


AuxVec = Sequence[FockState]  # one state per aux column


def states_equal(
    s1: FockState, s2: FockState, tol: float = 1e-10
) -> tuple[bool, float]:
    """Compare amplitude maps; returns (equal within tol, max deviation)."""
    dev = 0.0
    keys = set(s1.amps) | set(s2.amps)
    for w in keys:
        dev = max(dev, abs(s1.amps.get(w, 0j) - s2.amps.get(w, 0j)))
    return dev <= tol, dev


class FockSpace:
    """Truncated Fock space: grid + exchange matrix + particle cap.

    All operator applications return new states; nothing mutates its inputs.
    Outputs are pruned at ``prune`` (default 1e-14), two orders below the
    tightest check tolerance used anywhere, so pruning never eats a residual.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        r: RMatrixSpec,
        n_max: int = 3,
        prune: float = DEFAULT_PRUNE,
    ):
        if n_max < 1:
            raise GridValidationError(f"n_max must be >= 1, got {n_max}")
        self.grid = grid
        self.r = r
        self.N = r.N
        self.n_max = int(n_max)
        self.prune = float(prune)
        self._swap_cache: dict[tuple[int, int], np.ndarray] = {}
        # Nonzero weights of one letter pair's transposition, keyed by the pair.
        self._swap_terms: dict[Word, tuple[tuple[Word, complex], ...]] = {}
        self._ann_cache: dict[tuple[int, int, Word], tuple[tuple[Word, complex], ...]] = {}
        # Creation move-through terms, keyed by (color, grid index, prefix).
        self._cre_cache: dict[tuple[int, int, Word], tuple[tuple[Word, complex], ...]] = {}

    # -- basics ------------------------------------------------------------

    def vacuum(self) -> FockState:
        return FockState({(): 1.0 + 0j})

    def basis_state(self, word: Word) -> FockState:
        return FockState({tuple(word): 1.0 + 0j})

    def canonical_words(self, n: int) -> list[Word]:
        """All canonical words of length n, in a fixed deterministic order.

        Momenta run over non-decreasing grid-index tuples; colors run over
        every sequence, including all orders inside equal-momentum runs.
        """
        from itertools import combinations_with_replacement, product

        out: list[Word] = []
        for gs in combinations_with_replacement(range(len(self.grid)), n):
            for cs in product(range(self.N), repeat=n):
                out.append(tuple(zip(gs, cs)))
        return out

    def _swap_matrix(self, gi_left: int, gi_right: int) -> np.ndarray:
        """Exchange weights for moving letter at gi_left past one at gi_right.

        Row (l, m) / column (c_right, c_left) composite indexing; see the
        module docstring for the identity being applied.
        """
        key = (gi_left, gi_right)
        mat = self._swap_cache.get(key)
        if mat is None:
            k_left = self.grid.value(gi_left)
            k_right = self.grid.value(gi_right)
            mat = eval_r(self.r, k_right, k_left)
            self._swap_cache[key] = mat
        return mat

    def transpose_adjacent(self, word: Word, pos: int) -> dict[Word, complex]:
        """Apply one exchange-weighted adjacent transposition at ``pos``.

        Valid for any neighboring pair, whatever the momentum order; doing it
        twice composes the weights into R12 R21 = identity, so the double
        application reproduces the original word exactly (up to roundoff).
        """
        if not 0 <= pos < len(word) - 1:
            raise IndexError(f"no adjacent pair at position {pos} in word of length {len(word)}")
        pair = word[pos : pos + 2]
        terms = self._swap_terms.get(pair)
        if terms is None:
            (ga, ca), (gb, cb) = pair
            col = self._swap_matrix(ga, gb)[:, cb * self.N + ca]
            terms = tuple(
                (((gb, lm // self.N), (ga, lm % self.N)), complex(c))
                for lm, c in enumerate(col)
                if c != 0
            )
            self._swap_terms[pair] = terms
        head, tail = word[:pos], word[pos + 2 :]
        return {head + swapped + tail: c for swapped, c in terms}

    # -- canonicalization ----------------------------------------------------

    @staticmethod
    def _first_inversion(word: Word, from_right: bool) -> int | None:
        rng = range(len(word) - 2, -1, -1) if from_right else range(len(word) - 1)
        for p in rng:
            if word[p][0] > word[p + 1][0]:
                return p
        return None

    def canonicalize(
        self,
        raw: Mapping[Word, complex] | FockState,
        schedule: str = "leftmost",
    ) -> FockState:
        """Rewrite an arbitrary word combination into canonical form.

        The rewrite runs in passes: each pass transposes one momentum
        inversion of every pending word, and equal words merge before the
        next pass, so the work grows with the number of distinct words
        rather than the number of rewrite paths.  ``schedule`` picks which
        inversion a word gets transposed at ("leftmost" or "rightmost").
        The two schedules must agree; the confluence checks measure exactly
        that.
        """
        if schedule not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown schedule {schedule!r}")
        from_right = schedule == "rightmost"
        level: Mapping[Word, complex] = raw.amps if isinstance(raw, FockState) else raw
        out: dict[Word, complex] = {}
        # Every pass removes one momentum inversion from each word, so the
        # rewrite ends after as many passes as the most inverted input word
        # has inversions.  Amplitudes three orders below the prune threshold
        # are dropped between passes.
        floor = self.prune * 1e-3
        while level:
            nxt: dict[Word, complex] = {}
            for w, a in level.items():
                if abs(a) <= floor:
                    continue
                p = self._first_inversion(w, from_right)
                if p is None:
                    out[w] = out.get(w, 0j) + a
                    continue
                for nw, coeff in self.transpose_adjacent(w, p).items():
                    nxt[nw] = nxt.get(nw, 0j) + a * coeff
            level = nxt
        return FockState.wrap(out).pruned(self.prune)

    # -- creation / annihilation ---------------------------------------------

    def apply_creation(self, color: int, k: float, state: FockState) -> FockState:
        """Left-multiply by a†_color(k), move the new letter into place.

        The input must be canonical.  The new letter moves right through each
        word's prefix of letters with momentum strictly below k, the
        inversions ``canonicalize`` would remove, and leaves the tail after
        it unchanged, so the output is canonical with no rewrite.
        """
        gi = self.grid.index_of(k)
        self._check_color(color)
        acc: dict[Word, complex] = {}
        for w, a in state.amps.items():
            if len(w) >= self.n_max:
                raise CapacityError(
                    f"creation would exceed the particle cap n_max = {self.n_max}"
                )
            p = 0
            while p < len(w) and gi > w[p][0]:
                p += 1
            tail = w[p:]
            for nw, coeff in self._create_through(color, gi, w[:p]):
                nw += tail
                acc[nw] = acc.get(nw, 0j) + a * coeff
        prune = self.prune
        return FockState.wrap({w: a for w, a in acc.items() if abs(a) > prune})

    def _create_through(
        self, color: int, gi: int, prefix: Word
    ) -> tuple[tuple[Word, complex], ...]:
        """Terms of a†_color(k_gi) moved through a prefix of lower momenta.

        The mirror of ``_annihilate_word``: one adjacent transposition past
        the prefix's first letter, then the same move through the rest.
        """
        key = (color, gi, prefix)
        cached = self._cre_cache.get(key)
        if cached is not None:
            return cached
        if not prefix:
            result: tuple[tuple[Word, complex], ...] = ((((gi, color),), 1.0 + 0j),)
        else:
            terms: dict[Word, complex] = {}
            for (passed, (_, m)), coeff in self.transpose_adjacent(
                ((gi, color), prefix[0]), 0
            ).items():
                for tw, tc in self._create_through(m, gi, prefix[1:]):
                    nw = (passed,) + tw
                    terms[nw] = terms.get(nw, 0j) + coeff * tc
            result = tuple(terms.items())
        self._cre_cache[key] = result
        return result

    def apply_annihilation(self, color: int, k: float, state: FockState) -> FockState:
        """Left-multiply by a_color(k): move through letters, collect deltas.

        The input must be canonical.  Moving through keeps the letters'
        momentum order, so the output is canonical too, with no rewrite.
        """
        gi = self.grid.index_of(k)
        self._check_color(color)
        acc: dict[Word, complex] = {}
        for w, a in state.amps.items():
            for nw, coeff in self._annihilate_word(color, gi, w):
                acc[nw] = acc.get(nw, 0j) + a * coeff
        prune = self.prune
        return FockState.wrap({w: a for w, a in acc.items() if abs(a) > prune})

    def _annihilate_word(
        self, color: int, gi: int, word: Word
    ) -> tuple[tuple[Word, complex], ...]:
        key = (color, gi, word)
        cached = self._ann_cache.get(key)
        if cached is not None:
            return cached
        if not word:
            result: tuple[tuple[Word, complex], ...] = ()
        else:
            (g1, c1), rest = word[0], word[1:]
            terms: dict[Word, complex] = {}
            if g1 == gi and c1 == color:
                terms[rest] = terms.get(rest, 0j) + 1.0
            N = self.N
            mat = self._swap_matrix(g1, gi)  # R(k_gi, k_g1)
            for l in range(N):
                for m in range(N):
                    coeff = complex(mat[color * N + l, m * N + c1])
                    if coeff == 0:
                        continue
                    for tw, tc in self._annihilate_word(m, gi, rest):
                        nw = ((g1, l),) + tw
                        terms[nw] = terms.get(nw, 0j) + coeff * tc
            result = tuple(terms.items())
        self._ann_cache[key] = result
        return result

    def annihilation_column(self, k: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """The column a(k) on a batch of 1-vectors [s]: images [a_c(k) s]_c."""
        out = []
        for (s,) in vecs:  # loops, not comprehensions: most batches hold one vector
            image = []
            for c in range(self.N):
                image.append(self.apply_annihilation(c, k, s))
            out.append(image)
        return out

    def creation_row(self, k: float, vecs: Sequence[AuxVec]) -> list[list[FockState]]:
        """The row a†(k) on a batch of N-vectors (s_c): images [sum_c a†_c(k) s_c]."""
        out = []
        for vec in vecs:
            image = None
            for c, s in enumerate(vec):
                if s.amps:
                    term = self.apply_creation(c, k, s)
                    image = term if image is None else image + term
            out.append([FockState() if image is None else image])
        return out

    def _check_color(self, color: int) -> None:
        if not 0 <= color < self.N:
            raise GridDomainError(f"color {color} out of range for N = {self.N}")


# ---------------------------------------------------------------------------
# Exchange-algebra checks for the bulk generators.  The relation evaluator
# lives in .relations, and the relation table in .harness; both import this
# module, hence the local imports.


def zf_exchange(space: FockSpace, k1: float, k2: float) -> tuple:
    """The (lhs, rhs) pairs of the three bulk exchange relations
    (``relations.exchange_triple``):

        a_1 a_2 = R_21 a_2 a_1
        a†_1 a†_2 = a†_2 a†_1 R_21
        a_1 a†_2 = a†_2 R_12 a_1 + delta_12 [k1 == k2]
    """
    from .relations import CoVec, Vec, delta_term, exchange_triple

    return exchange_triple(
        space.r,
        k1,
        k2,
        lambda sp, k: Vec(sp, partial(space.annihilation_column, k)),
        lambda sp, k: CoVec(sp, partial(space.creation_row, k)),
        [delta_term(space.N)] if k1 == k2 else [],
    )


def zf_relation_evaluators(space: FockSpace, k1: float, k2: float) -> dict:
    """The residual function of each fock row of ``harness.RELATIONS`` on momentum
    pairs, by tag: the three bulk exchange relations of ``zf_exchange``."""
    from .harness import RELATIONS

    rows = [r for r in RELATIONS if r.suite == "fock" and r.plan == "pairs"]
    return {r.tag: r.factory(space, k1, k2) for r in rows}


def confluence(space: FockSpace) -> list:
    """The (lhs, rhs) pair of rewrite confluence: the leftmost and rightmost
    canonicalization schedules agree, as YBE makes them."""
    from .relations import StateOp

    rightmost = partial(space.canonicalize, schedule="rightmost")
    return [([(1.0, [StateOp(space.canonicalize)])], [(1.0, [StateOp(rightmost)])])]


def transposition_roundtrip(space: FockSpace) -> list:
    """The (lhs, rhs) pair of the double transposition t t = 1, t the adjacent
    transposition at position 0 of every word: the first inserts R(k_b, k_a)
    weights and the second R(k_a, k_b), so unitarity restores the word.  The
    right side is the empty product, the identity.  Neither side creates a
    particle, so no cap skips a two-letter word, n_max = 1 included."""
    from .relations import StateOp

    def transpose(state: FockState) -> FockState:
        acc: dict[Word, complex] = {}
        for w, a in state.amps.items():
            for nw, c in space.transpose_adjacent(w, 0).items():
                acc[nw] = acc.get(nw, 0j) + a * c
        return FockState.wrap(acc)

    t = StateOp(transpose)
    return [([(1.0, [t, t])], [(1.0, [])])]
