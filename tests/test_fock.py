"""Fock states, canonicalization, ladder operators, and the bulk exchange algebra."""

import math
from functools import partial
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_state
from oracles import (
    annihilation_pair_oracle,
    creation_pair_oracle,
    prepend_canonicalize_oracle,
    stack_canonicalize_oracle,
)
from zfcheck.errors import CapacityError, GridDomainError, GridValidationError
from zfcheck.fock import (
    FockSpace,
    FockState,
    SpectralGrid,
    confluence_residual,
    states_equal,
    transposition_roundtrip_residual,
    zf_relation_evaluators,
)
from zfcheck.rmatrix import rational_r, worst_over

letters = st.tuples(st.integers(0, 5), st.integers(0, 1))
words3 = st.lists(letters, min_size=3, max_size=3).map(tuple)
words2 = st.lists(letters, min_size=2, max_size=2).map(tuple)


class TestGrid:
    def test_sorted_and_indexed(self, grid):
        assert grid.momenta == (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
        assert grid.index_of(1.0) == 3
        assert grid.value(0) == -3.0
        assert grid.positive() == (1.0, 2.0, 3.0)
        assert 2.0 in grid and 0.5 not in grid

    def test_rejects_zero(self):
        with pytest.raises(GridValidationError):
            SpectralGrid([-1.0, 0.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(GridValidationError, match="negation"):
            SpectralGrid([1.0, 2.0, -1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(GridValidationError, match="distinct"):
            SpectralGrid([1.0, 1.0, -1.0, -1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(GridValidationError, match="finite"):
            SpectralGrid([1.0, -1.0, math.inf, -math.inf])

    def test_rejects_empty(self):
        with pytest.raises(GridValidationError):
            SpectralGrid([])

    def test_off_grid_momentum(self, space):
        with pytest.raises(GridDomainError):
            space.apply_creation(0, 0.5, space.vacuum())


class TestStates:
    def test_vacuum_and_particle_number(self, space):
        vac = space.vacuum()
        assert vac.max_particles() == 0
        assert vac.amps == {(): 1.0 + 0j}

    def test_arithmetic(self):
        a = FockState({((0, 0),): 1.0 + 0j})
        b = FockState({((0, 0),): 0.5j, ((1, 1),): 2.0 + 0j})
        s = a + b
        assert s.amps[((0, 0),)] == 1.0 + 0.5j
        d = a - a
        assert d.maxamp() == 0.0 or d.pruned().maxamp() == 0.0
        assert (2.0 * a).amps[((0, 0),)] == 2.0 + 0j

    def test_states_equal_tolerance(self):
        a = FockState({((0, 0),): 1.0 + 0j})
        b = FockState({((0, 0),): 1.0 + 1e-12j})
        eq, dev = states_equal(a, b, tol=1e-10)
        assert eq and dev == pytest.approx(1e-12)
        eq, _ = states_equal(a, b, tol=1e-13)
        assert not eq

    def test_pruned_drops_dust(self):
        s = FockState({((0, 0),): 1.0 + 0j, ((1, 1),): 1e-16 + 0j})
        assert ((1, 1),) not in s.pruned(1e-14).amps


class TestSectorDimensions:
    # Momenta choose a multiset from 6 grid values, colors are free: the
    # sector dimension is C(6+n-1, n) * 2^n.
    @pytest.mark.parametrize("n,dim", [(1, 12), (2, 84), (3, 448)])
    def test_counts(self, space, n, dim):
        assert len(space.canonical_words(n)) == dim


class TestCreation:
    def test_single_creation(self, space):
        s = space.apply_creation(1, 2.0, space.vacuum())
        assert s.amps == {((4, 1),): 1.0 + 0j}

    def test_ordered_pair_needs_no_swap(self, space):
        one = space.apply_creation(0, 2.0, space.vacuum())
        two = space.apply_creation(1, 1.0, one)
        assert two.amps == {((3, 1), (4, 0)): 1.0 + 0j}

    @pytest.mark.parametrize("j,c1", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_swapped_pair_matches_hand_formula(self, space, j, c1):
        one = space.apply_creation(c1, 1.0, space.vacuum())
        got = space.apply_creation(j, 2.0, one)
        want = creation_pair_oracle(space, j, 2.0, c1, 1.0)
        _, dev = states_equal(got, want, tol=0.0)
        assert dev < 1e-15

    def test_equal_momenta_keep_encounter_order(self, space):
        # The coincident-momentum exchange weight is the bare flip, which
        # makes the rewrite map each word to itself; both color orders at one
        # momentum are then genuinely independent basis vectors.
        one = space.apply_creation(1, 1.0, space.vacuum())
        two = space.apply_creation(0, 1.0, one)
        assert two.amps == {((3, 0), (3, 1)): 1.0 + 0j}
        one = space.apply_creation(0, 1.0, space.vacuum())
        two = space.apply_creation(1, 1.0, one)
        assert two.amps == {((3, 1), (3, 0)): 1.0 + 0j}

    def test_capacity_cap(self, space):
        s = space.vacuum()
        for step, k in enumerate((1.0, 2.0, 3.0)):
            s = space.apply_creation(0, k, s)
        with pytest.raises(CapacityError):
            space.apply_creation(0, -1.0, s)

    def test_bad_color(self, space):
        with pytest.raises(GridDomainError):
            space.apply_creation(2, 1.0, space.vacuum())

    @pytest.mark.parametrize("g", [0.7, 0.0])
    @pytest.mark.parametrize("N", [2, 3])
    def test_every_basis_word_matches_prepend_then_canonicalize(self, grid, N, g):
        # The move-through rule stops at the first letter whose momentum is
        # not strictly below k.  At g = 0.7 the weight at equal momenta is the
        # bare flip, so passing an equal momentum would change nothing; at
        # g = 0 it is the identity, and passing one would reorder the colors
        # of an equal-momentum run, so that case pins the strict boundary.
        space = FockSpace(grid, rational_r(N, g), n_max=4)
        for n in range(4):
            for word in space.canonical_words(n):
                target = space.basis_state(word)
                for k in grid:
                    for i in range(N):
                        got = space.apply_creation(i, k, target)
                        want = prepend_canonicalize_oracle(space, i, k, target)
                        _, dev = states_equal(got, want, tol=0.0)
                        assert dev <= 1e-13, (word, i, k)

    def test_zero_coupling_letters_commute(self, grid):
        free = FockSpace(grid, rational_r(2, 0.0), n_max=3)
        ab = free.apply_creation(0, 2.0, free.apply_creation(1, 1.0, free.vacuum()))
        ba = free.apply_creation(1, 1.0, free.apply_creation(0, 2.0, free.vacuum()))
        eq, _ = states_equal(ab, ba, tol=1e-15)
        assert eq


class TestAnnihilation:
    def test_kills_vacuum(self, space):
        assert space.apply_annihilation(0, 1.0, space.vacuum()).maxamp() == 0.0

    def test_one_particle_delta(self, space):
        one = space.apply_creation(1, 2.0, space.vacuum())
        hit = space.apply_annihilation(1, 2.0, one)
        assert hit.amps == {(): 1.0 + 0j}
        # Different momentum or color: the R-term survives but ends in
        # a(k) |vac> = 0, so everything dies.
        assert space.apply_annihilation(0, 2.0, one).maxamp() == 0.0
        assert space.apply_annihilation(1, 1.0, one).maxamp() == 0.0

    def test_two_particle_matches_hand_formula(self, space):
        for word in space.canonical_words(2):
            target = space.basis_state(word)
            for i in range(2):
                for k in space.grid:
                    got = space.apply_annihilation(i, k, target)
                    want = annihilation_pair_oracle(space, i, k, word)
                    _, dev = states_equal(got, want, tol=0.0)
                    assert dev < 1e-14, (word, i, k)

    @pytest.mark.parametrize("N", [2, 3])
    def test_canonical_input_gives_canonical_output(self, grid, N):
        # apply_annihilation does not rewrite its output, so on every
        # canonical basis word the output must already be in canonical form.
        space = FockSpace(grid, rational_r(N, 0.7), n_max=3)
        for n in range(4):
            for word in space.canonical_words(n):
                target = space.basis_state(word)
                for k in grid:
                    for i in range(N):
                        got = space.apply_annihilation(i, k, target)
                        for w in got.amps:
                            assert all(a[0] <= b[0] for a, b in zip(w, w[1:])), (word, w)
                        assert space.canonicalize(got).amps == got.amps, (word, i, k)


class TestCanonicalization:
    @given(word=words3)
    def test_confluence_of_schedules(self, space, word):
        assert confluence_residual(space, {word: 1.0 + 0j}) < 1e-12

    @given(word=words2)
    def test_double_transposition_restores_word(self, space, word):
        assert transposition_roundtrip_residual(space, word, 0) < 1e-12

    def test_idempotent_on_canonical_words(self, space):
        for w in space.canonical_words(2):
            out = space.canonicalize({w: 1.0 + 0j})
            assert out.amps == {w: 1.0 + 0j}

    def test_unknown_schedule_rejected(self, space):
        with pytest.raises(ValueError):
            space.canonicalize({(): 1.0 + 0j}, schedule="sideways")

    def test_preserves_norm_for_unitary_weights(self, space, rng):
        # Exchange weights are unitary matrices, so a single shuffled word
        # canonicalizes to a state of unit 2-norm.
        w = ((5, 0), (2, 1), (0, 1))
        out = space.canonicalize({w: 1.0 + 0j})
        norm = sum(abs(a) ** 2 for a in out.amps.values())
        assert norm == pytest.approx(1.0, abs=1e-12)


WIDE_GRID = SpectralGrid([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
WIDE_SPACES = {N: FockSpace(WIDE_GRID, rational_r(N, 0.7), n_max=7) for N in (2, 3)}

# Letter pools whose permutations the merged rewrite is checked on: distinct
# momenta, a repeated momentum, and a repeated letter (grid indices 0..7).
LETTER_POOLS = [
    [(7, 0), (5, 1), (4, 2), (2, 0), (0, 1)],
    [(6, 1), (6, 0), (3, 2), (1, 1), (0, 0)],
    [(7, 1), (5, 0), (5, 0), (2, 2), (1, 1)],
]

wide_letters = st.tuples(st.integers(0, 7), st.integers(0, 2))
raw_combinations = st.dictionaries(
    st.lists(wide_letters, max_size=4).map(tuple),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


def _max_dev(s1: FockState, s2: FockState) -> float:
    return states_equal(s1, s2, tol=0.0)[1]


class TestMergedRewrite:
    """The merged pass-by-pass rewrite against the unmerged stack worklist."""

    @pytest.mark.parametrize("N", [2, 3])
    def test_every_permutation_matches_stack_oracle(self, N):
        space = WIDE_SPACES[N]
        for pool in LETTER_POOLS:
            letters = [(g, c % N) for g, c in pool]
            for n in range(1, 6):
                for word in sorted(set(permutations(letters[:n]))):
                    for schedule in ("leftmost", "rightmost"):
                        got = space.canonicalize({word: 1.0 + 0j}, schedule=schedule)
                        want = stack_canonicalize_oracle(space, {word: 1.0 + 0j}, schedule)
                        assert _max_dev(got, want) <= 1e-13, (N, word, schedule)

    @given(raw=raw_combinations, N=st.sampled_from([2, 3]))
    def test_raw_combinations_match_stack_oracle(self, raw, N):
        space = WIDE_SPACES[N]
        raw = {tuple((g, c % N) for g, c in w): a for w, a in raw.items()}
        for schedule in ("leftmost", "rightmost"):
            got = space.canonicalize(raw, schedule=schedule)
            want = stack_canonicalize_oracle(space, raw, schedule).pruned(space.prune)
            assert _max_dev(got, want) <= 1e-13, schedule

    def test_reversed_seven_letter_word_step_count(self):
        # Walking every rewrite path takes 409,648 transpositions here;
        # merging equal words after each pass needs about 1,500.
        space = FockSpace(WIDE_GRID, rational_r(3, 0.7), n_max=7)
        calls = 0
        transpose = space.transpose_adjacent

        def counted(word, pos):
            nonlocal calls
            calls += 1
            return transpose(word, pos)

        space.transpose_adjacent = counted
        word = tuple((7 - i, i % 3) for i in range(7))
        states = {}
        for schedule in ("leftmost", "rightmost"):
            calls = 0
            states[schedule] = space.canonicalize({word: 1.0 + 0j}, schedule=schedule)
            assert calls <= 2000, schedule
        left = states["leftmost"]
        # 7! / (3! 2! 2!) color arrangements over the sorted momenta.
        assert len(left) == 210
        norm = math.sqrt(sum(abs(a) ** 2 for a in left.amps.values()))
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert _max_dev(left, states["rightmost"]) <= 1e-12


class TestExchangeRelations:
    @pytest.mark.parametrize("k1,k2", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (2.0, -2.0), (-1.0, 3.0)])
    def test_all_three_on_random_states(self, space4, rng, k1, k2):
        fns = zf_relation_evaluators(space4, k1, k2)
        for tag, fn in fns.items():
            cap = space4.n_max - fn.headroom
            for n in range(0, cap + 1):
                s = space4.vacuum() if n == 0 else random_state(rng, space4, n)
                assert fn(s) < 1e-10, (tag, n)

    def test_residual_objects_carry_context(self, space, rng):
        fns = zf_relation_evaluators(space, 1.0, 2.0)
        assert set(fns) == {"AN-1", "AN-2", "AN-3"}
        res = worst_over(fns["AN-1"], [space.vacuum()], momenta=(1.0, 2.0))
        assert res.context["momenta"] == (1.0, 2.0)
        assert res.value < 1e-10

    def test_mixed_relation_sees_the_delta(self, space, rng):
        # At equal momenta the contact term is what closes the relation;
        # dropping it must leave a visible gap.
        from zfcheck.relations import identity_residual
        from zfcheck.rmatrix import eval_r
        from zfcheck.relations import CoVec, RMat, Vec

        s = random_state(rng, space, 1)
        k = 2.0
        a1 = Vec(1, partial(space.annihilation_column, k))
        adag2 = CoVec(2, partial(space.creation_row, k))
        r12 = RMat(1, 2, eval_r(space.r, k, k))
        gap = identity_residual([(1.0, [a1, adag2])], [(1.0, [adag2, r12, a1])], s, 2)
        assert gap > 0.5
