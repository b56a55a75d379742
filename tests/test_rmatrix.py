"""Exchange matrix, reflection families, and their matrix-level identities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CONST_DIAG_21_UNITARITY_RESIDUAL,
    PHASE_B_C1_K1,
    R_N2_G1_DIFF1,
    naive_lift_pair,
)
from zfcheck.errors import ReflectionTableError, ZfcheckError
from zfcheck.rmatrix import (
    RMatrixSpec,
    check_b_unitarity,
    check_reflection_equation,
    check_unitarity,
    check_yang_baxter,
    constant_diagonal_b,
    eval_b,
    eval_r,
    identity_b,
    lift_pair,
    load_table_b,
    max_abs,
    perm_conj,
    perm_matrix,
    phase_diagonal_b,
    r21,
    rational_r,
    table_b,
    whitelist_reflection,
)

momenta = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


class TestRationalFamily:
    def test_frozen_value_g1_diff1(self):
        spec = rational_r(2, 1.0)
        np.testing.assert_allclose(eval_r(spec, 1.0, 0.0), R_N2_G1_DIFF1, atol=1e-15)

    def test_coincident_momenta_give_the_flip(self):
        spec = rational_r(2, 0.7)
        np.testing.assert_array_equal(eval_r(spec, 1.3, 1.3), perm_matrix(2))

    def test_large_separation_approaches_identity(self):
        spec = rational_r(2, 0.7)
        dev = max_abs(eval_r(spec, 1e9, 0.0) - np.eye(4))
        assert dev < 1e-8

    def test_zero_coupling_is_identity_everywhere(self):
        spec = rational_r(2, 0.0)
        for k1, k2 in [(0.3, -1.7), (2.0, 2.0), (-3.0, 3.0)]:
            np.testing.assert_array_equal(eval_r(spec, k1, k2), np.eye(4))

    def test_three_colors(self):
        spec = rational_r(3, 0.5)
        assert eval_r(spec, 1.0, -1.0).shape == (9, 9)
        assert check_unitarity(spec, 1.0, -1.0).value < 1e-14
        assert check_yang_baxter(spec, 0.4, -0.9, 1.7).value < 1e-14

    def test_leg_swap_matches_explicit_permutation(self):
        spec = rational_r(2, 0.7)
        mat = eval_r(spec, 0.9, -0.4)
        swapped = perm_conj(mat, 2)
        N = 2
        for i in range(N):
            for j in range(N):
                for l in range(N):
                    for m in range(N):
                        assert swapped[i * N + j, l * N + m] == pytest.approx(
                            mat[j * N + i, m * N + l]
                        )
        np.testing.assert_array_equal(r21(spec, 0.9, -0.4), swapped)


class TestMatrixIdentities:
    @given(momenta, momenta)
    def test_unitarity(self, k1, k2):
        spec = rational_r(2, 0.7)
        assert check_unitarity(spec, k1, k2).value < 1e-12

    @given(momenta, momenta, momenta)
    def test_yang_baxter(self, k1, k2, k3):
        spec = rational_r(2, 0.7)
        assert check_yang_baxter(spec, k1, k2, k3).value < 1e-12

    def test_yang_baxter_fixed_triple(self):
        spec = rational_r(2, 0.7)
        assert check_yang_baxter(spec, 1.3, -0.4, 2.2).value < 1e-12

    def test_unitarity_negative_control(self):
        # Scaling the matrix by 1.01 scales the product by 1.0201.
        spec = rational_r(2, 0.7)

        def scaled(k1, k2, base=spec.evaluator):
            return 1.01 * base(k1, k2)

        bad = RMatrixSpec(N=2, evaluator=scaled, family="scaled")
        res = check_unitarity(bad, 0.9, -1.7)
        assert res.value == pytest.approx(0.0201, abs=1e-6)
        assert res.value > 1e-2

    def test_yang_baxter_negative_control(self):
        # Flattening the middle factor to the identity breaks the triple
        # identity for nearby momenta, where the exchange matrices are far
        # from trivial.
        spec = rational_r(2, 0.7)
        k1, k2, k3 = 0.4, -0.6, 1.1
        a = lift_pair(eval_r(spec, k1, k2), 3, 0, 1, 2)
        b = lift_pair(np.eye(4, dtype=complex), 3, 0, 2, 2)
        c = lift_pair(eval_r(spec, k2, k3), 3, 1, 2, 2)
        lhs = a @ b @ c
        rhs = c @ b @ a
        assert max_abs(lhs - rhs) > 1e-2


class TestLiftPair:
    @pytest.mark.parametrize(
        "n_legs,leg_a,leg_b",
        [(2, 0, 1), (3, 0, 1), (3, 0, 2), (3, 1, 2), (4, 0, 2), (4, 1, 3)],
    )
    def test_matches_naive_loops(self, n_legs, leg_a, leg_b):
        spec = rational_r(2, 0.7)
        mat = eval_r(spec, 0.8, -1.3)
        got = lift_pair(mat, n_legs, leg_a, leg_b, 2)
        want = naive_lift_pair(mat, n_legs, leg_a, leg_b, 2)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_three_colors_lift(self):
        spec = rational_r(3, 0.4)
        mat = eval_r(spec, 0.8, -1.3)
        got = lift_pair(mat, 3, 0, 2, 3)
        want = naive_lift_pair(mat, 3, 0, 2, 3)
        np.testing.assert_allclose(got, want, atol=1e-15)


class TestReflectionFamilies:
    def test_identity_family(self):
        b = identity_b(2)
        np.testing.assert_array_equal(eval_b(b, 1.7), np.eye(2))
        assert check_b_unitarity(b, 2.0).value == 0.0

    def test_phase_diagonal_frozen_value(self):
        b = phase_diagonal_b(2, 1.0, [1, -1])
        np.testing.assert_allclose(eval_b(b, 1.0), PHASE_B_C1_K1, atol=1e-15)

    def test_phase_diagonal_unitarity(self):
        b = phase_diagonal_b(2, 1.0, [1, -1])
        for k in (0.5, 1.0, 2.0, 3.0):
            assert check_b_unitarity(b, k).value < 1e-15

    def test_phase_diagonal_rejects_bad_signs(self):
        with pytest.raises(ZfcheckError):
            phase_diagonal_b(2, 1.0, [1, 2])

    def test_constant_diagonal_21_breaks_unitarity(self):
        b = constant_diagonal_b([2.0, 1.0])
        res = check_b_unitarity(b, 1.0)
        assert res.value == pytest.approx(CONST_DIAG_21_UNITARITY_RESIDUAL)

    def test_constant_diagonal_pm1_is_involutive(self):
        b = constant_diagonal_b([1.0, -1.0])
        for k in (1.0, -2.0):
            assert check_b_unitarity(b, k).value == 0.0

    def test_table_family_lookup_and_miss(self):
        entries = {1.0: np.eye(2), -1.0: np.eye(2)}
        b = table_b(2, entries)
        np.testing.assert_array_equal(eval_b(b, 1.0), np.eye(2))
        np.testing.assert_array_equal(eval_b(b, 1.0 + 1e-12), np.eye(2))
        with pytest.raises(ReflectionTableError):
            eval_b(b, 2.0)

    def test_table_file_roundtrip(self, tmp_path):
        path = tmp_path / "refl.txt"
        path.write_text(
            "# momentum then row-major entries\n"
            "1.0  1 0 0 1\n"
            "-1.0 1 0 0 1\n"
            "2.0  0.6+0.8j 0 0 1\n"
            "-2.0 0.6-0.8j 0 0 1\n"
        )
        b = load_table_b(str(path), 2)
        np.testing.assert_allclose(eval_b(b, 2.0)[0, 0], 0.6 + 0.8j)
        assert check_b_unitarity(b, 2.0).value < 1e-15

    def test_table_file_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "refl.txt"
        path.write_text("1.0 1 0 0 1\n2.0 1 0 oops 1\n")
        with pytest.raises(ReflectionTableError) as err:
            load_table_b(str(path), 2)
        assert ":2:" in str(err.value)  # file:line: prefix names the bad line

    def test_table_file_wrong_count(self, tmp_path):
        path = tmp_path / "refl.txt"
        path.write_text("1.0 1 0 0\n")
        with pytest.raises(ReflectionTableError):
            load_table_b(str(path), 2)


class TestReflectionEquation:
    def test_identity_matrix_solves_it(self):
        spec = rational_r(2, 0.7)
        b = identity_b(2)
        for k1, k2 in [(1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (0.3, -1.9)]:
            assert check_reflection_equation(spec, b, k1, k2).value < 1e-13

    def test_phase_diagonal_solves_it(self):
        spec = rational_r(2, 0.7)
        b = phase_diagonal_b(2, 1.0, [1, -1])
        for k1, k2 in [(1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (0.3, -1.9)]:
            assert check_reflection_equation(spec, b, k1, k2).value < 1e-13

    def test_scalar_constant_diagonal_solves_it(self):
        spec = rational_r(2, 0.7)
        b = constant_diagonal_b([1.0, -1.0])
        # B squares to a scalar, which makes both sides collapse identically.
        for k1, k2 in [(1.0, 2.0), (2.0, -2.0)]:
            assert check_reflection_equation(spec, b, k1, k2).value < 1e-13

    def test_nonscalar_square_fails_it(self):
        spec = rational_r(2, 0.7)
        b = constant_diagonal_b([2.0, 1.0])
        worst = max(
            check_reflection_equation(spec, b, k1, k2).value
            for k1, k2 in [(1.0, 2.0), (1.0, -2.0), (2.0, 3.0)]
        )
        assert worst > 1e-2


class TestWhitelist:
    def test_identity_passes(self, grid, rspec):
        rep = whitelist_reflection(rspec, identity_b(2), grid.momenta)
        assert rep.ok
        assert rep.max_residual < 1e-13
        # grid checks: one per momentum plus one per ordered pair
        assert len(rep.checks) == 6 + 36

    def test_phase_family_passes(self, grid, rspec):
        rep = whitelist_reflection(rspec, phase_diagonal_b(2, 1.0, [1, -1]), grid.momenta)
        assert rep.ok

    def test_stretched_diagonal_fails_loudly(self, grid, rspec):
        rep = whitelist_reflection(rspec, constant_diagonal_b([2.0, 1.0]), grid.momenta)
        assert not rep.ok
        assert rep.max_residual == pytest.approx(3.0)
        assert rep.worst is not None
        assert rep.worst.value == pytest.approx(3.0)
