"""The factor-product evaluator, checked against explicit index loops."""

import gc
import weakref
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRID, gauged_r, random_state
from oracles import object_array_evaluate, states_bridge
from zfcheck import relations
from zfcheck.boundary import BoundaryContext
from zfcheck.fock import FockSpace, FockState, SpectralGrid, states_equal, zf_relation_evaluators
from zfcheck.harness import RunConfig, run_suites
from zfcheck.hierarchy import apply_H
from zfcheck.relations import (
    CoVec,
    NumMat,
    OpMat,
    RMat,
    StateOp,
    Vec,
    delta_term,
    evaluate,
    identity_residual,
)
from zfcheck.rmatrix import eval_r, phase_diagonal_b, rational_r
from zfcheck.vertex import VertexContext


def ann(space, k):
    return partial(space.annihilation_column, k)


def dag(space, k):
    return partial(space.creation_row, k)


def diff(state_a, state_b):
    return (state_a + state_b.scaled(-1.0)).maxamp()


def at(lt, *idx):
    """The entry of a tensor at one leg-index tuple; absent means zero."""
    return lt.entries.get(idx, FockState())


def peak(lt):
    """The largest amplitude over a tensor's entries; 0 for no entry."""
    return max((s.maxamp() for s in lt.entries.values()), default=0.0)


def gap(lt_a, lt_b):
    """The largest entrywise deviation of two tensors with the same axes."""
    assert lt_a.axes == lt_b.axes
    indices = set(lt_a.entries) | set(lt_b.entries)
    return max((diff(at(lt_a, *i), at(lt_b, *i)) for i in indices), default=0.0)


def delta(space_out, space_in, N):
    """The delta bridge factor: the identity matrix from ``space_in`` into ``space_out``."""
    return NumMat(space_out, np.eye(N, dtype=complex), space_in=space_in)


def momentum(space):
    """Total momentum, each word times the sum of its letters' k: a color-blind operator."""

    def op(s):
        weighted = ((w, sum(space.grid.value(g) for g, _ in w) * a) for w, a in s.amps.items())
        return FockState({w: a for w, a in weighted if a != 0})

    return op


class TestSingleFactors:
    def test_vec_opens_an_out_axis(self, space, rng):
        s = random_state(rng, space, 2)
        lt = evaluate([Vec(1, ann(space, 1.0))], s, space.N)
        assert lt.axes == (("out", 1),)
        for c in range(space.N):
            assert diff(at(lt, c), space.apply_annihilation(c, 1.0, s)) == 0.0

    def test_covec_on_fresh_space_dangles_an_in_axis(self, space, rng):
        s = random_state(rng, space, 1)
        lt = evaluate([CoVec(2, dag(space, -2.0))], s, space.N)
        assert lt.axes == (("in", 2),)
        for c in range(space.N):
            assert diff(at(lt, c), space.apply_creation(c, -2.0, s)) == 0.0

    def test_covec_contracts_an_open_axis(self, space, rng):
        # a†_c a_c summed over c: one scalar entry, no legs left.
        s = random_state(rng, space, 2)
        lt = evaluate([CoVec(1, dag(space, 1.0)), Vec(1, ann(space, 1.0))], s, space.N)
        assert lt.axes == ()
        direct = FockState.combine(
            (1.0, space.apply_creation(c, 1.0, space.apply_annihilation(c, 1.0, s)))
            for c in range(space.N)
        )
        assert diff(at(lt), direct) < 1e-15

    def test_nummat_mixes_an_open_axis(self, space, rng):
        s = random_state(rng, space, 2)
        mat = np.array([[0.3, 1.5j], [-0.2, 0.7]], dtype=complex)
        lt = evaluate([NumMat(1, mat), Vec(1, ann(space, 2.0))], s, space.N)
        assert lt.axes == (("out", 1),)
        for r in range(space.N):
            direct = FockState.combine(
                (mat[r, c], space.apply_annihilation(c, 2.0, s))
                for c in range(space.N)
            )
            assert diff(at(lt, r), direct) < 1e-15

    def test_nummat_on_fresh_space_scales_the_state(self, space, rng):
        s = random_state(rng, space, 1)
        mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        lt = evaluate([NumMat(1, mat)], s, space.N)
        assert lt.axes == (("out", 1), ("in", 1))
        for r in range(space.N):
            for c in range(space.N):
                assert diff(at(lt, r, c), s.scaled(mat[r, c])) == 0.0

    def test_opmat_matches_equivalent_nummat(self, space, rng):
        s = random_state(rng, space, 2)
        mat = np.array([[0.5, -1.0j], [2.0, 0.1]], dtype=complex)

        def op(vecs):
            return [
                [FockState.combine((mat[r, c], vec[c]) for c in range(2)) for r in range(2)]
                for vec in vecs
            ]

        via_op = evaluate([OpMat(1, op), Vec(1, ann(space, -1.0))], s, space.N)
        via_num = evaluate([NumMat(1, mat), Vec(1, ann(space, -1.0))], s, space.N)
        assert via_op.axes == via_num.axes
        assert gap(via_op, via_num) < 1e-15

    def test_stateop_maps_every_entry_and_drops_zero_images(self, space, rng):
        s = random_state(rng, space, 1)
        vac = space.vacuum()
        op = momentum(space)
        lt = evaluate([StateOp(op), CoVec(1, dag(space, 2.0))], s + vac, space.N)
        assert lt.axes == (("in", 1),)
        for c in range(space.N):
            assert diff(at(lt, c), op(space.apply_creation(c, 2.0, s + vac))) == 0.0
        assert evaluate([StateOp(op)], vac, space.N).entries == {}

    def test_rmat_on_two_fresh_spaces_materializes_entries(self, space, rng):
        s = random_state(rng, space, 1)
        N = space.N
        mat = eval_r(space.r, 1.0, 3.0)
        lt = evaluate([RMat(1, 2, mat)], s, N)
        assert lt.axes == (("out", 1), ("in", 1), ("out", 2), ("in", 2))
        for ra in range(N):
            for ca in range(N):
                for rb in range(N):
                    for cb in range(N):
                        expect = s.scaled(mat[ra * N + rb, ca * N + cb])
                        assert diff(at(lt, ra, ca, rb, cb), expect) == 0.0


class TestOrderAndAlignment:
    def test_rightmost_factor_acts_first(self, space, rng):
        s = random_state(rng, space, 1)
        lt = evaluate(
            [Vec(1, ann(space, 1.0)), CoVec(2, dag(space, 2.0))], s, space.N
        )
        assert lt.axes == (("out", 1), ("in", 2))
        for i in range(space.N):
            for j in range(space.N):
                direct = space.apply_annihilation(
                    i, 1.0, space.apply_creation(j, 2.0, s)
                )
                assert diff(at(lt, i, j), direct) == 0.0

    def test_axes_sorted_by_space_not_application_order(self, space, rng):
        s = random_state(rng, space, 1)
        lt = evaluate(
            [Vec(2, ann(space, 1.0)), CoVec(1, dag(space, 2.0))], s, space.N
        )
        # Space 1 sorts first even though its factor was applied first.
        assert lt.axes == (("in", 1), ("out", 2))

    def test_out_axis_precedes_in_axis_within_a_space(self, space, rng):
        s = random_state(rng, space, 1)
        lt = evaluate([NumMat(1, np.eye(2, dtype=complex))], s, space.N)
        assert lt.axes == (("out", 1), ("in", 1))


class TestRMatOrientation:
    """Pin the row/column composite convention against explicit loops.

    The pair matrices are gauged (``conftest.gauged_r``): the rational R
    commutes with P, so it cannot tell the two legs apart.
    """

    def test_exchange_move_through_side(self, space):
        # [a†(k2)_2, R(k1,k2)_{12}, a(k1)_1] entry (i, j) must be
        # sum_{l,m} R[(i,l),(m,j)] a†_l(k2) a_m(k1).
        k1, k2 = 1.0, 2.0
        N = space.N
        # Both words hold a letter at k1, so a(k1) does not vanish.
        s = FockState({((1, 1), (3, 0)): 0.8 - 0.3j, ((3, 1), (5, 0)): 0.5j})
        mat = gauged_r(space.r, k1, k2)
        lt = evaluate(
            [CoVec(2, dag(space, k2)), RMat(1, 2, mat), Vec(1, ann(space, k1))],
            s,
            N,
        )
        assert lt.axes == (("out", 1), ("in", 2))
        for i in range(N):
            for j in range(N):
                direct = FockState.combine(
                    (
                        mat[i * N + l, m * N + j],
                        space.apply_creation(l, k2, space.apply_annihilation(m, k1, s)),
                    )
                    for l in range(N)
                    for m in range(N)
                )
                assert diff(at(lt, i, j), direct) < 1e-14
        assert peak(lt) > 0.1

    def test_rmat_contracts_both_open_axes(self, space):
        # Both words hold letters at -1 and 2, so a(2) a(-1) does not vanish.
        s = FockState({((2, 0), (4, 1)): 1.0, ((2, 1), (4, 1)): 0.4 - 0.6j})
        N = space.N
        mat = gauged_r(space.r, -1.0, 2.0)
        lt = evaluate(
            [RMat(1, 2, mat), Vec(2, ann(space, 2.0)), Vec(1, ann(space, -1.0))],
            s,
            N,
        )
        assert lt.axes == (("out", 1), ("out", 2))
        for ra in range(N):
            for rb in range(N):
                direct = FockState.combine(
                    (
                        mat[ra * N + rb, ca * N + cb],
                        space.apply_annihilation(
                            cb, 2.0, space.apply_annihilation(ca, -1.0, s)
                        ),
                    )
                    for ca in range(N)
                    for cb in range(N)
                )
                assert diff(at(lt, ra, rb), direct) < 1e-14
        assert peak(lt) > 0.1


class TestColumnTables:
    def test_built_once_per_factor(self, space, rng, monkeypatch):
        built = []
        columns = relations._columns
        monkeypatch.setattr(relations, "_columns", lambda mat: built.append(1) or columns(mat))
        num = NumMat(1, np.array([[0.5, 0.0], [2.0, 1.0j]], dtype=complex))
        rmat = RMat(1, 2, eval_r(space.r, 1.0, 3.0))
        for _ in range(3):
            # A letter at k = 1, so a(1) reaches both scalar factors.
            s = space.apply_creation(0, 1.0, random_state(rng, space, 1))
            assert evaluate([num, rmat, Vec(2, ann(space, 1.0))], s, space.N).entries
        assert len(built) == 2


class TestBridges:
    """Bridge factors: a matrix whose rows open in one space and columns dangle in another."""

    def test_delta_bridge_entries(self, space):
        s = space.basis_state(((0, 1),))
        lt = evaluate([delta(1, 2, space.N)], s, space.N)
        assert lt.axes == (("out", 1), ("in", 2))
        for i in range(space.N):
            for j in range(space.N):
                expect = s if i == j else FockState()
                assert diff(at(lt, i, j), expect) == 0.0

    def test_delta_bridge_axis_sorting_when_spaces_swap(self, space):
        s = space.vacuum()
        lt = evaluate([delta(2, 1, space.N)], s, space.N)
        assert lt.axes == (("in", 1), ("out", 2))

    def test_states_bridge_respects_entry_orientation(self, space, rng):
        states = {}
        for i in range(2):
            for j in range(2):
                states[i, j] = space.basis_state(((i, j),)).scaled(1.0 + i + 2 * j)
        # The image of the one-hot vector of column j is column j: entry (i, j).
        columns = [[states[i, j] for i in range(2)] for j in range(2)]

        def op(vecs):
            return [columns[next(l for l, v in enumerate(vec) if v.amps)] for vec in vecs]

        lt = evaluate([OpMat(2, op, space_in=1)], space.vacuum(), space.N)
        assert lt.axes == (("in", 1), ("out", 2))
        # entries are indexed [out, in]; the sorted tensor transposes them.
        for i in range(2):
            for j in range(2):
                assert diff(at(lt, j, i), states[i, j]) == 0.0
        assert gap(lt, states_bridge(2, 1, columns)) == 0.0

    def test_states_bridge_matches_evaluated_product(self, space, rng):
        s = random_state(rng, space, 1)
        N = space.N

        def a1_adag2(vecs):
            """M_ij = a_i(1) a†_j(2), an operator matrix."""
            return [
                [
                    FockState.combine(
                        (1.0, space.apply_annihilation(i, 1.0, space.apply_creation(j, 2.0, e)))
                        for j, e in enumerate(vec)
                    )
                    for i in range(N)
                ]
                for vec in vecs
            ]

        columns = [
            [space.apply_annihilation(i, 1.0, space.apply_creation(j, 2.0, s)) for i in range(N)]
            for j in range(N)
        ]
        via_bridge = evaluate([OpMat(1, a1_adag2, space_in=2)], s, N)
        via_eval = evaluate(
            [Vec(1, ann(space, 1.0)), CoVec(2, dag(space, 2.0))], s, N
        )
        assert via_bridge.axes == via_eval.axes == states_bridge(1, 2, columns).axes
        assert gap(via_bridge, via_eval) == 0.0
        assert gap(via_bridge, states_bridge(1, 2, columns)) == 0.0


class TestSides:
    def test_identity_residual_zero_on_equal_sides(self, space, rng):
        s = random_state(rng, space, 2)
        side = [(1.0, [Vec(1, ann(space, 1.0))])]
        assert identity_residual(side, side, s, space.N) == 0.0

    def test_identity_residual_sees_a_scaled_side(self, space, rng):
        s = random_state(rng, space, 2)
        factors = [Vec(1, ann(space, 1.0))]
        lhs = [(1.0, factors)]
        rhs = [(1.01, factors)]
        base = peak(evaluate(factors, s, space.N))
        got = identity_residual(lhs, rhs, s, space.N)
        assert got == pytest.approx(0.01 * base, rel=1e-9)

    def test_terms_accumulate_linearly(self, space):
        # 2 a(1) - i a(2) against a(1) leaves a(1) - i a(2), entry by entry.
        s = FockState({((3, 0),): 1.0 + 0.5j, ((4, 1),): -0.3 + 1.0j, ((3, 1), (4, 0)): 0.7 + 0j})
        fa = [Vec(1, ann(space, 1.0))]
        fb = [Vec(1, ann(space, 2.0))]
        got = identity_residual([(2.0, fa), (-1.0j, fb)], [(1.0, fa)], s, space.N)
        a, b = evaluate(fa, s, space.N), evaluate(fb, s, space.N)
        want = max((at(a, i) + (-1.0j) * at(b, i)).maxamp() for i in range(space.N))
        assert want > 0.1
        assert got == pytest.approx(want, rel=1e-12)

    def test_contact_terms_mix_with_factor_terms(self, space, rng):
        s = random_state(rng, space, 1)
        product = [Vec(1, ann(space, 1.0)), CoVec(2, dag(space, 1.0))]
        side = [(1.0, product), delta_term(space.N, 0.5)]
        assert evaluate(product, s, space.N).axes == (("out", 1), ("in", 2))
        # Without its contact term the other side misses 0.5 s on the diagonal.
        got = identity_residual(side, [(1.0, product)], s, space.N)
        assert got == pytest.approx(0.5 * s.maxamp(), rel=1e-12)
        # The half delta as an operator matrix from space 2 into space 1.
        half = OpMat(1, lambda vecs: [[e.scaled(0.5) for e in vec] for vec in vecs], space_in=2)
        assert identity_residual(side, [(1.0, product), (1.0, [half])], s, space.N) < 1e-15

    def test_empty_side_rejected(self, space):
        side = [(1.0, [Vec(1, ann(space, 1.0))])]
        for lhs, rhs in (([], side), (side, [])):
            with pytest.raises(ValueError, match="at least one term"):
                identity_residual(lhs, rhs, space.vacuum(), space.N)


class TestErrorPaths:
    def test_vec_cannot_land_on_an_open_space(self, space):
        with pytest.raises(ValueError, match="rightmost"):
            evaluate(
                [Vec(1, ann(space, 1.0)), Vec(1, ann(space, 2.0))],
                space.vacuum(),
                space.N,
            )

    def test_vec_cannot_land_on_a_closed_space(self, space):
        with pytest.raises(ValueError, match="rightmost"):
            evaluate(
                [Vec(1, ann(space, 1.0)), CoVec(1, dag(space, 2.0))],
                space.vacuum(),
                space.N,
            )

    def test_second_covec_on_same_fresh_space_rejected(self, space):
        with pytest.raises(ValueError, match="closed"):
            evaluate(
                [CoVec(1, dag(space, 1.0)), CoVec(1, dag(space, 2.0))],
                space.vacuum(),
                space.N,
            )

    def test_unknown_factor_rejected(self, space):
        with pytest.raises(TypeError):
            evaluate(["not a factor"], space.vacuum(), space.N)

    def test_axis_mismatch_on_add(self, space):
        a = [(1.0, [delta(1, 2, space.N)])]
        b = [(1.0, [delta(1, 3, space.N)])]
        for lhs, rhs in ((a, b), (a + b, a)):
            with pytest.raises(ValueError, match="axis mismatch"):
                identity_residual(lhs, rhs, space.vacuum(), space.N)

    @pytest.mark.parametrize("kind", ["num", "op"])
    def test_matrix_cannot_add_a_second_column_leg(self, space, kind):
        # The row closed space 1 and left its column leg; a matrix on space 1
        # would dangle a second one.
        eye = np.eye(space.N, dtype=complex)
        mat = NumMat(1, eye) if kind == "num" else OpMat(1, lambda vecs: vecs)
        with pytest.raises(ValueError, match="closed"):
            evaluate([mat, CoVec(1, dag(space, 1.0))], space.vacuum(), space.N)

    def test_bridge_out_of_a_closed_space_stays_valid(self, space, rng):
        s = random_state(rng, space, 1)
        factors = [delta(2, 1, space.N), CoVec(2, dag(space, 1.0))]
        got = evaluate(factors, s, space.N)
        want = object_array_evaluate(factors, s, space.N)
        assert got.axes == want.axes == (("in", 1), ("out", 2), ("in", 2))
        assert peak(got) > 0
        for idx in np.ndindex(*want.data.shape):
            assert diff(at(got, *idx), want.data[idx]) == 0.0

    @pytest.mark.parametrize("kind", ["num", "op"])
    def test_bridge_needs_a_fresh_space(self, space, kind):
        eye = np.eye(space.N, dtype=complex)
        bridge = delta(1, 2, space.N) if kind == "num" else OpMat(1, lambda vecs: vecs, space_in=2)
        with pytest.raises(ValueError, match="fresh space"):
            evaluate([bridge, NumMat(1, eye)], space.vacuum(), space.N)


class TestPlans:
    """A product is compiled once, and a scalar matrix on fresh spaces acts last."""

    def test_an2_creates_on_one_hot_columns(self, monkeypatch):
        # R_21 maps the column legs after both rows, so a† meets the N one-hot
        # columns on each side, not every copy of the state that R_21 scales.
        space = FockSpace(SpectralGrid(GRID), rational_r(2, 0.7), n_max=3)
        counts = []  # a† calls per evaluated product
        create, evaluate_orig = FockSpace.apply_creation, relations.evaluate

        def counted_creation(self, *args):
            counts[-1] += 1
            return create(self, *args)

        def per_product(factors, state, N):
            counts.append(0)
            return evaluate_orig(factors, state, N)

        monkeypatch.setattr(FockSpace, "apply_creation", counted_creation)
        monkeypatch.setattr(relations, "evaluate", per_product)
        an2 = zf_relation_evaluators(space, 1.0, 2.0)["AN-2"]
        assert an2(space.basis_state(((0, 1),))) < 1e-12
        assert counts == [6, 6]

    def test_an_evaluators_compile_each_product_once(self, space, rng, monkeypatch):
        compiles = []
        compile_ = relations._compile
        monkeypatch.setattr(
            relations, "_compile", lambda factors, N: compiles.append(N) or compile_(factors, N)
        )
        fns = zf_relation_evaluators(space, 1.0, 1.0)  # AN-3 with its delta term
        for _ in range(20):
            s = random_state(rng, space, 1)
            assert max(fn(s) for fn in fns.values()) < 1e-12
        assert len(compiles) == 2 + 2 + 3

    def test_run_keeps_no_context_alive(self, monkeypatch):
        refs = []
        init = VertexContext.__init__

        def spied_init(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(VertexContext, "__init__", spied_init)
        run_suites(RunConfig())
        gc.collect()
        assert refs and all(ref() is None for ref in refs)


class TestScalarTensor:
    def test_scalar_tensor_round_trip(self, space, rng):
        s = random_state(rng, space, 2)
        lt = evaluate([], s, space.N)
        assert lt.axes == () and list(lt.entries) == [()]
        assert diff(at(lt), s) == 0.0


class TestZeroStateContract:
    """Factors are linear, so the evaluator never hands them the zero state."""

    def _check(self, monkeypatch, suites, kinds):
        empty_calls = []
        zero_residuals = []
        reached = set()

        def is_zero(arg):
            # A state, or a batch of aux vectors (one state per column).
            if isinstance(arg, FockState):
                return not arg.amps
            return not arg or any(not any(s.amps for s in vec) for vec in arg)

        def spied(op, kind):
            def call(*args):
                reached.add(kind)
                if is_zero(args[-1]):
                    empty_calls.append(kind)
                return op(*args)

            return call

        evaluate_orig = relations.evaluate

        def spying_evaluate(factors, state, N):
            factors = [
                replace(f, op=spied(f.op, type(f).__name__))
                if isinstance(f, (Vec, CoVec, OpMat, StateOp))
                else f
                for f in factors
            ]
            return evaluate_orig(factors, state, N)

        residual_orig = relations.identity_residual

        def residual_also_on_zero(lhs, rhs, state, N):
            # Every side is a pure factor product, contact terms included,
            # so it evaluates on the zero state too.
            zero_residuals.append(residual_orig(lhs, rhs, FockState(), N))
            return residual_orig(lhs, rhs, state, N)

        def spied_scalar_batch(f, vecs):
            return spied(partial(scalar_batch, f), type(f).__name__)(vecs)

        scalar_batch = relations._ScalarMatrix.batch
        monkeypatch.setattr(relations._ScalarMatrix, "batch", spied_scalar_batch)
        monkeypatch.setattr(relations, "evaluate", spying_evaluate)
        monkeypatch.setattr(relations, "identity_residual", residual_also_on_zero)
        report = run_suites(RunConfig(), suites=suites)

        assert report.counts["pass"] > 0 and not report.failed
        assert not empty_calls, f"{len(empty_calls)} factor calls on the zero state"
        assert zero_residuals and set(zero_residuals) == {0.0}
        assert reached == kinds

    def test_default_vertex_and_boundary_suites(self, monkeypatch):
        kinds = {"Vec", "CoVec", "OpMat", "NumMat", "RMat"}
        self._check(monkeypatch, ("vertex", "boundary"), kinds)

    def test_default_hierarchy_suite(self, monkeypatch):
        kinds = {"Vec", "CoVec", "OpMat", "NumMat", "StateOp"}
        self._check(monkeypatch, ("hierarchy",), kinds)


class TestOneSeam:
    """Every state-level relation calls ``relations.identity_residual`` on that
    module's binding, so one wrapper there sees all of them."""

    @pytest.mark.parametrize("suite", ["vertex", "boundary", "hierarchy"])
    def test_every_measured_record_reaches_the_binding(self, monkeypatch, suite):
        calls = []
        residual_orig = relations.identity_residual

        def counted(*args):
            calls.append(args[-2])
            return residual_orig(*args)

        monkeypatch.setattr(relations, "identity_residual", counted)
        report = run_suites(RunConfig(), suites=[suite])
        # H-odd is apply_H(...).maxamp(), the one relation that is not an identity.
        measured = [
            r for r in report.records
            if r.suite == suite and r.relation != "H-odd" and r.status != "skip"
        ]
        assert measured
        assert len(calls) >= len(measured)


# -- the sparse evaluator against the dense object-array oracle ---------------

@lru_cache(maxsize=None)
def _boundary(ctx):
    return BoundaryContext(ctx)


# A factor spec, in operator order: (kind, space, momentum) for "vec", "covec",
# "T" and "b"; (kind, space) for "num"; ("rmat", space_a, space_b, k1, k2);
# ("H", order) for a charge and ("P",) for the total momentum.  A trailing
# space on "T", "b" or "num" is its ``space_in``: a bridge factor.
def _factor(ctx, spec):
    kind = spec[0]
    if kind == "H":
        return StateOp(partial(apply_H, _boundary(ctx), spec[1]))
    if kind == "P":
        return StateOp(momentum(ctx.space))
    space = spec[1]
    if kind == "vec":
        return ctx.a_vec(space, spec[2])
    if kind == "covec":
        return ctx.adag_covec(space, spec[2])
    if kind in ("T", "b"):
        build = ctx.t_opmat if kind == "T" else ctx.b_opmat
        return replace(build(space, spec[2]), space_in=spec[3] if len(spec) > 3 else None)
    if kind == "num":
        # Some entries zero, so columns differ in their nonzero rows.
        N = ctx.N
        mat = np.array(
            [
                [0 if (r + c) % 3 == 1 else (r + 1) + 0.5j * (c - r) for c in range(N)]
                for r in range(N)
            ],
            dtype=complex,
        )
        return NumMat(space, mat, space_in=spec[2] if len(spec) > 2 else None)
    return RMat(space, spec[2], gauged_r(ctx.space.r, spec[3], spec[4]))


def _oracle_deviation(ctx, specs, state):
    factors = [_factor(ctx, spec) for spec in specs]
    got = evaluate(factors, state, ctx.N)
    want = object_array_evaluate(factors, state, ctx.N)
    assert got.axes == want.axes
    assert all(s.amps for s in got.entries.values()), "a zero state is stored"
    indices = list(np.ndindex(*want.data.shape)) if want.data.shape else [()]
    assert set(got.entries) <= set(indices)
    dev = 0.0
    for idx in indices:
        _, d = states_equal(got.entries.get(idx, FockState()), want.data[idx], tol=0.0)
        dev = max(dev, d)
    return dev


@pytest.fixture(scope="module")
def oracle_ctx():
    """Per N, a vertex context with particle headroom for two creations."""
    out = {}
    for N in (2, 3):
        space = FockSpace(SpectralGrid(GRID), rational_r(N, 0.7), n_max=5)
        signs = [(-1) ** c for c in range(N)]
        out[N] = VertexContext(space, phase_diagonal_b(N, 1.0, signs))
    return out


def _mixed_state(space):
    """Vacuum, one- and two-particle words, repeated momenta included."""
    words = [(), ((1, 0),), ((2, 1),), ((0, 1), (4, 0)), ((3, 0), (3, 1)), ((5, 1), (5, 1))]
    return FockState({w: complex(1 + t, 0.5 - 0.25 * t) for t, w in enumerate(words)})


PRODUCTS = {
    "vec fresh": [("vec", 1, 1.0)],
    "covec fresh": [("covec", 1, -2.0)],
    "covec open": [("covec", 1, 2.0), ("vec", 1, 2.0)],
    "num fresh": [("num", 1)],
    "num open": [("num", 1), ("vec", 1, -1.0)],
    "T fresh": [("T", 1, 0.37)],
    "T open": [("T", 1, -1.6), ("vec", 1, 3.0)],
    "b open on b fresh": [("b", 1, 2.0), ("b", 1, -2.0)],
    "rmat fresh": [("rmat", 1, 2, 1.0, 3.0)],
    "rmat half open": [("rmat", 1, 2, 1.0, -2.0), ("vec", 2, -2.0)],
    "rmat open": [("rmat", 1, 2, -1.0, 2.0), ("vec", 2, 2.0), ("vec", 1, -3.0)],
    "rmat spaces swapped": [("rmat", 2, 1, 1.0, 2.0), ("vec", 1, 1.0), ("vec", 2, 1.0)],
    "AN-3 right side": [("covec", 2, 2.0), ("rmat", 1, 2, 1.0, 2.0), ("vec", 1, 1.0)],
    "rtt": [("rmat", 1, 2, 1.0, 2.0), ("T", 1, 1.0), ("T", 2, 2.0)],
    "eq:bb": [
        ("rmat", 1, 2, 1.0, 3.0), ("b", 1, 1.0), ("rmat", 2, 1, 3.0, -1.0), ("b", 2, 3.0)
    ],
    "num bridge": [("num", 1, 2)],
    "b bridge swapped": [("b", 2, -1.0, 1)],
    "covec on b bridge": [("covec", 1, -1.0), ("b", 1, 1.0, 2)],
    "b then H": [("H", 2), ("b", 1, 2.0)],
    "H then covec": [("covec", 1, 1.0), ("H", 2)],
    "momentum between generators": [("covec", 2, 3.0), ("P",), ("vec", 1, -2.0)],
    # A scalar matrix on fresh spaces that later factors read acts last, by its transpose.
    "AN-2 right side": [("covec", 2, 2.0), ("covec", 1, 1.0), ("rmat", 1, 2, 1.0, 2.0)],
    "T on num fresh": [("T", 1, 0.37), ("num", 1)],
    "b on one leg of rmat fresh": [("b", 2, 1.0), ("rmat", 1, 2, -1.0, 3.0)],
    "covec on num bridge": [("covec", 1, 1.0), ("num", 1, 2)],
}


@st.composite
def products(draw):
    """A valid factor product, built in application order (right to left)."""
    momenta = st.sampled_from(GRID)
    legs = {1: set(), 2: set()}  # per space: which of "open", "in" it has
    applied = []
    creations = 0
    for _ in range(draw(st.integers(1, 4))):
        choices = []
        for sp in (1, 2):
            open_, closed = "open" in legs[sp], "in" in legs[sp]
            if not legs[sp]:
                choices.append(("vec", sp))
            if creations < 2 and (open_ or not closed):
                choices.append(("covec", sp))
            if open_ or not closed:
                choices += [("num", sp), ("T", sp), ("b", sp)]
            if not open_ and "in" not in legs[3 - sp]:
                choices += [("bridge", sp)]
        choices.append(("P",))  # a color-blind operator fits anywhere
        # A pair matrix fits while neither space is closed; it takes about a
        # third of those steps, so that many drawn products hold one.
        rmat_fits = all("open" in legs[sp] or "in" not in legs[sp] for sp in (1, 2))
        if rmat_fits and draw(st.integers(0, 2)) == 0:
            choice = draw(st.sampled_from([("rmat", 1, 2), ("rmat", 2, 1)]))
        else:
            choice = draw(st.sampled_from(choices))
        kind = choice[0]
        if kind == "P":
            applied.append(choice)
            continue
        if kind == "bridge":
            sp, kind = choice[1], draw(st.sampled_from(["num", "T", "b"]))
            k = () if kind == "num" else (draw(momenta),)
            applied.append((kind, sp, *k, 3 - sp))
            legs[sp].add("open")
            legs[3 - sp].add("in")
            continue
        if kind == "rmat":
            applied.append(choice + (draw(momenta), draw(momenta)))
            for sp in choice[1:]:
                legs[sp] |= {"open"} if legs[sp] else {"open", "in"}
            continue
        sp = choice[1]
        applied.append((kind, sp) if kind == "num" else (kind, sp, draw(momenta)))
        if kind == "vec":
            legs[sp].add("open")
        elif kind == "covec":
            creations += 1
            if "open" in legs[sp]:
                legs[sp].discard("open")
            else:
                legs[sp].add("in")
        elif "open" not in legs[sp]:
            legs[sp] |= {"open", "in"}
    return applied[::-1]


def _deferred_reads(specs):
    """The fresh-space counts of the scalar factors on fresh spaces that a later factor reads."""
    touched, waiting, found = set(), {}, set()
    for spec in reversed(specs):  # application order
        if spec[0] in ("H", "P"):
            continue
        spaces = set(spec[1:3]) if spec[0] == "rmat" else {spec[1]}
        if spec[0] in ("num", "rmat") and not spaces & touched:
            waiting.update((sp, len(spaces)) for sp in spaces)
        else:
            found.update(waiting.pop(sp) for sp in spaces if sp in waiting)
        touched |= spaces
    return found


class TestObjectArrayOracle:
    """``evaluate`` keeps only nonzero entries; the dense evaluator keeps all."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("name", list(PRODUCTS))
    def test_fixed_products(self, oracle_ctx, N, name):
        ctx = oracle_ctx[N]
        assert _oracle_deviation(ctx, PRODUCTS[name], _mixed_state(ctx.space)) <= 1e-14

    def test_zero_state_gives_no_entries(self, oracle_ctx):
        ctx = oracle_ctx[2]
        got = evaluate([_factor(ctx, f) for f in PRODUCTS["rtt"]], FockState(), 2)
        assert got.entries == {}

    def test_drawn_products(self, oracle_ctx):
        # Some drawn products must hold a pair matrix and evaluate to a
        # nonzero tensor, or the draws would not test RMat's legs at all.
        # Some must read a scalar factor drawn on two fresh spaces and one
        # drawn on one, or they would not test its transpose.
        rmat_hits = []
        deferred = set()

        @given(
            N=st.sampled_from([2, 3]),
            specs=products(),
            words=st.lists(
                st.lists(
                    st.tuples(st.integers(0, len(GRID) - 1), st.integers(0, 2)), max_size=2
                ),
                min_size=1,
                max_size=3,
            ),
            amps=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3, max_size=3),
        )
        def check(N, specs, words, amps):
            ctx = oracle_ctx[N]
            canonical = {tuple(sorted((g, c % N) for g, c in w)) for w in words}
            state = FockState(dict(zip(sorted(canonical), amps)))
            assert _oracle_deviation(ctx, specs, state) <= 1e-14
            if any(spec[0] == "rmat" for spec in specs):
                rmat_hits.append(bool(evaluate([_factor(ctx, f) for f in specs], state, N).entries))
            deferred.update(_deferred_reads(specs))

        check()
        assert any(rmat_hits)
        assert deferred == {1, 2}
