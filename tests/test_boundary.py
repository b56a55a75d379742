"""Boundary generators: exact small-sector values, the batch form, the
seven-relation algebra, the reflection-twisted identity, and the
substitution automorphism."""

import json
from collections import Counter
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRID, at_component, atdag_component, random_state, relation
from zfcheck.boundary import BoundaryContext
from zfcheck.cli import main
from zfcheck.errors import GridDomainError, NotWhitelistedError
from zfcheck.fock import FockSpace, FockState, SpectralGrid, states_equal
from zfcheck.harness import RELATIONS
from zfcheck.relations import one_hot
from zfcheck.rmatrix import constant_diagonal_b, eval_b, phase_diagonal_b, rational_r, worst_over
from zfcheck.vertex import VertexContext

PAIRS = ((1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (-3.0, 1.0))
SEVEN = ("BNl-1", "BNl-2", "BNl-3", "BNl-4", "BNl-5", "eq:bb", "rbrb")
SUBSTITUTION = ("rhoB-aa", "rhoB-adad", "rhoB-aad", "rhoB-involution", "coset")


def amax(state):
    return state.maxamp()


class TestGeneratorValues:
    def test_annihilator_kills_vacuum(self, bctx):
        vac = bctx.space.vacuum()
        for k in bctx.grid:
            for i in range(bctx.N):
                assert amax(at_component(bctx, i, k, vac)) == 0.0

    def test_same_momentum_pairing_is_half_delta(self, bctx):
        # at_i(k) a†_j(k) vac = 1/2 delta_ij vac
        sp = bctx.space
        vac = sp.vacuum()
        k = 2.0
        for i in range(bctx.N):
            for j in range(bctx.N):
                got = at_component(bctx, i, k, sp.apply_creation(j, k, vac))
                want = vac.scaled(0.5 if i == j else 0.0)
                assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_opposite_momentum_pairing_reads_the_reflection_matrix(self, bctx):
        # at_i(k) a†_j(-k) vac = 1/2 B_ij(k) vac
        sp = bctx.space
        vac = sp.vacuum()
        k = 1.0
        bmat = eval_b(bctx.vertex.reflection, k)
        for i in range(bctx.N):
            for j in range(bctx.N):
                got = at_component(bctx, i, k, sp.apply_creation(j, -k, vac))
                want = vac.scaled(0.5 * bmat[i, j])
                assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_creator_on_vacuum_identity_family(self, bctx_id):
        # With B = I the halved creator is the plain average of +k and -k.
        sp = bctx_id.space
        vac = sp.vacuum()
        k = 3.0
        for i in range(bctx_id.N):
            got = atdag_component(bctx_id, i, k, vac)
            want = (
                sp.apply_creation(i, k, vac).scaled(0.5)
                + sp.apply_creation(i, -k, vac).scaled(0.5)
            )
            assert amax(got + want.scaled(-1.0)) < 1e-14

    def test_creator_on_vacuum_diagonal_family(self, bctx):
        sp = bctx.space
        vac = sp.vacuum()
        k = 2.0
        bmat = eval_b(bctx.vertex.reflection, -k)
        for i in range(bctx.N):
            got = atdag_component(bctx, i, k, vac)
            want = (
                sp.apply_creation(i, k, vac).scaled(0.5)
                + sp.apply_creation(i, -k, vac).scaled(0.5 * bmat[i, i])
            )
            assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_off_grid_momentum_rejected(self, bctx):
        with pytest.raises(GridDomainError):
            bctx.apply_a_tilde(0.25, [[bctx.space.vacuum()]])

    def test_pair_images_memo_returns_identical_tuples(self, vctx, rng, monkeypatch):
        # The per-word images at†(k) at(k) w are the one memo: a second call
        # returns the same tuples and sends nothing through at.
        ctx = BoundaryContext(vctx)
        words = list(random_state(rng, ctx.space, 2).amps)
        first = ctx.pair_images(words)
        calls = []
        apply_a_tilde = ctx.apply_a_tilde
        monkeypatch.setattr(
            ctx, "apply_a_tilde", lambda k, vecs: calls.append(k) or apply_a_tilde(k, vecs)
        )
        second = ctx.pair_images(words)
        assert all(a is b for a, b in zip(first, second)) and len(second) == len(words)
        assert calls == []
        assert set(ctx._memo) == set(words)

    def test_generators_memoize_nothing(self, vctx4, rng):
        ctx = BoundaryContext(vctx4)
        s = random_state(rng, ctx.space, 2)
        for tag in (*SEVEN, *SUBSTITUTION):
            assert relation("boundary", tag, ctx, 1.0, 2.0)(s) < 1e-10, tag
        assert relation("boundary", "rho", ctx, 1.0)(s) < 1e-11
        assert ctx._memo == {}


@pytest.fixture(scope="module")
def batch_ctx():
    """Per N, a boundary context with one particle of headroom over sector 2."""
    out = {}
    for N in (2, 3):
        space = FockSpace(SpectralGrid(GRID), rational_r(N, 0.7), n_max=3)
        signs = [(-1) ** c for c in range(N)]
        out[N] = BoundaryContext(VertexContext(space, phase_diagonal_b(N, 1.0, signs)))
    return out


class TestBatchForm:
    """Every generator maps a batch of aux vectors, as T and b do."""

    @given(
        N=st.sampled_from([2, 3]),
        columns=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2), st.integers(0, 10**6), st.complex_numbers(max_magnitude=2.0)
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=9,
        ),
        k=st.sampled_from(GRID),
    )
    def test_row_of_a_vector_is_sum_of_one_hot_rows(self, batch_ctx, N, columns, k):
        # Each drawn column is a few (sector, word pick, amplitude) triples;
        # consecutive runs of N columns make one aux vector.
        ctx = batch_ctx[N]
        sectors = [ctx.space.canonical_words(n) for n in range(3)]
        states = [
            FockState.combine(
                (a, ctx.space.basis_state(sectors[n][pick % len(sectors[n])]))
                for n, pick, a in col
            )
            for col in columns
        ]
        states += [FockState()] * (-len(states) % N)
        vecs = [states[v : v + N] for v in range(0, len(states), N)]
        rows = {
            "at†": lambda batch: ctx.apply_a_tilde_dagger(k, batch),
            "alpha†": ctx.alpha_dag_covec(1, k).op,
        }
        for name, row in rows.items():
            images = row(vecs)
            assert len(images) == len(vecs) and all(len(image) == 1 for image in images)
            for vec, (image,) in zip(vecs, images):
                one_hots = [row([one_hot(s, N)[l]])[0][0] for l, s in enumerate(vec) if s.amps]
                want = FockState.combine((1.0, oh) for oh in one_hots)
                assert states_equal(image, want, tol=0.0)[1] <= 1e-13, name

    def test_columns_of_a_batch_match_single_calls(self, batch_ctx, rng):
        ctx = batch_ctx[3]
        states = [random_state(rng, ctx.space, n) for n in (1, 2, 2)]
        for column in (partial(ctx.apply_a_tilde, 2.0), ctx.alpha_vec(1, -1.0).op):
            images = column([[s] for s in states])
            for s, image in zip(states, images):
                (single,) = column([[s]])
                assert len(image) == 3
                # b on a batch of one is a BLAS gemv, on a batch of three a
                # gemm: the two differ in the last bits, measured 1.2e-16 on these states.
                assert all(states_equal(a, b, tol=0.0)[1] <= 1e-14 for a, b in zip(image, single))

    def test_bnl3_sends_one_b_batch_per_generator_factor(self, vctx, rng, monkeypatch):
        # BNl-3 at a generic pair holds four generator factors: at_1 and at†_2
        # on each side.  Each must send its whole batch through b once.
        calls = []
        apply_b = vctx.apply_b
        monkeypatch.setattr(
            vctx, "apply_b", lambda k, vecs, **kw: calls.append(k) or apply_b(k, vecs, **kw)
        )
        fn = relation("boundary", "BNl-3", BoundaryContext(vctx), 1.0, 2.0)
        assert fn(random_state(rng, vctx.space, 2)) < 1e-10
        assert 0 < len(calls) <= 4, calls


class TestAmplitudeType:
    def test_every_operator_returns_builtin_complex(self):
        # numpy scalars must not leak into states: every amplitude out of a,
        # a†, T, T^-1, b, at and at† on the basis words of sectors 0-3 is a
        # plain Python complex.
        space = FockSpace(SpectralGrid(GRID), rational_r(2, 0.7), n_max=4)
        bctx = BoundaryContext(VertexContext(space, phase_diagonal_b(2, 1.0, [1, -1])))
        vctx = bctx.vertex
        states = [space.basis_state(w) for n in range(4) for w in space.canonical_words(n)]
        one_hots = [vec for s in states for vec in one_hot(s, 2)]
        images = {
            "a": space.annihilation_column(2.0, [[s] for s in states]),
            "a†": space.creation_row(-1.0, one_hots),
            "T": vctx.apply_T(0.37, one_hots),
            "T^-1": vctx.apply_T_inverse(-1.6, one_hots),
            "b": vctx.apply_b(2.0, one_hots),
            "at": bctx.apply_a_tilde(-2.0, [[s] for s in states]),
            "at†": bctx.apply_a_tilde_dagger(1.0, one_hots),
        }
        # a† after a: the annihilated states carry their amplitudes on.
        images["a† a"] = space.creation_row(3.0, images["a"])
        for name, batch in images.items():
            types = {type(a) for image in batch for st in image for a in st.amps.values()}
            assert types == {complex}, (name, types)


class TestSevenRelations:
    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_two_particle_samples(self, bctx4, rng, k1, k2):
        fns = {tag: relation("boundary", tag, bctx4, k1, k2) for tag in SEVEN}
        s = random_state(rng, bctx4.space, 2)
        for tag, fn in fns.items():
            assert fn(s) < 1e-10, tag

    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_one_particle_samples(self, bctx, rng, k1, k2):
        fns = {tag: relation("boundary", tag, bctx, k1, k2) for tag in SEVEN}
        s = random_state(rng, bctx.space, 1)
        for tag, fn in fns.items():
            assert fn(s) < 1e-11, tag

    def test_vacuum_sample(self, bctx):
        fns = {tag: relation("boundary", tag, bctx, 1.0, -1.0) for tag in SEVEN}
        vac = bctx.space.vacuum()
        for tag, fn in fns.items():
            assert fn(vac) < 1e-13, tag

    def test_contact_channels_are_load_bearing(self, bctx, rng):
        # Dropping the delta channel at k1 == k2 must leave a visible gap:
        # compare the full relation against the naked exchange form.
        from zfcheck.relations import RMat, identity_residual
        from zfcheck.rmatrix import eval_r

        s = random_state(rng, bctx.space, 1)
        k = 2.0
        at1 = bctx.at_vec(1, k)
        atdag2 = bctx.atdag_covec(2, k)
        r_12 = RMat(1, 2, eval_r(bctx.space.r, k, k))
        naked = identity_residual(
            [(1.0, [at1, atdag2])], [(1.0, [atdag2, r_12, at1])], s, bctx.N
        )
        full = relation("boundary", "BNl-3", bctx, k, k)(s)
        assert full < 1e-11
        assert naked > 0.4

    def test_aggregate_wrapper(self, bctx, rng):
        samples = [random_state(rng, bctx.space, 1)]
        for tag in SEVEN:
            fn = relation("boundary", tag, bctx, 1.0, 2.0)
            res = worst_over(fn, samples, relation=tag)
            assert res.value < 1e-10, tag
            assert res.context["relation"] == tag


class TestRhoIdentity:
    @pytest.mark.parametrize("k", [1.0, -2.0, 3.0])
    def test_reflection_twist_acts_as_identity(self, bctx, rng, k):
        fn = relation("boundary", "rho", bctx, k)
        for n in (1, 2):
            assert fn(random_state(rng, bctx.space, n)) < 1e-11

    def test_identity_family_too(self, bctx_id, rng):
        fn = relation("boundary", "rho", bctx_id, 2.0)
        assert fn(random_state(rng, bctx_id.space, 2)) < 1e-11

    def test_wrapper(self, bctx, rng):
        fn = relation("boundary", "rho", bctx, 1.0)
        res = worst_over(fn, [random_state(rng, bctx.space, 1)], momenta=(1.0,))
        assert res.value < 1e-11
        assert res.context["momenta"] == (1.0,)


class TestRhoBAutomorphism:
    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_two_particle_samples(self, bctx4, rng, k1, k2):
        fns = {tag: relation("boundary", tag, bctx4, k1, k2) for tag in SUBSTITUTION}
        s = random_state(rng, bctx4.space, 2)
        for tag, fn in fns.items():
            assert fn(s) < 1e-10, tag

    def test_coset_is_tight(self, bctx, rng):
        # The average-of-identity-and-image form reproduces the halved
        # generators with nothing but rounding noise.
        fn = relation("boundary", "coset", bctx, 1.0, 2.0)
        for n in (1, 2):
            assert fn(random_state(rng, bctx.space, n)) < 1e-13

    def test_involution_restores_plain_annihilator(self, bctx, rng):
        fn = relation("boundary", "rhoB-involution", bctx, -2.0, 1.0)
        assert fn(random_state(rng, bctx.space, 2)) < 1e-12

    def test_full_delta_at_equal_momenta(self, bctx, rng):
        # rhoB-aad carries the full (unhalved) delta term; at k1 == k2 the
        # relation only closes because of it.
        fn = relation("boundary", "rhoB-aad", bctx, 1.0, 1.0)
        assert fn(random_state(rng, bctx.space, 1)) < 1e-11

    def test_aggregate_wrapper(self, bctx, rng):
        samples = [random_state(rng, bctx.space, 1)]
        for tag in SUBSTITUTION:
            fn = relation("boundary", tag, bctx, 1.0, 2.0)
            assert worst_over(fn, samples).value < 1e-10, tag


class TestGates:
    def test_blocked_family_constructs_but_refuses_generators(self, space):
        vbad = VertexContext(space, constant_diagonal_b([2.0, 1.0]))
        ctx = BoundaryContext(vbad)
        with pytest.raises(NotWhitelistedError, match="failed the whitelist gate"):
            ctx.apply_a_tilde(1.0, [[space.vacuum()]])

    def test_matrix_involution_gate(self, space, tmp_path, capsys):
        # B(k) B(-k) = I misses by 5e-11.  The whitelist gate, at the run's
        # tolerance, is the one judge: above the defect the family builds
        # generators, below it the gate refuses b and everything downstream.
        near = [1.0 + 2.5e-11, 1.0]
        ctx = BoundaryContext(VertexContext(space, constant_diagonal_b(near)))
        # at_0(1) a†_0(-1) vac = 1/2 B_00(1) vac
        got = at_component(ctx, 0, 1.0, space.apply_creation(0, -1.0, space.vacuum()))
        assert got.amps == {(): pytest.approx(0.5 * near[0], abs=1e-15)}
        strict = BoundaryContext(VertexContext(space, constant_diagonal_b(near), whitelist_tol=1e-11))
        with pytest.raises(NotWhitelistedError, match="failed the whitelist gate"):
            strict.apply_a_tilde(1.0, [[space.vacuum()]])

        cfg = tmp_path / "near.json"
        cfg.write_text(json.dumps({"reflection": {"family": "constant-diagonal", "entries": near}}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--tol", "1e-11", "--format", "json",
                     "--report", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text())
        overall = doc["summary"]["overall"]
        assert [overall[k] for k in ("checks", "pass", "fail", "skip")] == [401, 318, 24, 59]
        fails = Counter(r["relation"] for r in doc["records"] if r["status"] == "fail")
        assert fails == {"B-unitarity": 6, "RBRB": 18}
        gated = {(r.suite, r.tag) for r in RELATIONS if r.needs_b}
        cause = "reflection family 'constant-diagonal' failed the whitelist gate (worst residual 5.000e-11)"
        dependent = [r for r in doc["records"] if (r["suite"], r["relation"]) in gated]
        assert len(dependent) == len(gated)
        assert all(r["status"] == "skip" and r["cause"] == cause for r in dependent)

    def test_involution_residual_recorded(self, bctx):
        # The gate measures B(k) B(-k) = I once per grid momentum.
        unitarity = [r for r in bctx.vertex.whitelist.checks if r.context["relation"] == "B-unitarity"]
        assert [r.context["momenta"] for r in unitarity] == [(k,) for k in bctx.grid]
        assert max(r.value for r in unitarity) < 1e-11
