import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import accumulate_moments, bin_samples, build_grid
from innerseries.experiments import run_pipeline
from innerseries.frames import (
    FrameSolveError,
    _canonical,
    _gauge,
    align_frame_field,
    fit_field,
    frame_residuals,
    solve_frame,
)
from innerseries.ingest import gen_bounded_walk
from innerseries.model import (
    BinGrid,
    BinMoments,
    FrameField,
    LocalFrame,
    Trajectory,
    best_signed_assignments,
)
from signed_gauge import (
    all_signed_permutations,
    apply_to_frame,
    canonicalize_frame,
    check_transform_law,
    linear_map_law_check,
    sequential_align,
    signed_permutation_matrix,
    stacked_align,
)


def moments_from_samples(v):
    """Direct-average oracle for one bin's moments (c2, t): t contracts the
    dense fourth moment with c2^-1."""
    v = np.asarray(v, dtype=float)
    d = v - v.mean(axis=0)
    c2 = d.T @ d / len(v)
    c4 = np.einsum("ti,tj,tk,tl->ijkl", d, d, d, d) / len(v)
    t = np.einsum("mn,klmn->kl", np.linalg.inv(c2), c4)
    return c2, t


class TestSolveFrame:
    def test_identity_c2_diagonal_t(self):
        # with c2 = I and a fourth moment nonzero only at [i, i, i, i], the
        # contraction t is diag of those entries
        n = 3
        diag = [5.0, 3.0, 1.0]
        frame = solve_frame(np.eye(n), np.diag(diag))
        # m must be a signed permutation of the identity
        perms, signs = best_signed_assignments(frame.m[None])
        p = perms[0], signs[0]
        assert np.linalg.norm(frame.m - signed_permutation_matrix(p)) < 1e-12
        np.testing.assert_allclose(frame.d, sorted(diag, reverse=True), atol=1e-12)

    def test_1d_analytic_form(self):
        for c11 in (0.75, 0.19, 1.0):
            # a Gaussian-like fourth moment 3 c11^2, contracted with 1/c11
            frame = solve_frame(np.array([[c11]]), np.array([[3 * c11]]))
            assert abs(frame.m[0, 0]) == pytest.approx(1.0 / np.sqrt(c11))
            assert abs(frame.v[0, 0]) == pytest.approx(np.sqrt(c11))

    def test_defining_conditions_hold(self):
        rng = np.random.default_rng(0)
        v = np.stack(
            [rng.laplace(size=5000), rng.uniform(-1, 1, size=5000)], axis=1
        )
        c2, t = moments_from_samples(v @ rng.standard_normal((2, 2)))
        frame = solve_frame(c2, t)
        r1, r2 = frame_residuals(*one_bin(frame, c2, t))
        assert r1 < 1e-10
        assert r2 < 1e-8

    def test_scaled_independent_channels(self):
        # transform-samples-and-recheck oracle: M of independent channels
        # scaled by (s1, s2) is diag(1/s1, 1/s2) up to signed permutation,
        # and re-deriving moments in M-transformed coordinates gives identity
        # second moment and diagonal contraction
        rng = np.random.default_rng(1)
        s1, s2 = 2.5, 0.7
        v = np.stack(
            [s1 * rng.laplace(size=20000), s2 * rng.uniform(-1, 1, size=20000)],
            axis=1,
        )
        frame = solve_frame(*moments_from_samples(v))
        target = np.diag(1.0 / v.std(axis=0))
        r = frame.m @ np.linalg.inv(target)
        perms, signs = best_signed_assignments(r[None])
        p = perms[0], signs[0]
        assert np.linalg.norm(r - signed_permutation_matrix(p)) < 0.1
        w = v @ frame.m.T
        c2_w, t = moments_from_samples(w)
        np.testing.assert_allclose(c2_w, np.eye(2), atol=1e-10)
        off = t - np.diag(np.diag(t))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.abs(t))

    def test_ill_conditioned_rejected(self):
        with pytest.raises(FrameSolveError):
            solve_frame(np.diag([1.0, 1e-14]), np.zeros((2, 2)))
        # correlated near-singular, eigenvalues about 1e-14 and 2: no
        # rescaling of the axes makes it well conditioned
        c = 1 - 1e-14
        with pytest.raises(FrameSolveError):
            solve_frame(np.array([[1.0, c], [c, 1.0]]), np.zeros((2, 2)))

    def test_degenerate_flag(self):
        assert solve_frame(np.eye(2), np.diag([3.0, 3.0001])).degenerate_flag
        assert not solve_frame(np.eye(2), np.diag([3.0, 1.0])).degenerate_flag

    def test_uniqueness_up_to_signed_permutation(self):
        # re-solving after an invertible linear change of coordinates gives
        # the same canonical frame (mapped back) within tight tolerance
        rng = np.random.default_rng(2)
        v = np.stack(
            [rng.laplace(size=8000), rng.uniform(-1, 1, size=8000)], axis=1
        )
        frame = solve_frame(*moments_from_samples(v))
        lin = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        frame_t = solve_frame(*moments_from_samples(v @ lin.T))
        back = LocalFrame(
            frame_t.m @ lin,
            np.linalg.inv(frame_t.m @ lin),
            frame_t.d,
            frame_t.degenerate_flag,
        )
        ca = canonicalize_frame(frame)
        cb = canonicalize_frame(back)
        np.testing.assert_allclose(ca.m, cb.m, atol=1e-8)


def walk_then_ramp():
    """1-D walk in [-1, 1] that ends on the exact ramp x = 2 + k/128.  Every
    central difference inside the ramp is exactly 1/128 (dt = 1), so with
    bins (8,) the top three bins each hold equal velocities and c2 = 0."""
    walk = gen_bounded_walk(20_000, seed=0, dim=1)
    ramp = 2 + np.arange(256) / 128
    return Trajectory(np.concatenate([walk.samples[:, 0], ramp]), walk.dt)


RAMP_BINS = [(5,), (6,), (7,)]


def rows_of(moments):
    """Each bin's row in a BinMoments, by key."""
    return {tuple(k): i for i, k in enumerate(moments.keys.tolist())}


def one_bin(frame, c2, t):
    """A one-bin field of frame, and the BinMoments it was solved from."""
    key = (0,) * len(frame.d)
    field = FrameField(_grid((1,) * len(frame.d)), {key: frame}, {key: 0})
    return field, BinMoments([key], [1], [c2], [t])


class TestFitField:
    def test_skips_bin_of_equal_velocities(self):
        traj = walk_then_ramp()
        grid = build_grid(traj, (8,))
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        row = rows_of(moments)
        assert [moments.count[row[k]] for k in RAMP_BINS] == [80, 80, 79]
        for k in RAMP_BINS:
            assert np.all(moments.c2[row[k]] == 0.0) and np.all(moments.t[row[k]] == 0.0)
        field, skipped = fit_field(grid, moments)
        assert list(skipped) == RAMP_BINS
        assert all(r.startswith("c2 ill-conditioned") for r in skipped.values())
        assert set(field.frames) == set(row) - set(RAMP_BINS)

    def test_run_pipeline_counts_skipped_bin(self):
        res = run_pipeline(walk_then_ramp(), (8,), None)
        assert res.n_skipped_bins == 3
        assert all(k in rows_of(res.moments) and k not in res.field.frames for k in RAMP_BINS)


@st.composite
def moment_stacks(draw):
    """(grid, moments): 1..8 bins of N <= 6 channels along the first axis,
    in random order, c2 = A A^T with A near I, and t symmetric positive
    definite."""
    dim = draw(st.integers(1, 6))
    bins = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = np.zeros((bins, dim), dtype=np.int64)
    keys[:, 0] = rng.permutation(bins)
    a = np.eye(dim) + 0.4 * rng.standard_normal((bins, dim, dim))
    b = rng.standard_normal((bins, dim, dim))
    c2 = a @ np.swapaxes(a, 1, 2)
    t = b @ np.swapaxes(b, 1, 2) + np.eye(dim)
    return _grid((bins,) + (1,) * (dim - 1)), BinMoments(keys, np.full(bins, 50), c2, t)


def solve_frame_reference(c2, t):
    """The solve one bin at a time on 2-D arrays, as a loop over bins ran it
    before the stacked solve; None for an ill-conditioned c2."""
    evals, evecs = np.linalg.eigh(c2)
    if evals[0] <= 1e-10 * evals[-1] or evals[-1] <= 0:
        return None
    w = evecs.T / np.sqrt(evals)[:, None]
    s = w @ t @ w.T
    d_asc, o = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(d_asc)[::-1]
    d = d_asc[order]
    m = o[:, order].T @ w
    gaps = np.abs(np.diff(d))
    degenerate = bool(np.any(gaps < 1e-3 * max(np.max(np.abs(d)), np.finfo(float).tiny)))
    return LocalFrame(m, np.linalg.inv(m), d, degenerate)


def residuals_reference(frames, c2s, ts):
    """frame_residuals one bin at a time, then the largest of each."""
    r1 = r2 = 0.0
    for f, c2, t in zip(frames, c2s, ts):
        white = f.m @ c2 @ f.m.T - np.eye(len(f.d))
        contr = f.m @ t @ f.m.T
        off = contr - np.diag(np.diag(contr))
        scale = max(float(np.max(np.abs(f.d))), np.finfo(float).tiny)
        r1 = max(r1, float(np.max(np.abs(white))))
        r2 = max(r2, float(np.max(np.abs(off))) / scale)
    return r1, r2


def frames_before_alignment(monkeypatch, grid, moments):
    """fit_field's skipped bins, and the frames it hands to the alignment,
    by key in the order of its stacks."""
    seen = {}

    def record(grid, keys, counts, m, v, d, degenerate):
        for i, key in enumerate(keys.tolist()):
            seen[tuple(key)] = LocalFrame(m[i], v[i], d[i], bool(degenerate[i]))
        return align_frame_field(grid, keys, counts, m, v, d, degenerate)

    monkeypatch.setattr("innerseries.frames.align_frame_field", record)
    _, skipped = fit_field(grid, moments)
    return seen, skipped


class TestStackedSolve:
    """fit_field solves every bin in one stack; solve_frame is the same code
    on one bin."""

    @settings(max_examples=40, deadline=None)
    @given(moment_stacks())
    def test_bit_identical_to_per_bin_solve(self, case):
        grid, moments = case
        with pytest.MonkeyPatch.context() as mp:
            frames, skipped = frames_before_alignment(mp, grid, moments)
        assert not skipped and list(frames) == list(rows_of(moments))
        for f, c2, t in zip(frames.values(), moments.c2, moments.t):
            for g in (solve_frame(c2, t), solve_frame_reference(c2, t)):
                assert f.degenerate_flag == g.degenerate_flag
                for a, b in ((f.m, g.m), (f.v, g.v), (f.d, g.d)):
                    assert a.tobytes() == b.tobytes()
        field = FrameField(grid, frames, dict.fromkeys(frames, 0))
        assert frame_residuals(field, moments) == residuals_reference(
            frames.values(), moments.c2, moments.t
        )

    @settings(max_examples=30, deadline=None)
    @given(moment_stacks(), st.integers(0, 2**32 - 1))
    def test_permuted_v_is_the_inverse_of_permuted_m(self, case, seed):
        # v takes the signed permutation on its columns instead of being
        # inverted again; on solved frames that gives the same bits
        rng = np.random.default_rng(seed)
        for c2, t in zip(case[1].c2, case[1].t):
            f = solve_frame(c2, t)
            perm, signs = rng.permutation(len(f.d))[None], rng.choice([-1, 1], (1, len(f.d)))
            gm, gv, _ = _gauge(perm, signs, f.m[None], f.v[None], f.d[None])
            assert gv.tobytes() == np.linalg.inv(gm).tobytes()

    def test_bad_bins_in_one_stack(self, monkeypatch):
        moments = BinMoments(
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [100] * 4,
            [np.zeros((2, 2)), np.eye(2), np.diag([1.0, 1e-14]), np.eye(2)],
            [np.zeros((2, 2)), np.diag([3.0, 1.0]), np.zeros((2, 2)), np.diag([3.0, 3.0001])],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the bad bins raise no warning in the stack
            frames, skipped = frames_before_alignment(monkeypatch, _grid((4, 1)), moments)
        assert skipped == {
            (0, 0): "c2 ill-conditioned: eigenvalues 0.000e+00 .. 0.000e+00",
            (2, 0): "c2 ill-conditioned: eigenvalues 1.000e-14 .. 1.000e+00",
        }
        assert list(frames) == [(1, 0), (3, 0)]
        assert not frames[(1, 0)].degenerate_flag
        assert frames[(3, 0)].degenerate_flag
        np.testing.assert_array_equal(frames[(1, 0)].m @ frames[(1, 0)].v, np.eye(2))

    @settings(max_examples=30, deadline=None)
    @given(moment_stacks())
    def test_residuals_pair_each_frame_with_its_bin(self, case):
        # the aligned field holds its bins in visiting order, the moments
        # in their own: each frame is checked against its own bin's row
        grid, moments = case
        field, _ = fit_field(grid, moments)
        row = rows_of(moments)
        rows = [row[k] for k in field.frames]
        assert frame_residuals(field, moments) == residuals_reference(
            field.frames.values(), moments.c2[rows], moments.t[rows]
        )

    def test_residuals_name_a_bin_without_moments(self):
        c2, t = np.eye(2), np.diag([3.0, 1.0])
        moments = BinMoments([(0, 0), (2, 0)], [50, 50], [c2] * 2, [t] * 2)
        field, _ = fit_field(_grid((3, 1)), moments)
        with pytest.raises(ValueError, match=r"^field bin \(2, 0\): no moments row$"):
            frame_residuals(field, BinMoments([(0, 0)], [50], [c2], [t]))

    def test_no_moments(self):
        with pytest.raises(ValueError, match="^no frames to align$"):
            fit_field(_grid((2,)), BinMoments(np.zeros((0, 1)), [], *np.zeros((2, 0, 1, 1))))

    def test_every_bin_skipped(self):
        moments = BinMoments([(0,), (1,)], [9, 9], np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError) as err:
            fit_field(_grid((2,)), moments)
        assert str(err.value) == (
            "no frames to align: all 2 bins skipped; "
            "(0,): c2 ill-conditioned: eigenvalues 0.000e+00 .. 0.000e+00"
        )


def _invertible(rng, n, integer):
    """An n x n matrix of small integers (rows often tie in their largest
    magnitude) or of normal draws, redrawn until well conditioned."""
    while True:
        m = rng.integers(-2, 3, (n, n)).astype(float) if integer else rng.standard_normal((n, n))
        if np.linalg.cond(m) < 1e6:
            return m


@st.composite
def frame_stacks(draw):
    """(m, v, d): stacks of 1..6 frames of N = 1..4 channels; d is often
    drawn from three values, so rows tie in d, and m often holds small
    integers, so rows tie in their largest magnitude."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d = [], []
    for _ in range(draw(st.integers(1, 6))):
        m.append(_invertible(rng, n, draw(st.booleans())))
        d.append(rng.choice([0.5, 1.0, 2.0], n) if draw(st.booleans()) else rng.random(n))
    m = np.array(m)
    return m, np.linalg.inv(m), np.array(d)


def assert_same_frames(stacks, frames):
    """The stacks (m, v, d) hold the frames, bit for bit."""
    for i, f in enumerate(frames):
        for a, b in zip(stacks, (f.m, f.v, f.d)):
            assert a[i].tobytes() == b.tobytes()


def stacked_canonical(frame):
    """The package's stacked canonical gauge on a one-frame stack."""
    m, v, d = frame.m[None], frame.v[None], frame.d[None]
    cm, cv, cd = _gauge(*_canonical(m, d), m, v, d)
    return LocalFrame(cm[0], cv[0], cd[0], frame.degenerate_flag)


class TestCanonicalize:
    """_canonical and _gauge put a stack of frames in the canonical gauge,
    with the bits of the per-frame oracle."""

    def _random_frame(self, rng, n=3):
        m = rng.standard_normal((n, n)) + 2 * np.eye(n)
        d = np.sort(rng.random(n) + 0.5)[::-1]
        return LocalFrame(m, np.linalg.inv(m), d)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        f = self._random_frame(rng)
        c1 = stacked_canonical(f)
        c2 = stacked_canonical(c1)
        np.testing.assert_array_equal(c1.m, c2.m)
        np.testing.assert_array_equal(c1.d, c2.d)

    def test_row_negation_collapses(self):
        rng = np.random.default_rng(1)
        f = self._random_frame(rng)
        m2 = f.m.copy()
        m2[1] *= -1
        f2 = LocalFrame(m2, np.linalg.inv(m2), f.d)
        np.testing.assert_allclose(
            stacked_canonical(f).m, stacked_canonical(f2).m, atol=1e-14
        )

    def test_orbit_collapse_exhaustive_n3(self):
        rng = np.random.default_rng(2)
        f = self._random_frame(rng, n=3)
        ref = stacked_canonical(f)
        for p in all_signed_permutations(3):
            g = apply_to_frame(p, f)
            c = stacked_canonical(g)
            np.testing.assert_allclose(c.m, ref.m, atol=1e-12)
            np.testing.assert_allclose(c.d, ref.d, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks())
    def test_matches_per_frame_oracle(self, case):
        m, v, d = case
        out = _gauge(*_canonical(m, d), m, v, d)
        assert_same_frames(out, [canonicalize_frame(LocalFrame(*f)) for f in zip(m, v, d)])

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks())
    def test_idempotent_on_stacks(self, case):
        m, v, d = case
        once = _gauge(*_canonical(m, d), m, v, d)
        twice = _gauge(*_canonical(once[0], once[2]), *once)
        for a, b in zip(once, twice):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(frame_stacks())
    def test_constant_on_orbits(self, case):
        m, v, d = case
        frame = LocalFrame(m[0], v[0], d[0])
        orbit = [apply_to_frame(p, frame) for p in all_signed_permutations(len(frame.d))]
        om, ov, od = (np.array([getattr(g, a) for g in orbit]) for a in "mvd")
        out = _gauge(*_canonical(om, od), om, ov, od)
        assert_same_frames(out, [canonicalize_frame(frame)] * len(orbit))


class TestNearestSignedPermutation:
    """The best signed assignment of r is the signed permutation whose
    matrix is nearest to r in Frobenius norm."""

    @staticmethod
    def nearest(r):
        perms, signs = best_signed_assignments(r[None])
        return perms[0], signs[0]

    def test_exact_recovery(self):
        for p in all_signed_permutations(3):
            r = signed_permutation_matrix(p)
            q = self.nearest(r)
            np.testing.assert_array_equal(q, p)
            assert np.linalg.norm(r - signed_permutation_matrix(q)) < 1e-14

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1)
        p = np.array([2, 0, 1]), np.array([1, -1, 1])
        r = signed_permutation_matrix(p) + 0.05 * rng.standard_normal((3, 3))
        q = self.nearest(r)
        np.testing.assert_array_equal(q, p)
        assert np.linalg.norm(r - signed_permutation_matrix(q)) < 0.5

    def test_greedy_path_n5(self):
        rng = np.random.default_rng(2)
        p = np.array([4, 2, 0, 1, 3]), np.array([1, -1, 1, 1, -1])
        r = signed_permutation_matrix(p) + 0.01 * rng.standard_normal((5, 5))
        np.testing.assert_array_equal(self.nearest(r), p)

    def test_exact_where_greedy_fails_n5(self):
        # greedy largest-entry assignment takes the 1.0 first and scores 2.5;
        # swapping the first two channels scores 3.3
        r = np.zeros((5, 5))
        r[:2, :2] = [[1.0, 0.9], [0.9, 0.0]]
        r[2:, 2:] = 0.5 * np.eye(3)
        perm, signs = self.nearest(r)
        assert perm.tolist() == [1, 0, 2, 3, 4]
        assert signs.tolist() == [1] * 5
        assert np.abs(r[np.arange(5), perm]).sum() == pytest.approx(3.3)


def _grid(shape):
    return BinGrid(tuple(np.linspace(0, 1, s + 1) for s in shape), 1)


@st.composite
def frame_fields(draw):
    """(grid, frames, counts): random occupancy of a grid of N <= 3 axes of
    1..4 bins, so often several components, random frames (a third flagged
    degenerate) inserted in random order, and counts in 1..3, so ties in
    count are common."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random(shape) < draw(st.floats(0.2, 1.0))
    keys = [k for k in np.ndindex(shape) if occupied[k]] or [(0,) * dim]
    frames = {}
    for i in rng.permutation(len(keys)):
        m = rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
        d = np.sort(rng.random(dim))[::-1]
        frames[keys[i]] = LocalFrame(m, np.linalg.inv(m), d, bool(rng.random() < 1 / 3))
    return _grid(shape), frames, {k: int(rng.integers(1, 4)) for k in frames}


def assert_same_field(field, ref):
    """Same bins in the same order, component ids, and frame bits."""
    assert list(field.frames) == list(ref.frames)
    assert list(field.component_ids.items()) == list(ref.component_ids.items())
    for k, f in ref.frames.items():
        g = field.frames[k]
        assert g.degenerate_flag == f.degenerate_flag
        for a, b in ((g.m, f.m), (g.v, f.v), (g.d, f.d)):
            assert a.tobytes() == b.tobytes()


class TestAlignFrameField:
    @settings(max_examples=80, deadline=None)
    @given(frame_fields())
    def test_bit_identical_to_sequential_search(self, case):
        assert_same_field(stacked_align(*case), sequential_align(*case))

    def test_bit_identical_with_components_and_degenerate_flags(self):
        # a 4 x 5 grid in three components, with ties in count and
        # degenerate bins next to the roots
        rng = np.random.default_rng(7)
        occupied = ["XX.XX", "XX.X.", "...XX", "XXX.."]
        frames, counts = {}, {}
        for i, row in enumerate(occupied):
            for j, c in enumerate(row):
                if c == "X":
                    m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
                    flag = (i + j) % 3 == 1
                    frames[(i, j)] = LocalFrame(m, np.linalg.inv(m), np.array([2.0, 1.0]), flag)
                    counts[(i, j)] = 5 + (i * j) % 2
        field = stacked_align(_grid((4, 5)), frames, counts)
        assert set(field.component_ids.values()) == {0, 1, 2}
        assert_same_field(field, sequential_align(_grid((4, 5)), frames, counts))

    def test_chain_of_128_bins_from_the_middle(self):
        # the 1-D experiment arms: 128 bins, the most populated in the
        # middle, so each level holds the two bins on either side of it, in
        # ties of count
        rng = np.random.default_rng(11)
        frames = {}
        for i in rng.permutation(128):
            m = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0, (1, 1))
            frames[(int(i),)] = LocalFrame(m, np.linalg.inv(m), np.array([rng.random()]))
        counts = {(i,): 1000 - abs(i - 64) for i in range(128)}
        field = stacked_align(_grid((128,)), frames, counts)
        assert list(field.frames)[:3] == [(64,), (63,), (65,)]
        assert set(field.component_ids.values()) == {0}
        assert_same_field(field, sequential_align(_grid((128,)), frames, counts))

    def test_3_to_the_6_grid_with_holes(self):
        # the six-channel benchmark's grid, about a third of its bins empty
        rng = np.random.default_rng(12)
        shape = (3,) * 6
        keys = [k for k in np.ndindex(shape) if rng.random() < 0.65]
        frames = {}
        for i in rng.permutation(len(keys)):
            m = rng.standard_normal((6, 6)) + 2 * np.eye(6)
            d = np.sort(rng.random(6))[::-1]
            frames[keys[i]] = LocalFrame(m, np.linalg.inv(m), d, bool(rng.random() < 1 / 3))
        counts = {k: int(rng.integers(1, 4)) for k in frames}
        field = stacked_align(_grid(shape), frames, counts)
        assert len(field.frames) == len(keys) > 400
        assert_same_field(field, sequential_align(_grid(shape), frames, counts))

    def _base_frame(self, rng, n=2):
        m = rng.standard_normal((n, n)) + 2 * np.eye(n)
        d = np.array([3.0, 1.0])[:n]
        return LocalFrame(m, np.linalg.inv(m), d)

    def test_shared_frame_identity_corrections(self):
        rng = np.random.default_rng(0)
        base = canonicalize_frame(self._base_frame(rng))
        counts = {(i, j): 10 for i in range(3) for j in range(3)}
        frames = {k: base for k in counts}
        field = stacked_align(_grid((3, 3)), frames, counts)
        for f in field.frames.values():
            np.testing.assert_allclose(f.m, base.m, atol=1e-12)
        assert set(field.component_ids.values()) == {0}

    def test_row_swap_corrected(self):
        rng = np.random.default_rng(1)
        base = canonicalize_frame(self._base_frame(rng))
        swapped = apply_to_frame((np.array([1, 0]), np.array([1, 1])), base)
        field = stacked_align(
            _grid((2, 1)), {(0, 0): base, (1, 0): swapped}, {(0, 0): 20, (1, 0): 10}
        )
        np.testing.assert_allclose(field.frames[(1, 0)].m, base.m, atol=1e-12)

    def test_injection_recovery(self):
        # smooth synthetic field + random per-bin signed permutations:
        # alignment recovers the original up to one global signed permutation
        rng = np.random.default_rng(2)
        shape = (5, 5)
        true_frames = {}
        for i in range(shape[0]):
            for j in range(shape[1]):
                theta = 0.08 * (i + 2 * j)  # slowly varying rotation
                rot = np.array(
                    [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
                )
                m = rot @ np.diag([1.5, 0.8])
                true_frames[(i, j)] = LocalFrame(
                    m, np.linalg.inv(m), np.array([3.0, 1.0])
                )
        group = list(all_signed_permutations(2))
        scrambled = {
            k: apply_to_frame(group[rng.integers(len(group))], f)
            for k, f in true_frames.items()
        }
        counts = {k: 10 + rng.integers(5) for k in true_frames}
        field = stacked_align(_grid(shape), scrambled, counts)
        # the residual of each aligned frame vs truth must share one global P
        globals_seen = set()
        for k, f in field.frames.items():
            r = f.m @ true_frames[k].v
            perms, signs = best_signed_assignments(r[None])
            assert np.linalg.norm(r - signed_permutation_matrix((perms[0], signs[0]))) < 1e-8
            globals_seen.add((tuple(perms[0]), tuple(signs[0])))
        assert len(globals_seen) == 1

    def test_disconnected_components(self):
        rng = np.random.default_rng(3)
        base = canonicalize_frame(self._base_frame(rng))
        field = stacked_align(
            _grid((5, 1)), {(0, 0): base, (4, 0): base}, {(0, 0): 10, (4, 0): 10}
        )
        assert len(set(field.component_ids.values())) == 2


class TestOneAssignment:
    def test_fine_grid_one_assignment_per_fit(self, monkeypatch):
        # a 2-D walk on a fine grid with a low min_count: many components
        # of differing depths, every bin below a root solved in one call
        traj = gen_bounded_walk(30_000, seed=4, dim=2, noise=("laplace", "uniform"))
        grid = build_grid(traj, (70, 70), 6)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        with pytest.MonkeyPatch.context() as mp:
            frames, _ = frames_before_alignment(mp, grid, moments)
        calls = []

        def count(scores):
            calls.append(len(scores))
            return best_signed_assignments(scores)

        monkeypatch.setattr("innerseries.frames.best_signed_assignments", count)
        field, _ = fit_field(grid, moments)
        components = len(set(field.component_ids.values()))
        assert components >= 50
        assert calls == [len(field.frames) - components]
        counts = dict(zip(map(tuple, moments.keys.tolist()), moments.count.tolist()))
        assert_same_field(field, sequential_align(grid, frames, counts))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chain_of_1200_bins_from_an_edge(self, dim):
        # one chain of depth 1199 (no power of two, so the last doubling
        # pass is a partial one), its frames a slowly turning frame under a
        # random signed permutation per bin, so the corrections along the
        # chain do not commute when dim >= 2
        rng = np.random.default_rng(13)
        shape = (1200,) + (1,) * (dim - 1)
        group = list(all_signed_permutations(dim))
        frames = {}
        for i in range(shape[0]):
            m = np.eye(dim)
            m[:2, :2] = _rotation(0.01 * i)[: min(dim, 2), : min(dim, 2)]
            m = m @ np.diag(np.arange(1.0, dim + 1))
            frame = LocalFrame(m, np.linalg.inv(m), np.arange(dim, 0.0, -1.0))
            frames[(i,) + (0,) * (dim - 1)] = apply_to_frame(group[rng.integers(len(group))], frame)
        counts = {k: 5000 - k[0] for k in frames}
        field = stacked_align(_grid(shape), frames, counts)
        assert next(iter(field.frames)) == (0,) * dim
        assert set(field.component_ids.values()) == {0}
        assert_same_field(field, sequential_align(_grid(shape), frames, counts))


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


@st.composite
def well_conditioned_maps(draw):
    """2x2 maps R(a) diag(s, s/k) R(b), composed with a reflection when
    flipped: condition number k <= 10, either determinant sign."""
    a, b = draw(st.floats(0, np.pi)), draw(st.floats(0, np.pi))
    s, k = draw(st.floats(0.1, 10)), draw(st.floats(1, 10))
    flip = -1.0 if draw(st.booleans()) else 1.0
    return _rotation(a) @ np.diag([s, s / k]) @ _rotation(b) @ np.diag([1.0, flip])


# Largest residual over 500 random maps of this family (seed-0 walk, 40 000
# samples, bins 5,5) was 5.3e-13, at k = 10; the fixed map of criterion 6
# gives 5e-15.  The bound leaves a factor of about 20.
LAW_RESIDUAL_BOUND = 1e-11


class TestCheckTransformLaw:
    def test_identity_p_zero_residual(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        jac = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        m_prime = m @ jac
        residual, (perm, signs) = check_transform_law(m, m_prime, jac)
        assert residual < 1e-12
        assert perm.tolist() == [0, 1] and signs.tolist() == [1, 1]

    def test_swap_reflect_recovered(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        jac = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        p_true = np.array([1, 0]), np.array([1, -1])
        m_prime = signed_permutation_matrix(p_true) @ m @ jac
        residual, p = check_transform_law(m, m_prime, jac)
        assert residual < 1e-12
        np.testing.assert_array_equal(p, p_true)

    def test_singular_jacobian(self):
        with pytest.raises(ValueError):
            check_transform_law(np.eye(2), np.eye(2), np.zeros((2, 2)))

    @settings(max_examples=15, deadline=None)
    @given(lin=well_conditioned_maps())
    def test_end_to_end_linear_map(self, lin):
        worst, checked = linear_map_law_check(seed=0, n=40_000, bins=(5, 5), lin=lin)
        assert checked >= 1
        assert worst <= LAW_RESIDUAL_BOUND
