import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import estimate_velocity
from innerseries.model import (
    BinGrid,
    BinMoments,
    DimensionMismatchError,
    FrameField,
    LocalFrame,
    Trajectory,
    WeightSeries,
    _COMPARE_EDGES,
    best_signed_assignments,
)
from signed_gauge import (
    all_signed_permutations,
    apply_to_array,
    first_optimal_assignment,
    inverse,
    signed_permutation_matrix,
)


class TestTrajectory:
    def test_basic(self):
        t = Trajectory(np.zeros((5, 2)), 0.1)
        assert t.n_samples == 5 and t.dim == 2
        assert t.channel_names == ("ch1", "ch2")

    def test_too_few_samples(self):
        # a trajectory needs one sample; only velocity estimation needs three
        with pytest.raises(ValueError, match="at least 1 sample"):
            Trajectory(np.zeros((0, 1)), 0.1)
        assert Trajectory(np.zeros((1, 2)), 0.1).n_samples == 1
        with pytest.raises(ValueError, match="need at least 3 samples"):
            estimate_velocity(Trajectory(np.zeros((2, 1)), 0.1))

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((5, 1)), 0.0)

    def test_non_finite(self):
        data = np.zeros((5, 1))
        data[3] = np.nan
        with pytest.raises(ValueError):
            Trajectory(data, 0.1)

    def test_1d_promoted(self):
        t = Trajectory(np.arange(4.0), 1.0)
        assert t.samples.shape == (4, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (WeightSeries, "valid weights must be finite"),
    ],
    ids=["weights"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_valid_rows_must_be_finite(make, message, bad):
    """A non-finite value is rejected in a valid row and kept in an invalid one."""
    values = np.zeros((6, 3))
    values[4, 2] = bad
    mask = np.ones(6, dtype=bool)
    with pytest.raises(ValueError, match=message):
        make(values, mask)
    mask[4] = False
    kept = make(values, mask)
    np.testing.assert_array_equal(kept.values, values)
    np.testing.assert_array_equal(kept.valid_mask, mask)


class TestSignedPermutation:
    def test_identity_apply(self):
        w = np.array([[1.0], [-2.0], [3.0]])
        out = apply_to_array((np.array([0]), np.array([1])), w)
        np.testing.assert_array_equal(out, w)

    def test_pure_reflection(self):
        w = np.array([[1.0], [-2.0], [3.0]])
        out = apply_to_array((np.array([0]), np.array([-1])), w)
        np.testing.assert_array_equal(out[:, 0], [-1.0, 2.0, -3.0])

    def test_swap_with_signs_roundtrip(self):
        # applying p then p^-1 recovers the input
        w = np.array([[1.0, 2.0], [3.0, 4.0], [-5.0, 6.0]])
        p = np.array([1, 0]), np.array([1, -1])
        out = apply_to_array(p, w)
        np.testing.assert_array_equal(out[:, 0], w[:, 1])
        np.testing.assert_array_equal(out[:, 1], -w[:, 0])
        np.testing.assert_array_equal(apply_to_array(inverse(p), out), w)

    def test_valid_mask_preserved(self):
        # p acts within each row, so a row mask commutes with it
        w = np.arange(8.0).reshape(4, 2)
        mask = np.array([1, 0, 1, 0], dtype=bool)
        p = np.array([1, 0]), np.array([1, -1])
        np.testing.assert_array_equal(apply_to_array(p, w)[mask], apply_to_array(p, w[mask]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_closure_and_inverse_exhaustive(self, n):
        # the oracle lists 2^n n! distinct elements, the inverse of each is
        # one of them, and it undoes p from either side
        group = list(all_signed_permutations(n))
        keys = {(tuple(perm), tuple(signs)) for perm, signs in group}
        assert len(keys) == len(group) == 2**n * math.factorial(n)
        eye = np.eye(n)
        for p in group:
            q = inverse(p)
            assert (tuple(q[0]), tuple(q[1])) in keys
            np.testing.assert_array_equal(apply_to_array(q, apply_to_array(p, eye)), eye)
            np.testing.assert_array_equal(apply_to_array(p, apply_to_array(q, eye)), eye)

    def test_matrix_consistency(self):
        rng = np.random.default_rng(3)
        for p in all_signed_permutations(3):
            v = rng.standard_normal(3)
            np.testing.assert_allclose(signed_permutation_matrix(p) @ v, apply_to_array(p, v))


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    ),
    perm=st.permutations(list(range(3))),
    signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3),
)
def test_apply_then_inverse_roundtrip(data, perm, signs):
    w = np.array(data)
    p = np.array(perm), np.array(signs)
    np.testing.assert_array_equal(apply_to_array(inverse(p), apply_to_array(p, w)), w)


def _reference_flat_index(edges, pts):
    """Per-axis searchsorted bin, the top edge moved into the last bin, then
    row-major ravel of the points inside on every axis; -1 for the rest."""
    idx = np.empty(pts.shape, dtype=np.int64)
    inside = np.ones(len(pts), dtype=bool)
    for a, e in enumerate(edges):
        idx[:, a] = np.searchsorted(e, pts[:, a], side="right") - 1
        idx[pts[:, a] == e[-1], a] = len(e) - 2
        inside &= (pts[:, a] >= e[0]) & (pts[:, a] <= e[-1])
    out = np.full(len(pts), -1, dtype=np.int64)
    out[inside] = np.ravel_multi_index(idx[inside].T, tuple(len(e) - 1 for e in edges))
    return out


@st.composite
def grid_and_points(draw):
    """Up to 4 axes, each of 1-4 bins or of a bin count about the limit
    between binning by comparisons and by search (_COMPARE_EDGES + 1 bins
    are counted by comparisons, one more by search); each point coordinate
    is an edge (interior, bottom or inclusive top), just below an edge, or
    inside, and a point may be moved outside the grid on one axis."""
    edges = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.floats(-10, 10))
        bins = draw(st.integers(1, 4) | st.integers(_COMPARE_EDGES, _COMPARE_EDGES + 3))
        steps = draw(st.lists(st.floats(0.01, 4.0), min_size=bins, max_size=bins))
        edges.append(start + np.cumsum([0.0, *steps]))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        point = [
            draw(
                st.sampled_from(e.tolist())
                | st.sampled_from(np.nextafter(e[1:], -np.inf).tolist())
                | st.floats(e[0], e[-1])
            )
            for e in edges
        ]
        out_axis = draw(st.none() | st.integers(0, len(edges) - 1))
        if out_axis is not None:
            e = edges[out_axis]
            below, above = np.nextafter(e[0], -np.inf), np.nextafter(e[-1], np.inf)
            point[out_axis] = draw(st.sampled_from([below, e[0] - 1.0, above, e[-1] + 1.0]))
        points.append(point)
    return edges, np.array(points)


class TestBinGridFlatIndex:
    @settings(max_examples=150, deadline=None)
    @given(grid_and_points())
    def test_matches_per_axis_reference(self, case):
        edges, pts = case
        np.testing.assert_array_equal(
            BinGrid(tuple(edges), 1).flat_index(pts), _reference_flat_index(edges, pts)
        )

    def test_row_major_with_inclusive_top_edge(self):
        grid = BinGrid((np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0, 3.0])), 1)
        pts = np.array([[1.0, 3.0], [2.0, 0.0], [0.5, 1.0], [0.5, 3.5], [-0.1, 1.0]])
        np.testing.assert_array_equal(grid.flat_index(pts), [5, 3, 1, -1, -1])

    def test_dimension_checked(self):
        grid = BinGrid((np.array([0.0, 1.0]),), 1)
        with pytest.raises(
            DimensionMismatchError, match="^point dimension 2, grid dimension 1$"
        ):
            grid.flat_index(np.zeros((3, 2)))


class TestBinMoments:
    def test_stacks_read_only_and_counted(self):
        moments = BinMoments([(0, 1), (2, 0)], [60, 70], np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        assert len(moments) == 2
        assert moments.keys.dtype == moments.count.dtype == np.int64
        for a in (moments.keys, moments.count, moments.c2, moments.t):
            assert not a.flags.writeable

    @pytest.mark.parametrize(
        "keys, count, c2, t",
        [
            ([(0, 1)], [60, 70], np.ones((1, 2, 2)), np.ones((1, 2, 2))),  # one count per bin
            ([(0, 1)], [60], np.ones((1, 3, 3)), np.ones((1, 3, 3))),  # N x N for N-index keys
            ([(0, 1)], [60], np.ones((1, 2, 2)), np.ones((1, 2, 1))),  # t like c2
            ([0, 1], [60, 70], np.ones((2, 1, 1)), np.ones((2, 1, 1))),  # keys (B, N)
            (np.zeros((2, 0)), [60, 70], np.ones((2, 0, 0)), np.ones((2, 0, 0))),  # N >= 1
        ],
    )
    def test_inconsistent_shapes_rejected(self, keys, count, c2, t):
        with pytest.raises(ValueError, match="moment shapes inconsistent"):
            BinMoments(keys, count, c2, t)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="c2 contains non-finite"):
            BinMoments([(0,)], [5], [[[np.nan]]], [[[1.0]]])

    def test_duplicate_key_rejected(self):
        # two rows for one bin would give it two frames
        with pytest.raises(ValueError, match=r"^bin \(0, 1\) has more than one row$"):
            BinMoments([(2, 0), (0, 1), (0, 1)], [6, 7, 8], np.ones((3, 2, 2)), np.ones((3, 2, 2)))

    def test_duplicates_apart_named_by_the_least_key(self):
        # neither bin's two rows are next to each other; (1, 2) sorts first
        keys = [(3, 0), (1, 2), (0, 5), (3, 0), (2, 2), (1, 2)]
        with pytest.raises(ValueError, match=r"^bin \(1, 2\) has more than one row$"):
            BinMoments(keys, [9] * 6, np.ones((6, 2, 2)), np.ones((6, 2, 2)))



GRID_2X2 = BinGrid((np.linspace(0, 1, 3), np.linspace(0, 1, 3)), 1)
EYE_FRAME = LocalFrame(np.eye(2), np.eye(2), np.ones(2))


class TestFrameField:
    def test_frames_are_read_only_views_of_the_stacks(self):
        scaled = LocalFrame(2 * np.eye(2), np.eye(2) / 2, np.array([2.0, 1.0]), True)
        field = FrameField(GRID_2X2, {(1, 0): scaled, (0, 1): EYE_FRAME}, {(1, 0): 0, (0, 1): 1})
        assert field.keys.tolist() == [[1, 0], [0, 1]]  # the mapping's order
        for i, frame in enumerate(field.frames.values()):
            for part, stack in zip(frame[:3], (field.m, field.v, field.d)):
                assert np.shares_memory(part, stack)
                np.testing.assert_array_equal(part, stack[i])
        np.testing.assert_array_equal(field.frames[(1, 0)].m, scaled.m)
        assert field.frames[(1, 0)].degenerate_flag and not field.frames[(0, 1)].degenerate_flag
        for a in (field.keys, field.m, field.v, field.d, field.frames[(1, 0)].m):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize(
        "key, frame, message",
        [
            # a negative index would name another bin of the grid
            ((-1, 0), EYE_FRAME, r"\(-1, 0\): outside the grid of shape \(2, 2\)"),
            ((0, 2), EYE_FRAME, r"\(0, 2\): outside the grid of shape \(2, 2\)"),
            ((1,), EYE_FRAME, r"\(1,\): key length 1, grid dimension 2"),
            ((1, 1), EYE_FRAME._replace(m=np.eye(3)), r"\(1, 1\): m has shape \(3, 3\), expected"),
            ((1, 1), EYE_FRAME._replace(d=np.ones(3)), r"\(1, 1\): d has shape \(3,\), expected"),
            ((1, 1), EYE_FRAME._replace(v=np.full((2, 2), np.inf)), r"\(1, 1\): v contains non-"),
        ],
    )
    def test_bad_bin_rejected_by_name(self, key, frame, message):
        with pytest.raises(ValueError, match=f"^frame bin {message}"):
            FrameField(GRID_2X2, {(0, 0): EYE_FRAME, key: frame}, {(0, 0): 0, key: 0})

    def test_one_bad_shape_for_every_bin_rejected(self):
        # every m 3 x 3 stacks without error, so the shape of the stack is checked too
        frame = LocalFrame(np.eye(3), np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match=r"^frame bin \(0, 0\): m has shape \(3, 3\)"):
            FrameField(GRID_2X2, {(0, 0): frame, (1, 1): frame}, {(0, 0): 0, (1, 1): 0})

    @pytest.mark.parametrize(
        "ids, message",
        [
            ({(0, 0): 0}, r"\(1, 1\): no component id"),
            ({}, r"\(0, 0\): no component id"),
            ({(0, 0): 0, (1, 1): 0, (0, 1): 1}, r"\(0, 1\): component id but no frame"),
        ],
    )
    def test_component_ids_name_exactly_the_bins(self, ids, message):
        # a field that holds a bin without an id, or an id without a frame,
        # would dump a file its loader rejects
        with pytest.raises(ValueError, match=f"^frame bin {message}$"):
            FrameField(GRID_2X2, dict.fromkeys([(0, 0), (1, 1)], EYE_FRAME), ids)


@st.composite
def score_stacks(draw):
    """A stack of up to four N x N score matrices, N = 1..6, each drawn
    normal, as small integers (exact ties), zero or all-equal."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    kinds = st.sampled_from(["normal", "integer", "zero", "equal"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "normal":
            mats.append(rng.standard_normal((n, n)))
        elif kind == "integer":
            mats.append(rng.integers(-2, 3, (n, n)).astype(float))
        else:
            mats.append(np.full((n, n), 0.0 if kind == "zero" else draw(st.floats(-1e3, 1e3))))
    return np.stack(mats)


class TestBestSignedAssignment:
    @settings(max_examples=60, deadline=None)
    @given(score_stacks())
    def test_batch_matches_exhaustive_search_and_single_calls(self, scores):
        # each matrix alone gives what it gets in the stack
        perms, signs = best_signed_assignments(scores)
        for score, perm, sign in zip(scores, perms, signs):
            np.testing.assert_array_equal((perm, sign), first_optimal_assignment(score))
            alone = best_signed_assignments(score[None])
            np.testing.assert_array_equal((perm, sign), (alone[0][0], alone[1][0]))

    def test_rounding_tie_goes_to_larger_partial_sum(self):
        # both perms total 1.0 once 1e-20 + 1 rounds, but (1, 0) leads the
        # column set {0, 1} with 1e-20 > 0 and so is the one kept
        score = np.array([[0.0, 1e-20, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert first_optimal_assignment(score)[0].tolist() == [0, 1, 2]
        assert best_signed_assignments(score[None])[0].tolist() == [[1, 0, 2]]

    def test_blocks_bound_the_working_set_n10(self):
        # 400 noisy signed permutations at N = 10: run as one block, the
        # candidate sums of all rows alone would take 400 * 10 * 2^9 * 8
        # bytes (16 MB)
        n, e = 10, 400
        rng = np.random.default_rng(10)
        truth = [(rng.permutation(n), rng.choice([-1, 1], n)) for _ in range(e)]
        scores = np.stack([signed_permutation_matrix(p) for p in truth])
        scores += 0.1 * rng.standard_normal(scores.shape)
        best_signed_assignments(scores[:1])  # the per-N tables are built once
        tracemalloc.start()
        try:
            perms, signs = best_signed_assignments(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        np.testing.assert_array_equal(perms, [perm for perm, _ in truth])
        np.testing.assert_array_equal(signs, [sign for _, sign in truth])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_exhaustive_search(self, n):
        rng = np.random.default_rng(n)
        for trial in range(40):
            score = rng.standard_normal((n, n))
            if trial % 2:  # small integers: many exact ties
                score = np.rint(2 * score)
            perms, signs = best_signed_assignments(score[None])
            np.testing.assert_array_equal((perms[0], signs[0]), first_optimal_assignment(score))

    def test_recovers_signed_permutation_n8(self):
        p = np.array([3, 7, 0, 5, 1, 6, 2, 4]), np.array([1, -1, -1, 1, 1, -1, 1, -1])
        rng = np.random.default_rng(8)
        noisy = signed_permutation_matrix(p) + 0.3 * rng.standard_normal((8, 8))
        perms, signs = best_signed_assignments(noisy[None])
        np.testing.assert_array_equal((perms[0], signs[0]), p)
