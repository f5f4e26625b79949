import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimetric.circlegeom import (
    angle_runs,
    arc_witness,
    distance_from_arc,
    polygon_csv,
    polygon_distance_to_origin,
    smallest_covering_arc,
)
from unimetric.errors import EmptyInputError, MalformedInputError
from unimetric.linalg import reduce_angles

TAU = 2 * math.pi

angle_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


# unsorted angles off [0, 2pi), the reduction's edge cases and repeats
scan_inputs = st.lists(
    st.one_of(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([-1e-17, 0.0, -0.0, TAU, math.pi, TAU - 1e-16, -TAU, 1e-300]),
    ),
    min_size=1,
    max_size=16,
)


def reference_arc(angles):
    """The numpy formulation of the scan: sort, wrapped diff, first argmax."""
    a = np.sort(reduce_angles(np.asarray(angles, dtype=float).reshape(-1)))
    gaps = np.diff(a, append=a[0] + TAU)
    g = int(np.argmax(gaps))
    alpha = float(a[-1] - a[0] if g == a.size - 1 else TAU - gaps[g])
    return a, alpha, (g + 1) % a.size, g


class TestSmallestCoveringArc:
    def test_single_point(self):
        arc = smallest_covering_arc([0.3])
        assert arc.alpha == 0.0
        assert (arc.start, arc.end) == (0, 0)

    def test_two_points(self):
        arc = smallest_covering_arc([0.0, math.pi / 2])
        assert arc.alpha == pytest.approx(math.pi / 2, abs=1e-15)
        assert not arc.covers_semicircle

    def test_four_quarters(self):
        arc = smallest_covering_arc([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert arc.alpha == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert arc.covers_semicircle

    def test_two_points_past_semicircle_take_short_side(self):
        # the covering arc of {0, theta} is min(theta, 2pi - theta)
        arc = smallest_covering_arc([0.0, 1.5 * math.pi])
        assert arc.alpha == pytest.approx(math.pi / 2, abs=1e-12)

    def test_duplicates_merge(self):
        arc = smallest_covering_arc([0.1, 0.1 + 1e-12, 2.0])
        assert len(arc.angles) == 3
        angles, mults = angle_runs(arc)
        assert angles.tolist() == [0.1, 2.0]
        assert mults.tolist() == [2, 1]

    def test_wraparound_merge(self):
        arc = smallest_covering_arc([1e-12, TAU - 1e-12])
        assert len(arc.angles) == 2
        # the raw arc across 0, with the rounding of TAU -/+ 1e-12
        assert arc.alpha == pytest.approx(2.0002e-12, abs=1e-15)
        assert (arc.start, arc.end) == (1, 0)
        angles, mults = angle_runs(arc)
        assert angles.tolist() == [1e-12] and mults.tolist() == [2]

    def test_tiny_negative_angle_reduces_to_zero(self):
        arc = smallest_covering_arc([1.0, -1e-17])
        assert arc.angles.tolist() == [0.0, 1.0]
        assert (arc.start, arc.end) == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            smallest_covering_arc([])

    def test_endpoints(self):
        arc = smallest_covering_arc([0.5, 1.0, 2.0])
        assert (arc.angles[arc.start], arc.angles[arc.end]) == (0.5, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(scan_inputs)
    @example([0.3])
    @example([2.5, 2.5, 2.5])
    @example([-1e-17])
    @example([TAU, -1e-17, 0.0, -0.0])
    @example([3.0, -2.0, 9.5, 1.0])
    def test_scan_matches_numpy_reference(self, angles):
        arc = smallest_covering_arc(angles)
        a, alpha, start, end = reference_arc(angles)
        assert arc.angles.dtype == a.dtype and arc.angles.tobytes() == a.tobytes()
        assert arc.alpha.hex() == alpha.hex()
        assert (arc.start, arc.end) == (start, end)
        assert not arc.angles.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_rejected(self, bad, where):
        angles = [0.5, 1.0]
        angles.insert(where, bad)
        with pytest.raises(MalformedInputError):
            smallest_covering_arc(angles)

    @pytest.mark.parametrize("empty", [np.array([]), np.zeros((0, 3))])
    def test_empty_arrays_rejected(self, empty):
        with pytest.raises(EmptyInputError):
            smallest_covering_arc(empty)


class TestDistanceFromArc:
    @pytest.mark.parametrize(
        "angles,expected",
        [
            ([0.2], 0.0),
            ([0.0, math.pi / 2], math.sin(math.pi / 4)),
            ([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], 1.0),
        ],
    )
    def test_values(self, angles, expected):
        assert distance_from_arc(smallest_covering_arc(angles)) == pytest.approx(
            expected, abs=1e-12
        )


class TestPolygonDistance:
    def test_chord_midpoint(self):
        theta = 1.1
        dist, wit = polygon_distance_to_origin([0.0, theta])
        assert dist == pytest.approx(math.cos(theta / 2), abs=1e-12)
        assert wit.support == (0, 1)
        assert np.allclose(wit.weights, [0.5, 0.5], atol=1e-12)

    def test_antipodal_points(self):
        dist, wit = polygon_distance_to_origin([0.0, math.pi])
        assert dist == 0.0
        assert np.allclose(wit.weights, [0.5, 0.5])

    def test_equilateral_triangle(self):
        dist, wit = polygon_distance_to_origin([0.0, TAU / 3, 2 * TAU / 3])
        assert dist == 0.0
        angles = np.array([0.0, TAU / 3, 2 * TAU / 3])
        assert abs(wit.combination(angles)) <= 1e-10

    def test_single_point(self):
        dist, wit = polygon_distance_to_origin([0.7])
        assert dist == 1.0
        assert wit.support == (0,)

    @settings(max_examples=200, deadline=None)
    @given(angle_lists)
    @example([0.0, 1e-8])
    @example([2.5, 2.5])
    def test_consistency_with_arc_formula(self, angles):
        # the arc and the hull come from different code paths; dist =
        # cos(alpha/2) stays well conditioned where sqrt(1 - dist^2) does not
        arc = smallest_covering_arc(angles)
        dist, _ = polygon_distance_to_origin(angles)
        expected = 0.0 if arc.alpha >= math.pi else math.cos(arc.alpha / 2)
        assert dist == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(angle_lists, st.floats(min_value=-7.0, max_value=7.0))
    @example([0.0, 1e-9], 1.0)
    def test_rotation_invariance(self, angles, shift):
        base_arc = smallest_covering_arc(angles)
        rot_arc = smallest_covering_arc([a + shift for a in angles])
        assert rot_arc.alpha == pytest.approx(base_arc.alpha, abs=1e-9)
        d0, _ = polygon_distance_to_origin(angles)
        d1, _ = polygon_distance_to_origin([a + shift for a in angles])
        assert d0 == pytest.approx(d1, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(angle_lists, st.floats(min_value=0.0, max_value=6.28))
    @example([4.0, 1e-10], 0.0)
    @example([1.0, -5.84e-12], 0.0)
    def test_monotone_under_insertion(self, angles, extra):
        arc0 = smallest_covering_arc(angles)
        arc1 = smallest_covering_arc(list(angles) + [extra])
        assert arc1.alpha >= arc0.alpha - 1e-12
        d0, _ = polygon_distance_to_origin(angles)
        d1, _ = polygon_distance_to_origin(list(angles) + [extra])
        assert d1 <= d0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(angle_lists)
    def test_witness_feasibility(self, angles):
        arc = smallest_covering_arc(angles)
        dist, wit = polygon_distance_to_origin(angles)
        assert np.all(wit.weights >= 0)
        assert abs(wit.weights.sum() - 1.0) <= 1e-12
        assert abs(abs(wit.combination(arc.angles)) - dist) <= 1e-10


ULP_PI = math.ulp(math.pi)


def covering_semicircle(angles):
    arc = smallest_covering_arc(angles)
    return arc.alpha >= math.pi


class TestSaturatedWitness:
    @pytest.mark.parametrize(
        "angles",
        [
            [0.0, 0.0, math.pi],
            [0.0, math.pi, math.pi],
            [1.0, 1.0 + math.pi, 1.0, 1.0 + math.pi],
            [0.5, 0.5, 0.5, 0.5 + math.pi],
            [0.0, TAU / 3, TAU / 3, 2 * TAU / 3, 2 * TAU / 3],
            [0.0, 1e-10, math.pi],
            [2.0, 2.0 + 1e-9, 2.0 + math.pi + 5e-10],
            # sin(c - b) / (sum of sines) for a's share would miss 0 by 1.7e-9 here
            [0.7, 0.7 + 1e-7, 0.7 + math.pi + 5e-8],
            [0.0, math.pi / 2, math.pi],
        ],
        ids=[
            "antipodal-repeat-low",
            "antipodal-repeat-high",
            "antipodal-pairs",
            "antipodal-triple",
            "repeated-angles",
            "thin-triangle",
            "thin-two-clusters",
            "thin-rounded-sines",
            "half-circle",
        ],
    )
    def test_edge_spectra(self, angles):
        arc = smallest_covering_arc(angles)
        assert arc.alpha >= math.pi
        wit = arc_witness(arc)
        assert np.all(wit.weights >= 0)
        assert abs(wit.weights.sum() - 1.0) <= 1e-15
        assert len(set(wit.support)) == len(wit.support)
        assert abs(wit.combination(arc.angles)) <= 1e-15

    @pytest.mark.parametrize("ulps", range(-4, 1))
    def test_gap_ulps_below_pi(self, ulps):
        # the widest gap, 0 to pi + ulps * ulp(pi), is at most pi, and the
        # sine across it is at rounding level
        for third in (1.5 * math.pi, math.pi + 1e-9, TAU - 1e-9):
            arc = smallest_covering_arc([0.0, math.pi + ulps * ULP_PI, third])
            assert arc.alpha >= math.pi
            wit = arc_witness(arc)
            assert np.all(wit.weights >= 0)
            assert abs(wit.combination(arc.angles)) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=TAU), min_size=3, max_size=16).filter(
            covering_semicircle
        )
    )
    def test_combination_is_zero(self, angles):
        arc = smallest_covering_arc(angles)
        wit = arc_witness(arc)
        assert np.all(wit.weights >= 0)
        assert abs(wit.weights.sum() - 1.0) <= 1e-15
        assert abs(wit.combination(arc.angles)) <= 1e-14

    def test_anchor_is_nearest_the_middle_of_the_arc(self):
        # the arc runs from pi to 2pi; 3pi/2 + 0.1 is nearest its middle
        angles = [0.0, math.pi, math.pi + 0.3, 1.5 * math.pi + 0.1, TAU - 0.2]
        arc = smallest_covering_arc(angles)
        wit = arc_witness(arc)
        assert wit.support == (3, arc.end, arc.start)


class TestArcWitness:
    """Below a semicircle the witness is the midpoint of the arc's chord."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=TAU), min_size=1, max_size=16))
    def test_nearest_point_of_the_polygon(self, angles):
        arc = smallest_covering_arc(angles)
        wit = arc_witness(arc)
        poly, _ = polygon_distance_to_origin(arc)
        assert abs(abs(wit.combination(arc.angles)) - poly) <= 1e-14
        if arc.alpha < math.pi:
            assert wit.support == (arc.start, arc.end)
            assert wit.weights.tolist() == [0.5, 0.5]


class TestPolygonCsv:
    def test_header_and_rows(self):
        arc = smallest_covering_arc([0.0, math.pi / 2, math.pi / 2])
        text = polygon_csv(arc)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,re,im,multiplicity"
        assert len(lines) == 3
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",2")
