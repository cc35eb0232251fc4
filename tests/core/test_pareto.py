"""Tests for the Pareto Front Grid (Eqs. 10-13, Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import (
    Candidate,
    build_pfg,
    dominates,
    grid_coordinates,
    pareto_front,
    select_model,
)


def candidate(w, d, loss, energy, size):
    return Candidate(w, d, (loss, energy, size))


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 2, 2), (2, 2, 2))

    def test_no_self_dominance(self):
        assert not dominates((1, 1, 1), (1, 1, 1))

    def test_incomparable(self):
        assert not dominates((1, 3, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 3, 1))


class TestParetoFront:
    def test_simple_front(self):
        cands = [
            candidate(1, 1, 1.0, 3.0, 3.0),
            candidate(1, 2, 2.0, 2.0, 2.0),
            candidate(1, 3, 3.0, 1.0, 1.0),
            candidate(1, 4, 3.0, 3.0, 3.0),  # dominated
        ]
        front = pareto_front(cands)
        assert front == [0, 1, 2]

    def test_single_candidate(self):
        assert pareto_front([candidate(1, 1, 1, 1, 1)]) == [0]


class TestGridCoordinates:
    def test_bounds(self):
        values = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        coords = grid_coordinates(values, values.min(0), values.max(0), 4)
        assert coords.min() >= 1 and coords.max() <= 4
        # The worst point lands in the last interval, the best in the first.
        assert (coords[1] == 4).all()
        assert (coords[0] == 1).all()

    def test_monotone(self):
        values = np.array([[0.1, 0, 0], [0.9, 0, 0]])
        coords = grid_coordinates(values, np.zeros(3), np.ones(3), 10)
        assert coords[0, 0] < coords[1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_coordinates(np.zeros((1, 3)), np.zeros(3), np.ones(3), 0)


class TestBuildPFG:
    def grid(self):
        rng = np.random.default_rng(0)
        cands = []
        for w in (0.25, 0.5, 0.75, 1.0):
            for d in range(1, 7):
                loss = 2.0 / (w * d) + 0.05 * rng.random()  # bigger → better
                energy = 1.0 + w * d  # bigger → costlier
                size = 100 * w * d
                cands.append(candidate(w, d, loss, energy, size))
        return cands

    def test_members_nonempty_and_valid(self):
        pfg = build_pfg(self.grid(), performance_window=0.1)
        assert pfg.members
        assert all(0 <= i < len(pfg.candidates) for i in pfg.members)

    def test_pfg_contains_true_pareto_front(self):
        """The PFG must cover the exact Pareto front (it approximates it
        from above, never dropping a non-dominated point's cell)."""
        cands = self.grid()
        pfg = build_pfg(cands, performance_window=0.05)
        exact = set(pareto_front(cands))
        # Every exact-front candidate's grid cell must host a PFG member
        # with equal-or-better coordinates on all objectives.
        for idx in exact:
            cell = pfg.grid_coords[idx]
            assert any(
                (pfg.grid_coords[m] <= cell).all() for m in pfg.members
            ), f"front point {idx} not covered"

    def test_window_controls_resolution(self):
        coarse = build_pfg(self.grid(), performance_window=1.0)
        fine = build_pfg(self.grid(), performance_window=0.01)
        assert fine.num_intervals > coarse.num_intervals

    def test_validation(self):
        with pytest.raises(ValueError):
            build_pfg([], performance_window=0.1)
        with pytest.raises(ValueError):
            build_pfg(self.grid(), performance_window=0.0)


class TestSelectModel:
    def grid(self):
        cands = []
        for w in (0.25, 0.5, 0.75, 1.0):
            for d in range(1, 7):
                cands.append(
                    candidate(w, d, 2.0 / (w * d), 1.0 + w * d, 100 * w * d)
                )
        return cands

    def test_respects_storage_constraint(self):
        pfg = build_pfg(self.grid(), performance_window=0.1)
        chosen = select_model(pfg, storage_limit=200)
        assert chosen.size < 200

    def test_unsatisfiable_constraint(self):
        pfg = build_pfg(self.grid(), performance_window=0.1)
        with pytest.raises(ValueError):
            select_model(pfg, storage_limit=1.0)

    def test_larger_budget_never_hurts_performance(self):
        pfg = build_pfg(self.grid(), performance_window=0.1)
        small = select_model(pfg, storage_limit=150)
        large = select_model(pfg, storage_limit=500)
        assert large.loss <= small.loss + 1e-9

    def test_selected_is_member(self):
        pfg = build_pfg(self.grid(), performance_window=0.1)
        chosen = select_model(pfg, storage_limit=300)
        assert any(
            pfg.candidates[i] is chosen for i in pfg.members
        )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(1, 500)),
                min_size=2, max_size=30))
def test_property_pfg_selection_feasible(objs):
    cands = [candidate(1.0, i + 1, *o) for i, o in enumerate(objs)]
    pfg = build_pfg(cands, performance_window=0.5)
    limit = max(o[2] for o in objs) + 1
    chosen = select_model(pfg, storage_limit=limit)
    assert chosen.size < limit


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                min_size=1, max_size=20))
def test_property_front_is_mutually_nondominated(objs):
    cands = [candidate(1.0, i + 1, *o) for i, o in enumerate(objs)]
    front = pareto_front(cands)
    for i in front:
        for j in front:
            if i != j:
                assert not dominates(cands[i].objectives, cands[j].objectives)
