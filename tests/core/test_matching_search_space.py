"""Tests for matching policies (Fig. 9) and search-space accounting (Table I)."""

import numpy as np
import pytest

from repro.core.matching import (
    GreedyAccuracyMatcher,
    GreedySizeMatcher,
    PFGMatcher,
    RandomMatcher,
    make_policies,
    trade_off_score,
)
from repro.core.pareto import Candidate, build_pfg, select_model
from repro.core.search_space import (
    SearchSpaceAccounting,
    header_search_space_size,
    table1_search_space_row,
)


def grid():
    cands = []
    for w in (0.25, 0.5, 0.75, 1.0):
        for d in range(1, 7):
            cands.append(
                Candidate(w, d, (2.0 / (w * d), 1.0 + w * d, 100 * w * d))
            )
    return cands


class TestPolicies:
    def test_all_policies_feasible(self):
        for name, policy in make_policies().items():
            result = policy.select(grid(), storage_limit=300)
            assert result.candidate.size < 300, name
            assert result.policy == name

    def test_greedy_accuracy_minimizes_loss(self):
        result = GreedyAccuracyMatcher().select(grid(), 300)
        feasible = [c for c in grid() if c.size < 300]
        assert result.candidate.loss == min(c.loss for c in feasible)

    def test_greedy_size_maximizes_size(self):
        result = GreedySizeMatcher().select(grid(), 300)
        feasible = [c for c in grid() if c.size < 300]
        assert result.candidate.size == max(c.size for c in feasible)

    def test_greedy_visits_everything(self):
        cands = grid()
        assert GreedyAccuracyMatcher().select(cands, 300).visits == len(cands)
        assert GreedySizeMatcher().select(cands, 300).visits == len(cands)

    def test_pfg_visits_fewer_after_preparation(self):
        """Fig. 9's latency claim: a PFG query touches only PFG members,
        far fewer than the full candidate grid."""
        cands = grid()
        result = PFGMatcher(performance_window=0.1).select(cands, 300)
        assert result.visits < len(cands)

    def test_pfg_answers_each_query_from_its_own_candidates(self):
        """A list priced differently gets its own grid's choice, not the
        first query's."""
        cheap = grid()
        # Same sizes, but the energy ranking reversed: the large models
        # are now the frugal ones.
        priced = [Candidate(c.width, c.depth, (c.loss, 30.0 - c.energy, c.size))
                  for c in cheap]
        want_cheap = select_model(build_pfg(cheap, 0.1), 300)
        want_priced = select_model(build_pfg(priced, 0.1), 300)
        assert want_cheap != want_priced

        matcher = PFGMatcher(performance_window=0.1)
        assert matcher.select(cheap, 300).candidate == want_cheap
        assert matcher.select(priced, 300).candidate == want_priced

    def test_random_single_visit(self):
        assert RandomMatcher(seed=1).select(grid(), 300).visits == 1

    def test_random_is_deterministic_per_seed(self):
        a = RandomMatcher(seed=5).select(grid(), 300).candidate
        b = RandomMatcher(seed=5).select(grid(), 300).candidate
        assert a == b

    def test_infeasible_raises(self):
        for policy in make_policies().values():
            with pytest.raises(ValueError):
                policy.select(grid(), storage_limit=0.5)

    def test_pfg_beats_greedy_on_tradeoff(self):
        """On a grid where accuracy saturates (the Fig. 1 phenomenon), the
        PFG selection trades off better than both greedy extremes."""
        cands = []
        for w in (0.25, 0.5, 0.75, 1.0):
            for d in range(1, 7):
                effective = w * d
                loss = 0.5 + 0.1 * (effective - 3.0) ** 2  # optimum at w·d = 3
                energy = effective**2
                size = 100 * effective
                cands.append(Candidate(w, d, (loss, energy, size)))
        worst = [max(c.objectives[i] for c in cands) for i in range(3)]
        limit = 450.0
        ours = PFGMatcher(0.2).select(cands, limit).candidate
        greedy_acc = GreedyAccuracyMatcher().select(cands, limit).candidate
        greedy_size = GreedySizeMatcher().select(cands, limit).candidate
        ours_score = trade_off_score(*ours.objectives, scales=worst)
        acc_score = trade_off_score(*greedy_acc.objectives, scales=worst)
        size_score = trade_off_score(*greedy_size.objectives, scales=worst)
        assert ours_score <= acc_score + 1e-9
        assert ours_score < size_score


class TestTradeoffScore:
    def test_normalization(self):
        score = trade_off_score(1.0, 10.0, 100.0, scales=(1.0, 10.0, 100.0))
        assert score == pytest.approx(3.0)

    def test_unscaled(self):
        assert trade_off_score(1.0, 2.0, 3.0) == pytest.approx(6.0)


class TestSearchSpace:
    def test_eq14_formula(self):
        """|B_{1:B}| = Π (b+1)² |O|² with B=2, |O|=7."""
        expected = (2**2 * 49) * (3**2 * 49)
        assert header_search_space_size(2, num_ops=7) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            header_search_space_size(0)
        with pytest.raises(ValueError):
            header_search_space_size(2, num_ops=0)

    def test_growth_with_blocks(self):
        assert header_search_space_size(4) > header_search_space_size(3)

    def test_acme_is_about_one_percent_of_cs(self):
        """Table I: ACME's search space ≈ 1% of the centralized system's."""
        acct = SearchSpaceAccounting(num_devices=10, devices_per_cluster=5)
        ratio = acct.reduction_ratio()
        assert 0.001 < ratio < 0.05

    def test_scaling_with_devices(self):
        """Both CS and ACME grow linearly in N; the ratio is stable."""
        rows = [table1_search_space_row(n) for n in (10, 20, 30, 40)]
        cs = [r["cs_thousands"] for r in rows]
        ours = [r["ours_thousands"] for r in rows]
        assert cs == sorted(cs)
        assert ours == sorted(ours)
        assert cs[3] == pytest.approx(4 * cs[0])
        ratios = [r["ratio"] for r in rows]
        assert max(ratios) / min(ratios) < 1.5

    def test_cluster_count_rounds_up(self):
        acct = SearchSpaceAccounting(num_devices=11, devices_per_cluster=5)
        assert acct.num_clusters == 3
