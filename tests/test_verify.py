from collections import Counter

import pytest

from cohpure import correlations, verify
from cohpure.linalg import DomainError, stream
from cohpure.simplex import MENU
from cohpure.states import random_density


def _counted_calls(monkeypatch):
    """The (distance, d) of every minimize_diags call the searches make."""
    calls = []
    original = correlations.minimize_diags

    def counted(mats, distance, *args):
        calls.append((distance.name, mats.shape[-1]))
        return original(mats, distance, *args)

    monkeypatch.setattr(correlations, "minimize_diags", counted)
    return calls


class TestSuites:
    def test_theorem1_small(self):
        rep = verify.run_theorem1(seed=3, trials=6)
        assert rep.passed, [c for c in rep.checks if not c.passed]

    def test_theorem2_small(self):
        rep = verify.run_theorem2(seed=3, trials=6)
        assert rep.passed, [c for c in rep.checks if not c.passed]

    def test_axioms_small(self):
        rep = verify.run_axioms(seed=3, trials=15)
        assert rep.passed, [c for c in rep.checks if not c.passed]
        negatives = [c for c in rep.checks if c.known_negative]
        assert negatives

    def test_majorization_small(self):
        rep = verify.run_majorization(seed=3, trials=6)
        assert rep.passed

    def test_appendix_g_small(self):
        rep = verify.run_appendix_g(seed=3, trials=20)
        assert rep.passed

    def test_reports_serialize(self):
        rep = verify.run_majorization(seed=1, trials=3)
        doc = rep.to_dict()
        assert doc["suite"] == "majorization"
        assert isinstance(doc["checks"], list) and doc["checks"]

    def test_run_suite_dispatch(self):
        rep = verify.run_suite("majorization", seed=2, trials=3)
        assert rep.suite == "majorization"
        with pytest.raises(DomainError):
            verify.run_suite("theorem3")

    def test_determinism(self):
        a = verify.run_appendix_g(seed=5, trials=10).to_dict()
        b = verify.run_appendix_g(seed=5, trials=10).to_dict()
        assert a == b


class TestBatchedSearches:
    @pytest.mark.parametrize("k", [1, 3])
    def test_hierarchy_chains_two_calls_per_distance(self, monkeypatch, k):
        # two rounds at the suite's budgets, whatever the number of states
        rng = stream(80)
        states_ = [random_density(4, int(rng.integers(1, 5)), rng) for _ in range(k)]
        calls = _counted_calls(monkeypatch)
        verify._hierarchy_chains(states_, stream(81))
        assert len(calls) == 2 * len(MENU)

    def test_cmax_identity_one_call_per_distance_and_dim_per_round(self, monkeypatch):
        # the rotated states take one round; the searches take two rounds
        # at d <= 4 (Budget(2, 1)) and one at d = 5, 6 (Budget(3, 0))
        states_ = [random_density(d, rank, stream(82)) for d in range(2, 7) for rank in (1, d)]
        calls = _counted_calls(monkeypatch)
        checks = verify._cmax_identity(states_, stream(83))
        assert all(c.passed for c in checks)
        assert Counter(calls) == {(name, d): 3 if d <= 4 else 2 for name in MENU for d in range(2, 7)}
