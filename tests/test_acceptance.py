"""Acceptance suite: one test per criterion, each printing a PASS line at
its stated tolerance (run with ``pytest -s tests/test_acceptance.py`` to
see the lines).

Criteria 1-8 draw their recorded samples here and evaluate them with the
property checks of the ``cohpure verify`` suites, so each property and
its tolerance has one implementation, in ``cohpure.verify``.
"""

import numpy as np

from cohpure import linalg, verify
from cohpure.coherence import apply_channel, c_distances, c_l1, mcms, mio_channel_from_unitary, optimal_unitary
from cohpure.correlations import Budget, unitary_maximize
from cohpure.linalg import haar_unitary, stream
from cohpure.purity import p_distance
from cohpure.simplex import MENU, get_distance
from cohpure.states import diagonal, random_density, renyi_entropy, von_neumann


def _seeded_states(seed, per_dim, dims):
    rng = stream(seed)
    out = []
    for d in dims:
        for child in rng.spawn(per_dim):
            out.append(random_density(d, int(child.integers(1, d + 1)), child))
    return out


def _assert_pass(criterion, checks, note=""):
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    print(f"[criterion {criterion}] PASS - " + "; ".join(f"{c.name}: {c.detail}" for c in checks) + note)


def test_criterion_01_theorem2_exactness():
    states_list = _seeded_states(101, 40, (2, 3, 4, 5, 6))
    assert len(states_list) == 200
    rng = stream(102)
    checks = verify._cmax_identity(states_list, rng)
    # deeper search budgets on a subset, exercising the hill climb
    worst_exceed = 0.0
    for rho in _seeded_states(103, 2, (2, 3, 4))[:8]:
        for name in MENU:
            dist = get_distance(name)
            res = unitary_maximize(
                lambda ss, _d=dist: c_distances(ss, _d, verify.ULTRA_OPT), rho, budget=Budget(6, 4), rng=rng
            )
            worst_exceed = max(worst_exceed, res.best_value - p_distance(rho, dist))
    assert worst_exceed <= 1e-9
    _assert_pass(1, checks, f"; Budget(6,4) search excess {worst_exceed:.2e} <= 1e-9")


def test_criterion_02_theorem1_universality():
    rng = stream(201)
    cases = []
    for d in (2, 3, 4, 5):
        rho_max = mcms(np.sort(rng.dirichlet(np.ones(d)))[::-1], d)
        cases.append((rho_max, [haar_unitary(d, rng) for _ in range(100)]))
    _assert_pass(2, verify._mcms_universality(cases))


def test_criterion_03_mio_channel_certification():
    rng = stream(301)
    cases = []
    for _ in range(50):
        d = int(rng.integers(2, 5))
        sigma = diagonal(rng.dirichlet(np.ones(d)))
        rho_max = mcms(np.sort(rng.dirichlet(np.ones(d)))[::-1], d)
        u = haar_unitary(d, rng)
        ws = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        cases.append((sigma, rho_max, u, ws, [haar_unitary(d, rng) for _ in ws]))
    _assert_pass(3, verify._mio_constructions(cases))


def test_criterion_04_l1_mio_violation():
    checks = verify._l1_mio_instance()
    # recorded seeded search witness through the single-unitary construction
    rho_max = mcms([0.5, 0.5, 0.0, 0.0], 4)
    res = unitary_maximize(
        lambda ss: [c_l1(s) for s in ss], diagonal([0.5, 0.5, 0.0, 0.0]), budget=Budget(8, 10), rng=stream(4)
    )
    v = optimal_unitary(diagonal([0.5, 0.5, 0.0, 0.0]))
    witness = res.best_unitary @ v.conj().T
    searched = c_l1(apply_channel(mio_channel_from_unitary(witness), rho_max)) - c_l1(rho_max)
    assert searched >= 1e-3
    rng = stream(401)
    checks += verify._l1_io_monotone([verify._random_io_case(rng) for _ in range(200)])
    _assert_pass(4, checks, f"; searched witness increase {searched:.3f} >= 1e-3")


def test_criterion_05_majorization_formulas():
    rng = stream(501)
    sample = []
    for d in range(2, 17):
        for child in rng.spawn(3):
            sample.append(random_density(d, int(child.integers(1, d + 1)), child))
    _assert_pass(5, verify._formula_oracle_agreement(sample), f" on {len(sample)} states, d = 2..16")


def test_criterion_06_purity_axioms():
    _assert_pass(6, verify._p_alpha_axioms(stream(601), 300), " on 300 trials per (d, alpha)")


def test_criterion_07_appendix_g_identities():
    rng = stream(701)
    checks = verify._cnot_identities([random_density(2, int(rng.integers(1, 3)), rng) for _ in range(100)])
    checks += verify._eigenbasis_saturation([0.5 + 0.5 * float(rng.random()) for _ in range(100)])
    _assert_pass(7, checks)


def test_criterion_08_hierarchies():
    checks = verify._hierarchy_chains(_seeded_states(801, 100, (4,)), stream(802))
    cases = [(random_density(4, int(c.integers(1, 3)), c), c) for c in stream(803).spawn(4)]
    checks += verify._i_max_attains_purity(cases)
    _assert_pass(8, checks, " on 100 two-qubit states per distance")


def test_criterion_09_numerical_kernel():
    rng = stream(901)
    worst_recon = worst_ortho = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 13))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        es = linalg.hermitian_eig(h)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(d)))))
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - h))))
    assert worst_recon <= 1e-9
    assert worst_ortho <= 1e-10
    worst_limit = 0.0
    rng = stream(902)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        s = von_neumann(rho)
        worst_limit = max(worst_limit, abs(renyi_entropy(rho, 1 + 1e-3) - s))
        worst_limit = max(worst_limit, abs(renyi_entropy(rho, 1 - 1e-3) - s))
    assert worst_limit <= 5e-3
    print(
        f"[criterion 9] PASS - reconstruction {worst_recon:.2e} <= 1e-9, orthonormality "
        f"{worst_ortho:.2e} <= 1e-10, alpha->1 limit {worst_limit:.2e} <= 5e-3"
    )
