"""Purity bounds every unitarily activatable correlation: the chain
purity >= composite coherence >= discord, the CNOT activation identity
linking coherence to negativity, and the maximal mutual information.

Run:  python demos/resource_hierarchy.py
"""

from cohpure import (
    Budget,
    cnot_activation,
    from_bloch,
    hierarchy_report,
    i_max_check,
    max_hierarchy_check,
    negativity_purity_bound,
    pure,
    random_density,
    stream,
)

bell = pure([1, 0, 0, 1])
print("Bell state, relative entropy distance:")
rep = hierarchy_report(bell, (2, 2), "rel_entropy", budget=Budget(8, 4), rng=stream(1))
print(f"  purity {rep.purity:.6f} >= coherence_N {rep.coherence_n:.6f} >= discord {rep.discord_upper:.6f}")

rho = random_density(4, 3, stream(2))
print("\nrandom rank-3 two-qubit state, every menu distance:")
for name in ("rel_entropy", "trace_norm", "schatten_2", "one_minus_fidelity"):
    rep = hierarchy_report(rho, (2, 2), name, budget=Budget(4, 2), rng=stream(3))
    print(
        f"  {name:>20}: {rep.purity:.6f} >= {rep.coherence_n:.6f} >= "
        f"{rep.discord_upper:.6f}  (chain ok: {rep.chain_ok})"
    )

print("\nunitary orbits cannot beat the purity ceiling (C_max read off the MCMS):")
mrep = max_hierarchy_check(rho, (2, 2), "rel_entropy", budget=Budget(16, 30), rng=stream(4))
print(
    f"  purity {mrep.purity:.6f}, C_max at the MCMS {mrep.c_max_lower:.6f} "
    f"(gap {mrep.optimizer_gap:.2e}), sup discord {mrep.d_max_lower:.6f}"
)

print("\nCNOT activation: control coherence becomes entanglement, N = C_l1 / 2:")
for x in (0.2, 0.6, 1.0):
    control = from_bloch((x, 0, 0))
    act = cnot_activation(control)
    nb = negativity_purity_bound(control)
    print(
        f"  |r_x| = {x:.1f}: negativity {act.negativity:.4f} = C_l1/2 {act.half_c_l1:.4f}, "
        f"bound sqrt(1-(1-2P_g)^2) = {nb.bound:.4f}"
    )

print("\nmaximal mutual information recovers the relative entropy of purity:")
chk = i_max_check(random_density(4, 2, stream(6)), (2, 2), budget=Budget(128, 300), rng=stream(7))
print(
    f"  I_max (search from the Bell-diagonal rotation) = {chk.i_max_lower:.8f}  "
    f"vs  P_r = {chk.p_r:.8f}  (gap {chk.gap:.2e})"
)
