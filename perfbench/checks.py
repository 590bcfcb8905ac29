"""Output checks, one function per operation kind.

Each check compares what cohpure returned with the independent formulas
in ``reference.py`` and returns the list of problems it found; an empty
list means the output is correct. Exact values are compared within the
tolerances below; values that come from an optimizer are checked as the
certified one-sided bounds they are.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

EXACT = 1e-9      # closed forms recomputed from the spectrum or the matrix
OPTIMIZED = 1e-6  # optimizer values that have a closed form to meet
SLACK = 1e-9      # round-off allowance on certified one-sided bounds
KERNEL = 1e-10    # eigendecomposition and MCMS residuals
I_MAX_GAP = 5e-3  # largest accepted P_r - I_max for the mutual-information search

ALPHA_KEYS = {"0": 0.0, "0.5": 0.5, "1": 1.0, "2": 2.0, "inf": math.inf}


class Problems(list):
    """Collects one line per failed comparison."""

    def close(self, label, got, want, tol):
        if not abs(float(got) - float(want)) <= tol:
            self.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")

    def at_most(self, label, lhs, rhs, slack=SLACK):
        if not float(lhs) <= float(rhs) + slack:
            self.append(f"{label}: {lhs!r} exceeds {rhs!r}")

    def equal(self, label, got, want):
        if got != want:
            self.append(f"{label}: got {got!r}, want {want!r}")


def _purity_block(p: Problems, inp, p_alpha: dict, p_geometric, p_linear, distill, cost):
    d, spec = inp.dim, inp.spec
    for key, alpha in ALPHA_KEYS.items():
        p.close(f"p_alpha[{key}]", p_alpha[key], math.log2(d) - ref.renyi_entropy(spec, alpha), EXACT)
    p.close("p_geometric", p_geometric, ref.to_mixed(spec, "one_minus_fidelity"), EXACT)
    p.close("p_linear", p_linear, float(np.sum(spec**2)), EXACT)
    p.equal("distillable_1shot", distill, ref.distillable_1shot(d, inp.rank))
    p.equal("cost_1shot", cost, ref.cost_1shot(d, float(spec[0])))


def check_quantify(inp, out) -> Problems:
    """``cohpure quantify`` with the whole menu and alpha = 0.5, 2."""
    code, text = out
    doc = json.loads(text)
    p = Problems()
    p.equal("exit code", code, 3 if doc["optimizer_flagged"] else 0)
    p.equal("dim", doc["dim"], inp.dim)
    m, spec = inp.mat, inp.spec

    coh = doc["coherence"]
    dist = {name: block["value"] for name, block in coh["c_distance"].items()}
    p.equal("menu", sorted(dist), sorted(ref.MENU))
    c_rel = ref.c_rel_entropy(m, spec)
    c_l1 = ref.c_l1(m)
    p.close("c_rel_entropy", coh["c_rel_entropy"], c_rel, EXACT)
    p.close("c_distance[rel_entropy]", dist["rel_entropy"], c_rel, EXACT)
    p.close("c_l1", coh["c_l1"], c_l1, EXACT)
    p.close("c_distance[schatten_2]", dist["schatten_2"], ref.offdiag_frobenius(m), OPTIMIZED)
    if inp.dim == 2:
        p.close("qubit c_distance[trace_norm]", dist["trace_norm"], c_l1, OPTIMIZED)
        geometric = (1.0 - math.sqrt(max(1.0 - c_l1**2, 0.0))) / 2.0
        p.close("qubit c_distance[one_minus_fidelity]", dist["one_minus_fidelity"], geometric, OPTIMIZED)
    for name, value in dist.items():
        ceiling = min(ref.to_mixed(spec, name), ref.to_dephased(m, spec, name))
        p.at_most(f"c_distance[{name}] lower end", 0.0, value)
        p.at_most(f"c_distance[{name}] upper end", value, ceiling)
        if inp.mcms:
            p.close(f"MCMS c_distance[{name}]", value, ref.to_mixed(spec, name), OPTIMIZED)

    alpha = {key: block["value"] for key, block in coh["c_alpha"].items()}
    p.close("c_alpha[0.5]", alpha["0.5"], ref.c_alpha_half(m), OPTIMIZED)
    p.at_most("c_alpha[0.5] <= C_rel", alpha["0.5"], c_rel, OPTIMIZED)
    p.at_most("C_rel <= c_alpha[2]", c_rel, alpha["2"])
    p.at_most("c_alpha[2] <= D2(rho, dephased)", alpha["2"], ref.sandwiched2_to_dephased(m))

    pur = doc["purity"]
    _purity_block(
        p, inp, pur["p_alpha"], pur["p_geometric"], pur["p_linear"], pur["distillable_1shot"], pur["cost_1shot"]
    )
    return p


def check_hierarchy(inp, distance, out) -> Problems:
    """``cohpure hierarchy`` on a two-qubit state for one menu distance."""
    code, text = out
    p = Problems()
    p.equal("exit code", code, 0)
    if code != 0:
        return p
    doc = json.loads(text)
    h, mx = doc["hierarchy"], doc["max_hierarchy"]
    purity = ref.to_mixed(inp.spec, distance)
    p.close("purity", h["purity"], purity, EXACT)
    p.close("max_hierarchy purity", mx["purity"], purity, EXACT)
    p.at_most("coherence_n <= purity", h["coherence_n"], purity)
    p.at_most("coherence_n <= D(rho, dephased)", h["coherence_n"], ref.to_dephased(inp.mat, inp.spec, distance))
    p.at_most("discord_upper <= coherence_n", h["discord_upper"], h["coherence_n"])
    p.at_most("coherence_n <= c_max_lower", h["coherence_n"], mx["c_max_lower"])
    p.at_most("c_max_lower <= purity", mx["c_max_lower"], purity)
    p.at_most("d_max_lower <= purity", mx["d_max_lower"], purity)
    if distance == "rel_entropy":
        p.close("coherence_n (rel_entropy)", h["coherence_n"], ref.c_rel_entropy(inp.mat, inp.spec), EXACT)
    return p


def check_i_max(inp, out) -> Problems:
    """``i_max_check``: I(rho) <= I_max <= P_r, with a gap of at most 5e-3."""
    p = Problems()
    p_r = math.log2(inp.dim) - ref.entropy(inp.spec)
    p.close("p_r", out.p_r, p_r, EXACT)
    p.at_most("I(rho) <= I_max", ref.mutual_information(inp.mat, inp.spec, 2, 2), out.i_max_lower)
    p.at_most("I_max <= P_r", out.i_max_lower, p_r)
    p.at_most("P_r - I_max", p_r - out.i_max_lower, I_MAX_GAP, 0.0)
    p.close("gap", out.gap, out.p_r - out.i_max_lower, EXACT)
    return p


def check_spectral(inp, out) -> Problems:
    """The closed-form library calls of one spectral operation."""
    p = Problems()
    d, m, spec = inp.dim, inp.mat, inp.spec
    eye = np.eye(d)

    vals, vecs = out["eig"].values, out["eig"].vectors
    p.close("eigenvalues", np.max(np.abs(vals - spec[::-1])), 0.0, KERNEL)
    p.close("reconstruction residual", np.max(np.abs((vecs * vals) @ vecs.conj().T - m)), 0.0, KERNEL)
    p.close("orthonormality residual", np.max(np.abs(vecs.conj().T @ vecs - eye)), 0.0, KERNEL)

    u, rho_max = out["optimal_unitary"], out["mcms"]
    p.close("U rho U^dag - mcms", np.max(np.abs(u @ m @ u.conj().T - rho_max)), 0.0, KERNEL)
    p.close("mcms spectrum", np.max(np.abs(np.sort(ref.eigvalsh(rho_max)) - spec[::-1])), 0.0, KERNEL)
    p.close("mcms diagonal", np.max(np.abs(np.diagonal(rho_max) - 1.0 / d)), 0.0, KERNEL)

    for name, value in out["p_distance"].items():
        p.close(f"p_distance[{name}]", value, ref.to_mixed(spec, name), EXACT)
    p.equal("p_distance menu", sorted(out["p_distance"]), sorted(ref.MENU))

    rep = out["purity_report"]
    p_alpha = {_alpha_key(a): v for a, v in rep.p_alpha.items()}
    ordered = [p_alpha[key] for key in sorted(ALPHA_KEYS, key=ALPHA_KEYS.get)]
    for lo, hi in zip(ordered, ordered[1:]):
        p.at_most("p_alpha nondecreasing in alpha", lo, hi)
    _purity_block(p, inp, p_alpha, rep.p_geometric, rep.p_linear, rep.distillable_1shot, rep.cost_1shot)

    p.close("c_rel_entropy", out["c_rel_entropy"], ref.c_rel_entropy(m, spec), EXACT)
    p.close("c_l1", out["c_l1"], ref.c_l1(m), EXACT)

    dist, cost = rep.distillable_1shot, rep.cost_1shot
    p.equal("distill certificate feasible at m", out["distill"][dist].feasible, True)
    p.equal("distill certificate infeasible at m + 1", out["distill"][dist + 1].feasible, False)
    p.equal("cost certificate feasible at c", out["cost"][cost].feasible, True)
    if cost > 0:
        p.equal("cost certificate infeasible at c - 1", out["cost"][cost - 1].feasible, False)

    if d == 2:
        p.close("CNOT negativity", out["cnot"].negativity, ref.c_l1(m) / 2.0, KERNEL)
    return p


def _alpha_key(a: float) -> str:
    return "inf" if a == math.inf else f"{float(a):g}"
