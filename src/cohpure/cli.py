"""Command-line surface: state I/O, quantifier reports, conversion and
single-shot purity queries, hierarchy checks, verification suites, and
Bloch-ball data export.

Exit codes: 0 success, 2 input error, 3 optimizer non-convergence
(values still emitted, flagged), 4 asserted invariant violated.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as io_module
import json
import math
import sys

import numpy as np

from . import coherence, correlations, io, majorization, purity, verify
from .coherence import c_alpha_result, c_distance_result, c_l1, c_rel_entropy
from .correlations import Budget
from .linalg import DomainError, ValidationError, stream
from .simplex import MENU, SimplexOptConfig
from .states import DensityMatrix, from_bloch, random_density

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OPTIMIZER = 3
EXIT_INVARIANT = 4

REPORT_SCHEMA = "cohpure-report-1"

BLOCH_QUANTIFIERS = (
    "c_l1",
    "c_rel_entropy",
    "c_trace_norm",
    "c_geometric",
    "p_rel_entropy",
    "p_trace_norm",
    "p_geometric",
    "p_linear",
    "p_2",
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, and
    every call gets a fresh namespace and fresh lists for ``append``."""
    parser = argparse.ArgumentParser(
        prog="cohpure",
        description="Coherence, purity, and correlation quantifiers for density matrices.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("quantify", help="purity/coherence report for a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--distance", action="append", choices=MENU, help="repeatable; default: whole menu")
    p.add_argument("--alpha", default="0.5,2", help="comma-separated Renyi coherence orders")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("mcms", help="build the maximally coherent mixed state of a spectrum")
    p.add_argument("--spectrum", required=True, help="comma-separated probabilities")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", help="write the state file here")
    p.set_defaults(func=cmd_mcms)

    p = sub.add_parser("convert", help="unital convertibility between two state files")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("distill", help="single-shot distillable purity")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("cost", help="single-shot purity cost")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("hierarchy", help="purity >= coherence >= discord chain for a bipartite state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", required=True, help="subsystem dimensions, e.g. 2,2")
    p.add_argument("--distance", choices=MENU, default="rel_entropy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--refine", type=int, default=4)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bloch", help="quantifier values over a Bloch-ball grid, as CSV")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--quantifier", required=True, choices=BLOCH_QUANTIFIERS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("random", help="write a seeded random state file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random)

    return parser


def _load_state(path) -> tuple:
    sf = io.read_state(path)
    return sf, sf.state()


def _print_json(doc) -> None:
    json.dump(doc, sys.stdout, indent=1, allow_nan=True)
    sys.stdout.write("\n")


def cmd_quantify(args) -> int:
    sf, rho = _load_state(args.state)
    distances = args.distance or list(MENU)
    alphas = _parse_floats(args.alpha)
    opt = SimplexOptConfig()
    flagged = False

    prep = purity.purity_report(rho)
    cohs = {"c_rel_entropy": c_rel_entropy(rho), "c_l1": c_l1(rho)}
    dist_block = {}
    for name in distances:
        res = c_distance_result(rho, name, opt)
        flagged = flagged or not res.converged
        dist_block[name] = {"value": res.value, "converged": res.converged}
    alpha_block = {}
    for a in alphas:
        if not (a > 0) or a == math.inf:
            raise DomainError(f"coherence order must be finite and positive, got {a}")
        res = c_alpha_result(rho, a, opt)
        flagged = flagged or not res.converged
        alpha_block[_fmt_alpha(a)] = {"value": res.value, "converged": res.converged}

    doc = {
        "schema_version": REPORT_SCHEMA,
        "state": sf.label or args.state,
        "dim": rho.dim,
        "purity": {
            "p_alpha": {_fmt_alpha(a): v for a, v in prep.p_alpha.items()},
            "p_geometric": prep.p_geometric,
            "p_linear": prep.p_linear,
            "distillable_1shot": prep.distillable_1shot,
            "cost_1shot": prep.cost_1shot,
        },
        "coherence": {**cohs, "c_distance": dist_block, "c_alpha": alpha_block},
        "optimizer_flagged": flagged,
    }
    if args.format == "json":
        _print_json(doc)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["quantity", "value"])
        for a, v in prep.p_alpha.items():
            writer.writerow([f"p_alpha[{_fmt_alpha(a)}]", repr(v)])
        writer.writerow(["p_geometric", repr(prep.p_geometric)])
        writer.writerow(["p_linear", repr(prep.p_linear)])
        writer.writerow(["distillable_1shot", prep.distillable_1shot])
        writer.writerow(["cost_1shot", prep.cost_1shot])
        for k, v in cohs.items():
            writer.writerow([k, repr(v)])
        for name, block in dist_block.items():
            writer.writerow([f"c_distance[{name}]", repr(block["value"])])
        for a, block in alpha_block.items():
            writer.writerow([f"c_alpha[{a}]", repr(block["value"])])
    return EXIT_OPTIMIZER if flagged else EXIT_OK


def cmd_mcms(args) -> int:
    spectrum = _parse_floats(args.spectrum)
    rho_max = coherence.mcms(np.asarray(spectrum), args.dim)
    cr = c_rel_entropy(rho_max)
    pr = purity.p_rel_entropy(rho_max)
    if args.out:
        io.write_state(args.out, rho_max, label=f"mcms(dim={args.dim})")
    _print_json(
        {
            "schema_version": REPORT_SCHEMA,
            "dim": args.dim,
            "spectrum": sorted(spectrum, reverse=True),
            "c_rel_entropy": cr,
            "p_rel_entropy": pr,
            "agreement": abs(cr - pr),
            "written": args.out,
        }
    )
    return EXIT_OK


def cmd_convert(args) -> int:
    _, rho = _load_state(args.src)
    _, sigma = _load_state(args.dst)
    ok = majorization.convertible_unital(rho, sigma)
    p = rho.spectrum.values
    q = sigma.spectrum.values
    prefixes = [
        {"k": k + 1, "from": float(np.sum(p[: k + 1])), "to": float(np.sum(q[: k + 1]))}
        for k in range(max(p.size, q.size))
    ]
    _print_json(
        {
            "schema_version": REPORT_SCHEMA,
            "convertible": bool(ok),
            "prefix_sums": prefixes,
        }
    )
    return EXIT_OK


def _certificate_doc(cert) -> dict:
    return {
        "feasible": cert.feasible,
        "m": cert.m,
        "d1": cert.d1,
        "d2": cert.d2,
        "prefix_sums": [
            {"k": k, "lhs": lhs, "rhs": rhs} for k, lhs, rhs in cert.checked_prefix_sums[:32]
        ],
    }


def cmd_distill(args) -> int:
    _, rho = _load_state(args.state)
    m = majorization.distillable_purity_1shot(rho)
    cert = majorization.brute_force_distill(rho, m)
    _print_json(
        {
            "schema_version": REPORT_SCHEMA,
            "distillable_1shot": m,
            "certificate": _certificate_doc(cert),
        }
    )
    return EXIT_OK


def cmd_cost(args) -> int:
    _, rho = _load_state(args.state)
    m = majorization.purity_cost_1shot(rho)
    cert = majorization.brute_force_cost(rho, m)
    _print_json(
        {
            "schema_version": REPORT_SCHEMA,
            "cost_1shot": m,
            "certificate": _certificate_doc(cert),
        }
    )
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    sf, rho = _load_state(args.state)
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError as exc:
        raise DomainError(f"--dims must be comma-separated integers, got {args.dims!r}") from exc
    if len(dims) != 2:
        raise DomainError(f"--dims must name two subsystems, got {args.dims!r}")
    if sf.dims is not None and sf.dims != dims:
        raise DomainError(f"--dims {args.dims} disagrees with the state file's dims {list(sf.dims)}")
    budget = Budget(args.restarts, args.refine)
    # the chain inequalities are certified at any simplex budget; keep the
    # inner minimizations light so nested searches stay interactive
    opt = SimplexOptConfig(restarts=2, max_iter=600, polish=False, seed=args.seed)
    rep = correlations.hierarchy_report(
        rho, dims, args.distance, budget=budget, rng=stream(args.seed), opt=opt
    )
    mrep = correlations.max_hierarchy_check(
        rho, dims, args.distance, budget=Budget(max(args.restarts // 2, 1), max(args.refine // 2, 0)),
        rng=stream(args.seed + 1), inner_budget=Budget(1, 0), opt=opt,
    )
    doc = {
        "schema_version": REPORT_SCHEMA,
        "distance": rep.distance,
        "hierarchy": {
            "purity": rep.purity,
            "coherence_n": rep.coherence_n,
            "discord_upper": rep.discord_upper,
            "chain_ok": rep.chain_ok,
        },
        "max_hierarchy": {
            "purity": mrep.purity,
            "c_max_lower": mrep.c_max_lower,
            "d_max_lower": mrep.d_max_lower,
            "optimizer_gap": mrep.optimizer_gap,
            "ok": mrep.ok,
        },
    }
    _print_json(doc)
    if not (rep.chain_ok and mrep.ok):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = verify.run_suite(args.suite, seed=args.seed, trials=args.trials)
    _print_json(rep.to_dict())
    return EXIT_OK if rep.passed else EXIT_INVARIANT


def _bloch_value(name: str, rho: DensityMatrix) -> float:
    if name == "c_l1":
        return c_l1(rho)
    if name == "c_rel_entropy":
        return c_rel_entropy(rho)
    if name == "c_trace_norm":
        return coherence.c_distance(rho, "trace_norm")
    if name == "c_geometric":
        return coherence.c_geometric(rho)
    if name == "p_rel_entropy":
        return purity.p_rel_entropy(rho)
    if name == "p_trace_norm":
        return purity.p_distance(rho, "trace_norm")
    if name == "p_geometric":
        return purity.p_geometric(rho)
    if name == "p_linear":
        return purity.p_linear(rho)
    if name == "p_2":
        return purity.p_2(rho)
    raise DomainError(f"unknown quantifier {name!r}")


def cmd_bloch(args) -> int:
    if args.grid < 2:
        raise DomainError(f"--grid must be >= 2, got {args.grid}")
    axis = np.linspace(-1.0, 1.0, args.grid)
    # every Bloch state is a qubit, where the trace norm and the fidelity
    # take their block closed forms: no simplex optimizer runs
    buf = io_module.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "z", "value"])
    for x in axis:
        for y in axis:
            for z in axis:
                if x * x + y * y + z * z > 1.0 + 1e-12:
                    continue
                value = _bloch_value(args.quantifier, from_bloch((x, y, z)))
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(z)), repr(value)])
    io.atomic_write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_random(args) -> int:
    rho = random_density(args.dim, args.rank, stream(args.seed))
    io.write_state(
        args.out,
        rho,
        label=f"random(dim={args.dim}, rank={args.rank}, seed={args.seed})",
    )
    _print_json(
        {
            "schema_version": REPORT_SCHEMA,
            "written": args.out,
            "dim": args.dim,
            "rank": args.rank,
            "seed": args.seed,
        }
    )
    return EXIT_OK


def _parse_floats(text: str) -> list:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"cannot parse float list {text!r}") from exc


def _fmt_alpha(a) -> str:
    if a == math.inf:
        return "inf"
    return f"{float(a):g}"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
