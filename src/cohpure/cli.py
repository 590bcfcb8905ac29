"""Command-line surface: state I/O, quantifier reports, conversion and
single-shot purity queries, hierarchy checks, verification suites, and
Bloch-ball data export. ``quantify --format csv`` writes the rows of the
JSON report it has built, so each report field is listed once.

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
from .states import from_bloch, random_density

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OPTIMIZER = 3
EXIT_INVARIANT = 4

REPORT_SCHEMA = "cohpure-report-1"

# every Bloch state is a qubit, where the trace norm and the fidelity take
# their block closed forms: no simplex optimizer runs
BLOCH_QUANTIFIERS = {
    "c_l1": c_l1,
    "c_rel_entropy": c_rel_entropy,
    "c_trace_norm": lambda rho: coherence.c_distance(rho, "trace_norm"),
    "c_geometric": coherence.c_geometric,
    "p_rel_entropy": purity.p_rel_entropy,
    "p_trace_norm": lambda rho: purity.p_distance(rho, "trace_norm"),
    "p_geometric": purity.p_geometric,
    "p_linear": purity.p_linear,
    "p_2": purity.p_2,
}


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

    for name, what, key, count, certify in (
        ("distill", "distillable purity", "distillable_1shot", majorization.distillable_purity_1shot,
         majorization.brute_force_distill),
        ("cost", "purity cost", "cost_1shot", majorization.purity_cost_1shot, majorization.brute_force_cost),
    ):
        p = sub.add_parser(name, help=f"single-shot {what}")
        p.add_argument("--state", required=True)
        p.set_defaults(func=functools.partial(cmd_single_shot, key, count, certify))

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
    alphas = _parse_floats(args.alpha)
    prep = purity.purity_report(rho)
    cohs = {"c_rel_entropy": c_rel_entropy(rho), "c_l1": c_l1(rho)}
    dist_block = {name: _result_doc(c_distance_result(rho, name)) for name in args.distance or MENU}
    alpha_block = {}
    for a in alphas:
        if not (a > 0) or a == math.inf:
            raise DomainError(f"coherence order must be finite and positive, got {a}")
        alpha_block[_fmt_alpha(a)] = _result_doc(c_alpha_result(rho, a))
    flagged = not all(block["converged"] for block in (*dist_block.values(), *alpha_block.values()))
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
        writer.writerows(_csv_rows(doc))
    return EXIT_OPTIMIZER if flagged else EXIT_OK


def _result_doc(res) -> dict:
    return {"value": res.value, "converged": res.converged}


def _csv_rows(doc):
    """The ``quantify`` report's (quantity, value) rows in the document's
    order: an entry of a nested table is named ``table[key]``, a
    ``{value, converged}`` block gives its value, and values are written
    with ``repr``."""
    for section in (doc["purity"], doc["coherence"]):
        for key, value in section.items():
            if not isinstance(value, dict):
                yield [key, repr(value)]
                continue
            for k, v in value.items():
                yield [f"{key}[{k}]", repr(v["value"] if isinstance(v, dict) else v)]


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


def cmd_single_shot(key, count, certify, args) -> int:
    """``distill`` and ``cost``: the single-shot count m under ``key``,
    with the brute-force majorization certificate of m."""
    _, rho = _load_state(args.state)
    m = count(rho)
    _print_json({"schema_version": REPORT_SCHEMA, key: m, "certificate": _certificate_doc(certify(rho, m))})
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
    rep, mrep = correlations.hierarchy_checks(
        rho, dims, args.distance, budget=budget, rng=stream(args.seed),
        max_budget=Budget(max(args.restarts // 2, 1), max(args.refine // 2, 0)), max_rng=stream(args.seed + 1),
        inner_budget=Budget(1, 0), opt=opt,
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


def cmd_bloch(args) -> int:
    if args.grid < 2:
        raise DomainError(f"--grid must be >= 2, got {args.grid}")
    axis = np.linspace(-1.0, 1.0, args.grid)
    quantifier = BLOCH_QUANTIFIERS[args.quantifier]
    buf = io_module.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "z", "value"])
    for x in axis:
        for y in axis:
            for z in axis:
                if x * x + y * y + z * z > 1.0 + 1e-12:
                    continue
                value = quantifier(from_bloch((x, y, z)))
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
