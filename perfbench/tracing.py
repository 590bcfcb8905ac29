"""Traced mode: spans at the public functions of each cohpure layer and
counts of every numpy ``eigh``/``eigvalsh`` call.

The tracer replaces each traced function in every cohpure module
namespace that binds it, so calls through ``from ... import`` names (the
CLI's, for one) are seen as well as calls through the defining module.
Spans are kept in memory with a link to their parent span; self time is
a span's duration minus the time of its child spans. Nothing is written
until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

from cohpure import cli, coherence, correlations, io, linalg, majorization, purity, simplex, states

# (name, unit, better); the names are the per-layer metrics of BENCHMARK.json
PER_LAYER = [
    ("simplex.minimize_diag.calls", "count", "lower"),
    ("simplex.minimize_diag.self_s", "s", "lower"),
    ("simplex.evals", "count", "lower"),
    ("simplex.iterations", "count", "lower"),
    ("simplex.unconverged", "count", "lower"),
    *[
        (f"coherence.c_distance_result.{d}.{k}", u, "lower")
        for d in simplex.MENU
        for k, u in (("calls", "count"), ("s", "s"))
    ],
    *[
        (f"coherence.c_alpha_result.{a}.{k}", u, "lower")
        for a in ("0.5", "2")
        for k, u in (("calls", "count"), ("s", "s"))
    ],
    ("correlations.unitary_maximize.calls", "count", "lower"),
    ("correlations.unitary_maximize.self_s", "s", "lower"),
    ("correlations.unitary_maximize.evals", "count", "lower"),
    ("correlations.unitary_maximize.refined_share", "ratio", "higher"),
    ("correlations.hierarchy_report.s", "s", "lower"),
    ("correlations.max_hierarchy_check.s", "s", "lower"),
    ("correlations.i_max_check.s", "s", "lower"),
    ("correlations.discord_upper.calls", "count", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.matrices", "count", "lower"),
    ("linalg.hermitian_eig.calls", "count", "lower"),
    ("linalg.hermitian_eig.self_s", "s", "lower"),
    ("linalg.mat_func.calls", "count", "lower"),
    ("linalg.mat_func.self_s", "s", "lower"),
    ("states.validate.calls", "count", "lower"),
    ("states.validate.self_s", "s", "lower"),
    ("purity.purity_report.s", "s", "lower"),
    ("purity.p_distance.s", "s", "lower"),
    ("majorization.certificates.calls", "count", "lower"),
    ("majorization.certificates.s", "s", "lower"),
    ("coherence.mcms.s", "s", "lower"),
    ("coherence.optimal_unitary.s", "s", "lower"),
    ("io.read_state.s", "s", "lower"),
    ("io.write_state.s", "s", "lower"),
    ("cli.quantify.self_s", "s", "lower"),
    ("cli.hierarchy.self_s", "s", "lower"),
]

# metrics measured over one set-up rather than per round: state files are
# written only while setting up
SETUP_SCOPED = {"io.write_state.s"}


def _fixed(name):
    return lambda *args, **kwargs: name


def _distance_name(rho, distance, *args, **kwargs):
    return f"coherence.c_distance_result.{getattr(distance, 'name', distance)}"


def _alpha_name(rho, alpha, *args, **kwargs):
    return f"coherence.c_alpha_result.{float(alpha):g}"


def _command_name(argv=None):
    return f"cli.{argv[0] if argv else 'main'}"


def _simplex_result(sums, res):
    sums["simplex.evals"] += res.evals
    sums["simplex.iterations"] += res.iterations
    sums["simplex.unconverged"] += not res.converged


def _search_result(sums, res):
    sums["correlations.unitary_maximize.evals"] += res.evals
    sums["unitary_maximize.refined"] += res.improved_by_refinement > 0


# (module, attribute, span name, result hook)
TARGETS = [
    (linalg, "hermitian_eig", _fixed("linalg.hermitian_eig"), None),
    (linalg, "mat_func", _fixed("linalg.mat_func"), None),
    (states, "validate", _fixed("states.validate"), None),
    (simplex, "minimize_diag", _fixed("simplex.minimize_diag"), _simplex_result),
    (coherence, "c_distance_result", _distance_name, None),
    (coherence, "c_alpha_result", _alpha_name, None),
    (coherence, "mcms", _fixed("coherence.mcms"), None),
    (coherence, "optimal_unitary", _fixed("coherence.optimal_unitary"), None),
    (correlations, "unitary_maximize", _fixed("correlations.unitary_maximize"), _search_result),
    (correlations, "hierarchy_report", _fixed("correlations.hierarchy_report"), None),
    (correlations, "max_hierarchy_check", _fixed("correlations.max_hierarchy_check"), None),
    (correlations, "i_max_check", _fixed("correlations.i_max_check"), None),
    (correlations, "discord_upper", _fixed("correlations.discord_upper"), None),
    (purity, "purity_report", _fixed("purity.purity_report"), None),
    (purity, "p_distance", _fixed("purity.p_distance"), None),
    (majorization, "brute_force_distill", _fixed("majorization.certificates"), None),
    (majorization, "brute_force_cost", _fixed("majorization.certificates"), None),
    (io, "read_state", _fixed("io.read_state"), None),
    (io, "write_state", _fixed("io.write_state"), None),
    (cli, "main", _command_name, None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, parent span index, start, end]
        self._stack = []
        self.sums = defaultdict(float)
        self._patches = []

    def _wrap(self, fn, namer, hook):
        def traced(*args, **kwargs):
            name = namer(*args, **kwargs)
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            stack = self._stack
            record = [nid, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(self.spans))
            self.spans.append(record)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = time.perf_counter()
            if hook is not None:
                hook(self.sums, res)
            return res

        return traced

    def _count(self, fn):
        def counted(a, *args, **kwargs):
            self.sums["linalg.eigh.calls"] += 1
            self.sums["linalg.eigh.matrices"] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)

        return counted

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "cohpure" and m]
        for module, attr, namer, hook in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, namer, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapper)
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._count(original))

    def uninstall(self):
        while self._patches:
            m, name, original = self._patches.pop()
            setattr(m, name, original)

    def mark(self) -> tuple:
        """A point in the trace; ``aggregate`` covers what follows one."""
        return len(self.spans), dict(self.sums)

    def aggregate(self, since: tuple = (0, {})) -> dict:
        """Calls, inclusive seconds and self seconds per span name, and the
        counters gathered from results, over the spans after ``since``."""
        lo, sums_before = since
        out = defaultdict(float, {k: v - sums_before.get(k, 0.0) for k, v in self.sums.items()})
        child = defaultdict(float)
        for nid, parent, start, end in self.spans[lo:]:
            if parent >= lo:
                child[parent] += end - start
        for i, (nid, _, start, end) in enumerate(self.spans[lo:], start=lo):
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        return out

    def dump(self, path, header: dict):
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            **header,
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "names": self.names,
            "spans": [[nid, parent, round(s - t0, 9), round(e - t0, 9)] for nid, parent, s, e in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def counts(agg: dict) -> dict:
    """The counts of an aggregate, which repeat exactly from round to round."""
    return {k: v for k, v in sorted(agg.items()) if not k.endswith((".s", "_s"))}


def layer_metrics(per_round: dict, per_setup: dict) -> dict:
    """The PER_LAYER metrics from aggregates divided down to one round (one
    set-up for the set-up scoped ones)."""
    out = {}
    for name, unit, _ in PER_LAYER:
        source = per_setup if name in SETUP_SCOPED else per_round
        if name == "correlations.unitary_maximize.refined_share":
            calls = source.get("correlations.unitary_maximize.calls", 0.0)
            value = source.get("unitary_maximize.refined", 0.0) / calls if calls else 0.0
        else:
            value = source.get(name, 0.0)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
