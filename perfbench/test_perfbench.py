"""Tests of the benchmark itself: a smoke run of each workload, one
perturbation per output check (so that no check is vacuous), the traced
mode's repeatable counts and the benchmark definition.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("states"))


def _bench_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# smoke runs at a tiny size


SMOKE = {
    "quantify": lambda op: op.label.split()[1] in ("d2r1-0", "d2r2-0", "d3r2-0", "mcms-d3r1-0", "mcms-d3r2-0",
                                                   "mcms-d3r3-0"),
    "hierarchy": lambda op: op.label.split()[1] in ("bell", "d4r2-0"),
    "spectral": lambda op: True,
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_has_no_failures(name, workdir):
    ops = [op for op in workloads.build(name, 11, workdir) if SMOKE[name](op)]
    tally = run.Tally()
    for op in ops:
        tally.run(op)
    assert ops and tally.attempted == len(ops)
    assert tally.failed == 0


# ---------------------------------------------------------------------------
# every check catches a perturbation beyond its tolerance


def _json_case(mutate):
    def apply(out):
        code, text = out
        doc = json.loads(text)
        code = mutate(doc) or code
        return code, json.dumps(doc)

    return apply


def _set(*path, to):
    """A mutation that sets doc[path] = to(doc)."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = to(doc)

    return mutate


def _get(doc, *path):
    for key in path:
        doc = doc[key]
    return doc


def _shift(*path, by):
    return _set(*path, to=lambda doc: _get(doc, *path) + by)


DIST = ("coherence", "c_distance")
ALPHA = ("coherence", "c_alpha")
QUANTIFY_CASES = [
    # (input label, mutation, expected problem label)
    ("d2r2-0", _shift("coherence", "c_rel_entropy", by=1e-8), "c_rel_entropy"),
    ("d2r2-0", _shift(*DIST, "rel_entropy", "value", by=1e-8), "c_distance[rel_entropy]"),
    ("d2r2-0", _shift("coherence", "c_l1", by=1e-8), "c_l1"),
    ("d2r2-0", _shift(*DIST, "schatten_2", "value", by=-1e-5), "c_distance[schatten_2]"),
    ("d2r2-0", _shift(*DIST, "trace_norm", "value", by=-1e-5), "qubit c_distance[trace_norm]"),
    ("d2r2-0", _shift(*DIST, "one_minus_fidelity", "value", by=-1e-5), "qubit c_distance[one_minus_fidelity]"),
    ("d3r2-0", _set(*DIST, "trace_norm", "value", to=lambda doc: 2.0), "c_distance[trace_norm] upper end"),
    ("d3r2-0", _set(*DIST, "trace_norm", "value", to=lambda doc: -1e-6), "c_distance[trace_norm] lower end"),
    ("mcms-d3", _shift(*DIST, "one_minus_fidelity", "value", by=-1e-5), "MCMS c_distance[one_minus_fidelity]"),
    ("d2r2-0", _shift(*ALPHA, "0.5", "value", by=-1e-5), "c_alpha[0.5]"),
    ("d3r2-0", _set(*ALPHA, "0.5", "value", to=lambda doc: doc["coherence"]["c_rel_entropy"] + 1e-5),
     "c_alpha[0.5] <= C_rel"),
    ("d3r2-0", _set(*ALPHA, "2", "value", to=lambda doc: doc["coherence"]["c_rel_entropy"] - 1e-6),
     "C_rel <= c_alpha[2]"),
    ("d3r2-0", _shift(*ALPHA, "2", "value", by=1.0), "c_alpha[2] <= D2(rho, dephased)"),
    *[("d3r2-0", _shift("purity", "p_alpha", key, by=1e-8), f"p_alpha[{key}]") for key in ("0", "0.5", "1", "2", "inf")],
    ("d3r2-0", _shift("purity", "p_geometric", by=1e-8), "p_geometric"),
    ("d3r2-0", _shift("purity", "p_linear", by=1e-8), "p_linear"),
    ("d2r1-0", _shift("purity", "distillable_1shot", by=-1), "distillable_1shot"),
    ("d3r2-0", _shift("purity", "cost_1shot", by=1), "cost_1shot"),
    ("d3r2-0", _shift("dim", by=1), "dim"),
    ("d3r2-0", lambda doc: 3, "exit code"),
]


@pytest.fixture(scope="module")
def quantify_outputs(workdir):
    ops = workloads.build("quantify", 11, workdir)
    picked = {label: next(op for op in ops if op.label.split()[1].startswith(label)) for label, _, _ in QUANTIFY_CASES}
    return {label: (op, op.call()) for label, op in picked.items()}


@pytest.mark.parametrize("label,mutate,expected", QUANTIFY_CASES, ids=[c[2] for c in QUANTIFY_CASES])
def test_quantify_check_catches(quantify_outputs, label, mutate, expected):
    op, out = quantify_outputs[label]
    assert op.check(out) == []
    assert any(p.startswith(expected + ":") for p in op.check(_json_case(mutate)(out)))


H = ("hierarchy",)
MX = ("max_hierarchy",)
HIERARCHY_CASES = [
    # (distance, mutation, expected problem label)
    ("rel_entropy", _shift(*H, "purity", by=1e-8), "purity"),
    ("rel_entropy", _shift(*MX, "purity", by=1e-8), "max_hierarchy purity"),
    ("trace_norm", _set(*H, "coherence_n", to=lambda doc: _get(doc, *H, "purity") + 1e-6), "coherence_n <= purity"),
    ("rel_entropy", _shift(*H, "coherence_n", by=1e-6), "coherence_n <= D(rho, dephased)"),
    ("rel_entropy", _shift(*H, "coherence_n", by=1e-8), "coherence_n (rel_entropy)"),
    ("trace_norm", _set(*H, "discord_upper", to=lambda doc: _get(doc, *H, "coherence_n") + 1e-6),
     "discord_upper <= coherence_n"),
    ("trace_norm", _set(*MX, "c_max_lower", to=lambda doc: _get(doc, *H, "coherence_n") - 1e-6),
     "coherence_n <= c_max_lower"),
    ("trace_norm", _set(*MX, "c_max_lower", to=lambda doc: _get(doc, *H, "purity") + 1e-6), "c_max_lower <= purity"),
    ("trace_norm", _set(*MX, "d_max_lower", to=lambda doc: _get(doc, *H, "purity") + 1e-6), "d_max_lower <= purity"),
    ("schatten_2", lambda doc: 4, "exit code"),
]
I_MAX_CASES = [
    (lambda r: r._replace(i_max_lower=r.p_r + 1e-6), "I_max <= P_r"),
    (lambda r: r._replace(i_max_lower=-1.0), "I(rho) <= I_max"),
    (lambda r: r._replace(i_max_lower=r.p_r - 1e-2), "P_r - I_max"),
    (lambda r: r._replace(p_r=r.p_r + 1e-8), "p_r"),
    (lambda r: r._replace(gap=r.gap + 1e-8), "gap"),
]


@pytest.fixture(scope="module")
def hierarchy_outputs(workdir):
    ops = workloads.build("hierarchy", 11, workdir)
    picked = {op.label.split()[-1]: op for op in ops if op.label.split()[1] == "d4r2-0"}
    return {key: (op, op.call()) for key, op in picked.items()}


@pytest.mark.parametrize("distance,mutate,expected", HIERARCHY_CASES, ids=[c[2] for c in HIERARCHY_CASES])
def test_hierarchy_check_catches(hierarchy_outputs, distance, mutate, expected):
    op, out = hierarchy_outputs[distance]
    assert op.check(out) == []
    assert any(p.startswith(expected + ":") for p in op.check(_json_case(mutate)(out)))


@pytest.mark.parametrize("mutate,expected", I_MAX_CASES, ids=[c[1] for c in I_MAX_CASES])
def test_i_max_check_catches(hierarchy_outputs, mutate, expected):
    op, out = hierarchy_outputs["d4r2-0"]
    assert op.check(out) == []
    assert any(p.startswith(expected + ":") for p in op.check(mutate(out)))


def _eig(out, values=0.0, vectors=0.0):
    es = out["eig"]
    vec = es.vectors.copy()
    vec[0, -1] += vectors
    return dict(out, eig=dataclasses.replace(es, values=es.values + values, vectors=vec))


def _off(d, eps):
    m = np.zeros((d, d), dtype=complex)
    m[0, 1] = m[1, 0] = eps
    return m


def _report(out, **changes):
    return dict(out, purity_report=dataclasses.replace(out["purity_report"], **changes))


def _flip(out, kind, key):
    certs = dict(out[kind])
    certs[key] = dataclasses.replace(certs[key], feasible=not certs[key].feasible)
    return dict(out, **{kind: certs})


def _alpha_dip(out):
    p = dict(out["purity_report"].p_alpha)
    p[float("inf")] = p[2.0] - 1e-6
    return _report(out, p_alpha=p)


SPECTRAL_CASES = [
    # (dimension, mutation, expected problem label)
    (5, lambda o: _eig(o, values=1e-9), "eigenvalues"),
    (5, lambda o: _eig(o, vectors=1e-8), "reconstruction residual"),
    (5, lambda o: _eig(o, vectors=1e-8), "orthonormality residual"),
    (5, lambda o: dict(o, optimal_unitary=o["optimal_unitary"] + _off(5, 1e-8)), "U rho U^dag - mcms"),
    (5, lambda o: dict(o, mcms=o["mcms"] + _off(5, 1e-9)), "mcms spectrum"),
    (5, lambda o: dict(o, mcms=o["mcms"] + 1e-9 * np.eye(5)), "mcms diagonal"),
    *[(5, lambda o, n=n: dict(o, p_distance=dict(o["p_distance"], **{n: o["p_distance"][n] + 1e-8})),
       f"p_distance[{n}]") for n in ("rel_entropy", "trace_norm", "schatten_2", "one_minus_fidelity")],
    (5, _alpha_dip, "p_alpha nondecreasing in alpha"),
    (5, lambda o: _report(o, p_linear=o["purity_report"].p_linear + 1e-8), "p_linear"),
    (5, lambda o: dict(o, c_rel_entropy=o["c_rel_entropy"] + 1e-8), "c_rel_entropy"),
    (5, lambda o: dict(o, c_l1=o["c_l1"] + 1e-8), "c_l1"),
    (5, lambda o: _flip(o, "distill", o["purity_report"].distillable_1shot), "distill certificate feasible at m"),
    (5, lambda o: _flip(o, "distill", o["purity_report"].distillable_1shot + 1),
     "distill certificate infeasible at m + 1"),
    (5, lambda o: _flip(o, "cost", o["purity_report"].cost_1shot), "cost certificate feasible at c"),
    (5, lambda o: _flip(o, "cost", o["purity_report"].cost_1shot - 1), "cost certificate infeasible at c - 1"),
    (2, lambda o: dict(o, cnot=o["cnot"]._replace(negativity=o["cnot"].negativity + 1e-9)), "CNOT negativity"),
]


@pytest.fixture(scope="module")
def spectral_outputs():
    ops = {op.label.split()[1][1:].split("r")[0]: op for op in workloads.build("spectral", 11, "")}
    return {d: (ops[str(d)], ops[str(d)].call()) for d in (2, 5)}


@pytest.mark.parametrize("d,mutate,expected", SPECTRAL_CASES, ids=[c[2] for c in SPECTRAL_CASES])
def test_spectral_check_catches(spectral_outputs, d, mutate, expected):
    op, out = spectral_outputs[d]
    assert op.check(out) == []
    assert any(p.startswith(expected + ":") for p in op.check(mutate(out)))


def test_perturbed_output_is_a_failed_op(quantify_outputs):
    op, out = quantify_outputs["d2r2-0"]
    bad = _json_case(_shift("coherence", "c_l1", by=1e-6))(out)
    tally = run.Tally()
    tally.run(op)
    tally.run(workloads.Op(op.label, lambda: bad, op.check))
    tally.run(workloads.Op(op.label, lambda: (2, ""), op.check))
    assert (tally.attempted, tally.failed) == (3, 2)


# ---------------------------------------------------------------------------
# the command: result line, traced counts, and the definition file


def _bench(tmp_root, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_root, capture_output=True, text=True, timeout=170
    )
    return proc


def test_traced_counts_repeat_exactly():
    args = ("--workload", "spectral", "--seed", "5", "--seconds", "0", "--trace", "1")
    first, second = (_bench(HERE.parent, *args) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a, b = (json.loads(p.stdout.strip().splitlines()[-1]) for p in (first, second))
    assert set(a) == {"correct", "attempted", "failed", "metrics"}
    assert list(a["metrics"]) == [name for name, _, _ in tracing.PER_LAYER]
    for name, unit, _ in tracing.PER_LAYER:
        if unit == "count":
            assert a["metrics"][name] == b["metrics"][name], name
    assert a["metrics"]["linalg.eigh.calls"]["value"] > 0


def test_untraced_result_line():
    proc = _bench(HERE.parent, "--workload", "spectral", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] == len(workloads.SPECTRAL_DIMS)
    assert list(res["metrics"]) == [m["name"] for m in _bench_json()["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_definition_matches_the_command():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER
