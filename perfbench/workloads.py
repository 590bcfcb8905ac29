"""Workload inputs and operations.

Inputs are drawn from the ``--seed`` with numpy alone: Haar eigenvectors
(QR of a complex Ginibre matrix) and Dirichlet eigenvalues of an exact
rank, so the generator knows every spectrum the checks need. The
program receives only the generated states, through state files for CLI
operations and as plain arrays for library calls.

An operation is one call into cohpure plus the check of its output.
Every round of a run repeats the same operations on fresh copies of the
same inputs, so each round does identical work.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference as ref
from cohpure import Budget, cli, coherence, correlations, linalg, majorization, purity, states
from cohpure import io as state_io

# fixed search sizes: the hill climb runs (nonzero refine), and the nested
# maximal-hierarchy check stays at one Haar restart per level
HIERARCHY_ARGS = ("--restarts", "2", "--refine", "1")
I_MAX_BUDGET = Budget(128, 300)
# the mutual-information search takes 0.6 s on some states and 2.5-3 s on
# others (the hill climb runs into its pass cap), so it runs on two of the
# rank-2 states only, to keep its share of a round's time small
I_MAX_STATES = ("d4r2-0", "d4r2-1")
# several states per (dimension, rank): the optimizer's cost varies from
# state to state with a heavy tail, and a round must hold enough states
# that its total barely depends on the seed
QUANTIFY_DIMS = range(2, 7)
QUANTIFY_STATES_PER_RANK = 4
HIERARCHY_STATES_PER_RANK = 5
SPECTRAL_DIMS = range(2, 65)


@dataclass(frozen=True)
class Input:
    label: str
    mat: np.ndarray
    spec: np.ndarray  # eigenvalues, descending, zero-padded to the dimension
    rank: int
    mcms: bool = False

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def random_input(rng: np.random.Generator, d: int, rank: int) -> Input:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    while True:
        p = rng.dirichlet(np.ones(rank))
        if p.min() > 1e-6:
            break
    spec = np.zeros(d)
    spec[:rank] = np.sort(p)[::-1]
    cols = q[:, :rank]
    m = (cols * spec[:rank]) @ cols.conj().T
    return Input(f"d{d}r{rank}", (m + m.conj().T) / 2.0, spec, rank)


def _numbered(inp: Input, k: int) -> Input:
    return Input(f"{inp.label}-{k}", inp.mat, inp.spec, inp.rank)


def mcms_input(src: Input) -> Input:
    """The maximally coherent mixed state of ``src``'s spectrum, built
    directly as a mixture of Fourier-basis projectors."""
    f = ref.fourier(src.dim)
    m = (f * src.spec) @ f.conj().T
    return Input(f"mcms-{src.label}", (m + m.conj().T) / 2.0, src.spec, src.rank, mcms=True)


def bell_input() -> Input:
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return Input("bell", np.outer(v, v.conj()), np.array([1.0, 0.0, 0.0, 0.0]), 1)


def run_cli(argv) -> tuple:
    """``cohpure.cli.main`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _state_file(workdir: str, inp: Input) -> str:
    path = os.path.join(workdir, f"{inp.label}.json")
    state_io.write_state(path, inp.mat, label=inp.label)
    return path


# ---------------------------------------------------------------------------
# quantify: the simplex optimizer at its default settings, no unitary search


def quantify_inputs(rng: np.random.Generator) -> list:
    """Several states for every d = 2..6 and every rank 1..d, then the
    MCMS of as many seeded picks per dimension."""
    inputs = []
    for k in range(QUANTIFY_STATES_PER_RANK):
        inputs += [_numbered(random_input(rng, d, r), k) for d in QUANTIFY_DIMS for r in range(1, d + 1)]
    for k in range(QUANTIFY_STATES_PER_RANK):
        for d in QUANTIFY_DIMS:
            rank = int(rng.integers(1, d + 1))
            inputs.append(mcms_input(next(i for i in inputs if i.label == f"d{d}r{rank}-{k}")))
    return inputs


def quantify_op(inp: Input, workdir: str) -> Op:
    argv = ("quantify", "--state", _state_file(workdir, inp), "--alpha", "0.5,2")
    return Op(f"quantify {inp.label}", lambda: run_cli(argv), lambda out: checks.check_quantify(inp, out))


# ---------------------------------------------------------------------------
# hierarchy: nested unitary searches over light simplex minimizations


def hierarchy_inputs(rng: np.random.Generator) -> list:
    """The Bell state, then seeded two-qubit states of ranks 1..4; each
    carries the search seed its commands use."""
    inputs = [(bell_input(), int(rng.integers(0, 2**31)))]
    for k in range(HIERARCHY_STATES_PER_RANK):
        for r in range(1, 5):
            inputs.append((_numbered(random_input(rng, 4, r), k), int(rng.integers(0, 2**31))))
    return inputs


def hierarchy_ops(inp: Input, seed: int, workdir: str) -> list:
    path = _state_file(workdir, inp)
    ops = []
    for distance in ref.MENU:
        argv = ("hierarchy", "--state", path, "--dims", "2,2", "--distance", distance,
                *HIERARCHY_ARGS, "--seed", str(seed))
        ops.append(Op(
            f"hierarchy {inp.label} {distance}",
            lambda argv=argv: run_cli(argv),
            lambda out, distance=distance: checks.check_hierarchy(inp, distance, out),
        ))
    if inp.label in I_MAX_STATES:
        ops.append(Op(
            f"i_max_check {inp.label}",
            lambda: correlations.i_max_check(inp.mat.copy(), (2, 2), I_MAX_BUDGET, linalg.stream(seed)),
            lambda out: checks.check_i_max(inp, out),
        ))
    return ops


# ---------------------------------------------------------------------------
# spectral: closed forms only, no optimizer


def spectral_inputs(rng: np.random.Generator) -> list:
    """One state for every d = 2..64 with a seeded rank."""
    return [random_input(rng, d, int(rng.integers(1, d + 1))) for d in SPECTRAL_DIMS]


def spectral_call(mat: np.ndarray) -> dict:
    rho = states.validate(mat.copy())
    rep = purity.purity_report(rho)
    m, c = rep.distillable_1shot, rep.cost_1shot
    return {
        "eig": linalg.hermitian_eig(rho.mat),
        "purity_report": rep,
        "c_rel_entropy": coherence.c_rel_entropy(rho),
        "c_l1": coherence.c_l1(rho),
        "optimal_unitary": coherence.optimal_unitary(rho),
        "mcms": coherence.mcms(rho.spectrum, rho.dim).mat,
        "p_distance": {name: purity.p_distance(rho, name) for name in ref.MENU},
        "distill": {k: majorization.brute_force_distill(rho, k) for k in (m, m + 1)},
        "cost": {k: majorization.brute_force_cost(rho, k) for k in (c, c - 1) if k >= 0},
        "cnot": correlations.cnot_activation(rho) if rho.dim == 2 else None,
    }


def spectral_op(inp: Input) -> Op:
    return Op(f"spectral {inp.label}", lambda: spectral_call(inp.mat), lambda out: checks.check_spectral(inp, out))


# ---------------------------------------------------------------------------


def build(name: str, seed: int, workdir: str) -> list:
    """The operations of one round of workload ``name`` at ``seed``,
    writing the state files it needs into ``workdir``."""
    rng = np.random.default_rng(seed)
    if name == "quantify":
        return [quantify_op(inp, workdir) for inp in quantify_inputs(rng)]
    if name == "hierarchy":
        return [op for inp, s in hierarchy_inputs(rng) for op in hierarchy_ops(inp, s, workdir)]
    if name == "spectral":
        return [spectral_op(inp) for inp in spectral_inputs(rng)]
    raise KeyError(name)


def first_use(name: str, workdir: str) -> Op:
    """One fixed, seed-independent operation of workload ``name``: it pays
    for lazy imports and first-call costs before any set-up is timed."""
    if name == "quantify":
        return quantify_op(random_input(np.random.default_rng(0), 2, 2), workdir)
    if name == "hierarchy":
        return hierarchy_ops(bell_input(), 0, workdir)[0]
    if name == "spectral":
        return spectral_op(random_input(np.random.default_rng(0), 2, 2))
    raise KeyError(name)
