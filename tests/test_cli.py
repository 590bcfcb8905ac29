"""Golden-file and exit-code tests for every CLI command.

Regenerate the goldens with UPDATE_GOLDENS=1 after an intentional
output-schema change.
"""

import csv
import io as io_module
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cohpure import cli as climod
from cohpure import correlations, io, simplex
from cohpure.simplex import MENU, SandwichedAlphaDivergence, SimplexResult, _RenyiTwoForm
from cohpure.linalg import stream
from cohpure.states import diagonal, maximally_mixed, pure, random_density

GOLDEN = Path(__file__).parent / "golden"
UPDATE = os.environ.get("UPDATE_GOLDENS") == "1"
# the directory holding the cohpure package this process imported, so the
# CLI under test is that package whether or not cohpure is installed
PACKAGE_ROOT = str(Path(climod.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cohpure", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def assert_close(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for k in expected:
            assert_close(actual[k], expected[k], f"{path}.{k}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool) or expected is None:
        assert actual == expected, f"{path}: {actual} != {expected}"
    elif isinstance(expected, (int, float)):
        assert math.isclose(float(actual), float(expected), rel_tol=1e-9, abs_tol=1e-9), (
            f"{path}: {actual} != {expected}"
        )
    else:
        assert actual == expected, f"{path}: {actual} != {expected}"


def check_golden(name, text):
    path = GOLDEN / name
    if UPDATE:
        path.write_text(text)
    if name.endswith(".json"):
        assert_close(json.loads(text), json.loads(path.read_text()))
    else:
        got = text.strip().splitlines()
        want = path.read_text().strip().splitlines()
        assert got[0] == want[0]  # header
        assert len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            for a, e in zip(g.split(","), w.split(",")):
                assert math.isclose(float(a), float(e), rel_tol=1e-9, abs_tol=1e-9)


def check_verify_golden(suite, stdout):
    """Every check's name, pass flag, detail and known-negative flag must
    match ``verify_<suite>.json``, which holds one check per line."""
    checks = json.loads(stdout)["checks"]
    check_golden(f"verify_{suite}.json", "[\n" + ",\n".join(json.dumps(c) for c in checks) + "\n]\n")


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    io.write_state(root / "binary.json", diagonal([0.9, 0.1]), label="binary")
    io.write_state(root / "mixed2.json", maximally_mixed(2), label="mixed_qubit")
    io.write_state(root / "plus.json", pure([1, 1]), label="plus")
    io.write_state(root / "pure8.json", pure(np.ones(8)), label="pure8")
    io.write_state(root / "bell.json", pure([1, 0, 0, 1]), label="bell", dims=(2, 2))
    return root


class TestQuantify:
    def test_binary_state_golden(self, state_files):
        proc = run_cli("quantify", "--state", str(state_files / "binary.json"))
        assert proc.returncode == 0, proc.stderr
        check_golden("quantify_binary.json", proc.stdout)

    def test_full_rank_d4_golden(self, tmp_path):
        # a dense d = 4 state takes the trace norm's Newton homotopy and the
        # fidelity's mirror descent, which no qubit golden reaches: every
        # qubit takes their closed forms
        path = tmp_path / "d4.json"
        assert run_cli("random", "--dim", "4", "--rank", "4", "--seed", "7", "--out", str(path)).returncode == 0
        proc = run_cli("quantify", "--state", str(path))
        assert proc.returncode == 0, proc.stderr
        check_golden("quantify_d4.json", proc.stdout)

    def test_maximally_mixed_all_zero(self, state_files):
        proc = run_cli("quantify", "--state", str(state_files / "mixed2.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert all(abs(v) <= 1e-9 for v in doc["purity"]["p_alpha"].values())
        assert abs(doc["coherence"]["c_rel_entropy"]) <= 1e-9
        assert abs(doc["coherence"]["c_l1"]) <= 1e-9
        assert all(abs(b["value"]) <= 1e-6 for b in doc["coherence"]["c_distance"].values())

    def test_plus_state_values(self, state_files):
        proc = run_cli("quantify", "--state", str(state_files / "plus.json"))
        doc = json.loads(proc.stdout)
        assert abs(doc["coherence"]["c_rel_entropy"] - 1.0) <= 1e-9
        assert abs(doc["coherence"]["c_l1"] - 1.0) <= 1e-9
        assert abs(doc["purity"]["p_alpha"]["1"] - 1.0) <= 1e-9

    def test_small_petz_order_on_pure_qutrit(self, tmp_path):
        # c_i^(1/alpha) underflows to 0 at alpha = 0.001 on this state
        path = tmp_path / "plus3.json"
        io.write_state(path, pure(np.ones(3)))
        proc = run_cli("quantify", "--state", str(path), "--alpha", "0.001")
        assert proc.returncode == 0, proc.stderr
        value = json.loads(proc.stdout)["coherence"]["c_alpha"]["0.001"]["value"]
        assert abs(value - math.log2(3)) <= 1e-9

    def test_csv_format(self, state_files):
        proc = run_cli("quantify", "--state", str(state_files / "binary.json"), "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert math.isclose(float(table["p_alpha[1]"]), 0.5310044064107189, abs_tol=1e-9)

    @pytest.mark.parametrize("name", ["binary", "plus", "d4_rank3"])
    def test_csv_rows_are_the_flattened_json(self, state_files, tmp_path, capsys, name):
        path = state_files / f"{name}.json"
        if name == "d4_rank3":
            path = tmp_path / "d4_rank3.json"
            io.write_state(path, random_density(4, 3, stream(5)))
        argv = ["quantify", "--state", str(path), "--alpha", "0.5,2,3"]
        assert climod.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert climod.main([*argv, "--format", "csv"]) == 0
        rows = list(csv.reader(io_module.StringIO(capsys.readouterr().out)))

        def flatten(block):
            for key, value in block.items():
                if isinstance(value, dict) and set(value) == {"value", "converged"}:
                    yield key, value["value"]
                elif isinstance(value, dict):
                    yield from ((f"{key}[{k}]", v) for k, v in flatten(value))
                else:
                    yield key, value

        flat = [*flatten(doc["purity"]), *flatten(doc["coherence"])]
        assert rows == [["quantity", "value"], *([k, repr(v)] for k, v in flat)]
        assert [k for k, _ in flat] == [
            *(f"p_alpha[{a}]" for a in ("0", "0.5", "1", "2", "inf")),
            "p_geometric", "p_linear", "distillable_1shot", "cost_1shot", "c_rel_entropy", "c_l1",
            *(f"c_distance[{d}]" for d in MENU),
            *(f"c_alpha[{a}]" for a in ("0.5", "2", "3")),
        ]

    def test_determinism(self, state_files):
        a = run_cli("quantify", "--state", str(state_files / "binary.json"))
        b = run_cli("quantify", "--state", str(state_files / "binary.json"))
        assert a.stdout == b.stdout

    def test_parser_reuse_keeps_no_state(self, state_files, capsys):
        # the parser is built once per process: a --distance given to one
        # call must not carry over to the next
        path = str(state_files / "binary.json")
        assert climod.main(["quantify", "--state", path, "--distance", "trace_norm"]) == 0
        assert list(json.loads(capsys.readouterr().out)["coherence"]["c_distance"]) == ["trace_norm"]
        assert climod.main(["quantify", "--state", path]) == 0
        second = capsys.readouterr().out
        assert list(json.loads(second)["coherence"]["c_distance"]) == list(MENU)
        assert second == run_cli("quantify", "--state", path).stdout

    def test_optimizer_flag_exit_code(self, monkeypatch, state_files, capsys):
        flagged = SimplexResult(0.1, np.array([0.5, 0.5]), False, 10, 10)
        monkeypatch.setattr(climod, "c_distance_result", lambda *a, **k: flagged)
        code = climod.main(["quantify", "--state", str(state_files / "binary.json")])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimizer_flagged"] is True

    def test_huge_sandwiched_order_on_maximally_mixed_qubit(self, state_files, capsys):
        # M's eigenvalues are a round-off above 1 here, which lam^a used to
        # overflow to an infinite value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = climod.main(["quantify", "--state", str(state_files / "mixed2.json"), "--alpha", "1e308"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)["coherence"]["c_alpha"]["1e+308"]
        assert abs(block["value"]) <= 1e-12 and block["converged"] is True

    @pytest.mark.parametrize("alpha", ["2", "3"], ids=["newton", "mirror_descent"])
    def test_non_finite_value_is_flagged(self, state_files, capsys, monkeypatch, alpha):
        # order 2 takes its values from its Newton objective, order 3 from
        # the evaluator of mirror descent
        if alpha == "2":
            monkeypatch.setattr(_RenyiTwoForm, "exact", lambda self, s, Q: np.full(Q.shape[0], np.inf))
        else:
            def infinite(self, mats, mu=0.0):
                return lambda Q, s=None, below=None: (np.full(Q.shape[0], np.inf), np.zeros_like(Q))

            monkeypatch.setattr(SandwichedAlphaDivergence, "diag_objective", infinite)
        code = climod.main(["quantify", "--state", str(state_files / "binary.json"), "--alpha", alpha])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        block = doc["coherence"]["c_alpha"][alpha]
        assert not math.isfinite(block["value"]) and block["converged"] is False
        assert doc["optimizer_flagged"] is True


class TestMalformedInput:
    def _exit_and_error(self, argv, capsys):
        code = climod.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def _state(self, tmp_path, **fields):
        doc = {"schema_version": "cohpure-state-1", "dim": 2,
               "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], **fields}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_non_integer_dim(self, tmp_path, capsys):
        err = self._exit_and_error(["quantify", "--state", self._state(tmp_path, dim="abc")], capsys)
        assert "dim" in err

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("dim", {"dim": 2.7}),
            ("dim", {"dim": math.inf}),
            ("dim", {"dim": "2"}),
            ("dim", {"dim": True, "matrix": [[[1.0, 0.0]]]}),
            ("dims", {"dim": 4, "dims": [2.9, 2.2],
                      "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]}),
        ],
        ids=["dim_fraction", "dim_infinite", "dim_string", "dim_bool", "dims_fraction"],
    )
    def test_non_integral_number(self, field, fields, tmp_path, capsys):
        err = self._exit_and_error(["quantify", "--state", self._state(tmp_path, **fields)], capsys)
        assert f"'{field}' must be an integer" in err

    def test_dims_not_multiplying_to_dim(self, tmp_path, capsys):
        err = self._exit_and_error(["quantify", "--state", self._state(tmp_path, dims=[3, 3])], capsys)
        assert "dims" in err

    def test_hierarchy_dims_disagree_with_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        io.write_state(path, pure([1, 0, 0, 1]), dims=(2, 2))
        err = self._exit_and_error(["hierarchy", "--state", str(path), "--dims", "4,1"], capsys)
        assert "dims" in err

    def test_negative_hierarchy_dims(self, tmp_path, capsys):
        # (-2) * (-2) = 4: the product alone does not catch negative factors
        path = tmp_path / "bell.json"
        io.write_state(path, pure([1, 0, 0, 1]))
        err = self._exit_and_error(["hierarchy", "--state", str(path), "--dims=-2,-2"], capsys)
        assert "dims" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bloch", "--grid", "3", "--quantifier", "c_l1"],
            ["mcms", "--spectrum", "0.9,0.1", "--dim", "2"],
            ["random", "--dim", "2", "--rank", "1", "--seed", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_names_a_directory(self, argv, tmp_path, capsys):
        err = self._exit_and_error(argv + ["--out", str(tmp_path)], capsys)
        assert str(tmp_path) in err
        # the error names the directory, not a temp file written beside it
        assert ".cohpure-" not in err

    def test_negative_trials(self, capsys):
        err = self._exit_and_error(["verify", "--suite", "majorization", "--trials", "-3"], capsys)
        assert "trials" in err

    def test_non_integer_hierarchy_dims(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        io.write_state(path, pure([1, 0, 0, 1]), dims=(2, 2))
        err = self._exit_and_error(["hierarchy", "--state", str(path), "--dims", "2,x"], capsys)
        assert "dims" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hierarchy", "--state", "{bell}", "--dims", "2,2"],
            ["random", "--dim", "2", "--rank", "1", "--out", "{out}"],
            ["verify", "--suite", "majorization"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed(self, argv, tmp_path, capsys):
        bell = tmp_path / "bell.json"
        io.write_state(bell, pure([1, 0, 0, 1]), dims=(2, 2))
        argv = [a.format(bell=bell, out=tmp_path / "out.json") for a in argv] + ["--seed", "-5"]
        err = self._exit_and_error(argv, capsys)
        assert "seed" in err


class TestMcms:
    def test_golden_and_written_state(self, state_files, tmp_path):
        out = tmp_path / "mcms.json"
        proc = run_cli("mcms", "--spectrum", "0.9,0.1", "--dim", "2", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert math.isclose(doc["c_rel_entropy"], 0.5310044064107189, abs_tol=1e-9)
        assert doc["agreement"] <= 1e-9
        sf = io.read_state(out)
        assert abs(abs(sf.matrix[0, 1]) - 0.4) <= 1e-12

    def test_uniform_gives_mixed(self, tmp_path):
        out = tmp_path / "u.json"
        proc = run_cli("mcms", "--spectrum", "0.25,0.25,0.25,0.25", "--dim", "4", "--out", str(out))
        doc = json.loads(proc.stdout)
        assert abs(doc["c_rel_entropy"]) <= 1e-9
        assert np.max(np.abs(io.read_state(out).matrix - np.eye(4) / 4)) <= 1e-12

    def test_pure_spectrum_maximally_coherent(self, tmp_path):
        out = tmp_path / "p.json"
        proc = run_cli("mcms", "--spectrum", "1", "--dim", "4", "--out", str(out))
        doc = json.loads(proc.stdout)
        assert math.isclose(doc["c_rel_entropy"], 2.0, abs_tol=1e-9)
        m = io.read_state(out).matrix
        assert np.max(np.abs(np.abs(m) - 0.25)) <= 1e-12

    def test_invalid_spectrum_exit_two(self):
        proc = run_cli("mcms", "--spectrum", "0.7,0.7", "--dim", "2")
        assert proc.returncode == 2


class TestConvertDistillCost:
    def test_convert_pure_to_mixed(self, state_files):
        proc = run_cli(
            "convert", "--from", str(state_files / "plus.json"), "--to", str(state_files / "mixed2.json")
        )
        doc = json.loads(proc.stdout)
        assert doc["convertible"] is True

    def test_convert_reverse_impossible(self, state_files):
        proc = run_cli(
            "convert", "--from", str(state_files / "mixed2.json"), "--to", str(state_files / "binary.json")
        )
        assert json.loads(proc.stdout)["convertible"] is False

    def test_distill_pure8_golden(self, state_files):
        proc = run_cli("distill", "--state", str(state_files / "pure8.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["distillable_1shot"] == 3
        check_golden("distill_pure8.json", proc.stdout)

    def test_cost_binary_golden(self, state_files):
        proc = run_cli("cost", "--state", str(state_files / "binary.json"))
        doc = json.loads(proc.stdout)
        assert doc["cost_1shot"] == 1
        check_golden("cost_binary.json", proc.stdout)

    def test_invalid_state_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "cohpure-state-1", "dim": 2, "matrix": [[[0.6,0],[0,0]],[[0,0],[0.6,0]]]}')
        for cmd in ("distill", "cost"):
            proc = run_cli(cmd, "--state", str(bad))
            assert proc.returncode == 2
            assert "trace" in proc.stderr


class TestHierarchy:
    def test_bell_golden(self, state_files):
        proc = run_cli(
            "hierarchy",
            "--state", str(state_files / "bell.json"),
            "--dims", "2,2",
            "--distance", "rel_entropy",
            "--seed", "1",
            "--restarts", "8",
            "--refine", "4",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert math.isclose(doc["hierarchy"]["purity"], 2.0, abs_tol=1e-9)
        assert math.isclose(doc["hierarchy"]["coherence_n"], 1.0, abs_tol=1e-6)
        assert math.isclose(doc["hierarchy"]["discord_upper"], 1.0, abs_tol=1e-6)
        assert doc["hierarchy"]["chain_ok"] and doc["max_hierarchy"]["ok"]
        check_golden("hierarchy_bell.json", proc.stdout)

    def test_rank_two_golden(self, tmp_path, capsys):
        # every menu distance at the benchmark's budget, and one budget
        # whose searches take three rounds of minimizations
        path = tmp_path / "r2.json"
        io.write_state(path, random_density(4, 2, stream(60)), dims=(2, 2))
        cases = [(distance, "2", "1") for distance in MENU] + [("one_minus_fidelity", "3", "2")]
        docs = {}
        for distance, restarts, refine in cases:
            assert climod.main(["hierarchy", "--state", str(path), "--dims", "2,2", "--distance", distance,
                                "--restarts", restarts, "--refine", refine, "--seed", "61"]) == 0
            docs[f"{distance} --restarts {restarts} --refine {refine}"] = json.loads(capsys.readouterr().out)
        check_golden("hierarchy_rank2.json", json.dumps(docs, indent=1) + "\n")

    @pytest.mark.parametrize("distance", MENU)
    def test_two_minimizations_per_command(self, tmp_path, capsys, monkeypatch, distance):
        # the report's candidates, the MCMS and the maximal discord search's
        # inner batch are minimized as one stack, the report's refine pass
        # as the other
        path = tmp_path / "r2.json"
        io.write_state(path, random_density(4, 2, stream(60)), dims=(2, 2))
        sizes = []
        original = simplex.minimize_diags

        def counted(mats, *args, **kwargs):
            sizes.append(len(mats))
            return original(mats, *args, **kwargs)

        monkeypatch.setattr(simplex, "minimize_diags", counted)
        monkeypatch.setattr(correlations, "minimize_diags", counted)
        assert climod.main(["hierarchy", "--state", str(path), "--dims", "2,2", "--distance", distance,
                            "--restarts", "2", "--refine", "1", "--seed", "61"]) == 0
        capsys.readouterr()
        assert sizes == [3 + 1 + 2 * 2, 2 * (4 + 4)]

    @pytest.mark.parametrize("distance,exact", [("trace_norm", 1.0), ("one_minus_fidelity", 0.5)])
    def test_bell_coherence_exact(self, state_files, distance, exact):
        # the Bell state is one 2x2 block on indices 0 and 3: a closed form
        proc = run_cli(
            "hierarchy", "--state", str(state_files / "bell.json"), "--dims", "2,2",
            "--distance", distance, "--seed", "1", "--restarts", "2", "--refine", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["hierarchy"]["coherence_n"] - exact) <= 1e-15

    def test_maximally_mixed_zeros(self, state_files, tmp_path):
        path = tmp_path / "m4.json"
        io.write_state(path, maximally_mixed(4), dims=(2, 2))
        proc = run_cli("hierarchy", "--state", str(path), "--dims", "2,2", "--seed", "0")
        doc = json.loads(proc.stdout)
        assert doc["hierarchy"]["purity"] <= 1e-9
        assert doc["max_hierarchy"]["c_max_lower"] <= 1e-9

    def test_determinism(self, state_files):
        args = ("hierarchy", "--state", str(state_files / "bell.json"), "--dims", "2,2", "--seed", "7")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_bad_dims_exit_two(self, state_files):
        proc = run_cli("hierarchy", "--state", str(state_files / "bell.json"), "--dims", "3,2")
        assert proc.returncode == 2

    @pytest.mark.parametrize("distance", MENU)
    def test_same_json_twice_in_one_process(self, tmp_path, capsys, distance):
        # the cached generator steps carry nothing from one run to the next
        path = tmp_path / "r4.json"
        io.write_state(path, random_density(4, 3, stream(8)), dims=(2, 2))
        argv = ["hierarchy", "--state", str(path), "--dims", "2,2", "--distance", distance,
                "--restarts", "2", "--refine", "3", "--seed", "5"]
        outs = []
        for _ in range(2):
            assert climod.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("distance", MENU)
    @pytest.mark.parametrize("dims", ["1,1", "1,4", "4,1"])
    def test_one_dimensional_factor(self, tmp_path, capsys, dims, distance):
        d = 1 if dims == "1,1" else 4
        path = tmp_path / "s.json"
        io.write_state(path, random_density(d, d, stream(9)))
        code = climod.main(["hierarchy", "--state", str(path), "--dims", dims, "--distance", distance,
                            "--restarts", "2", "--refine", "2", "--seed", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["hierarchy"]["chain_ok"] and doc["max_hierarchy"]["ok"]

    @pytest.mark.parametrize("distance", ["rel_entropy", "schatten_2"])
    def test_refinement_without_restarts(self, tmp_path, capsys, distance):
        # --restarts 0 scores only the fixed candidates, then climbs
        path = tmp_path / "r4.json"
        io.write_state(path, random_density(4, 3, stream(10)), dims=(2, 2))
        code = climod.main(["hierarchy", "--state", str(path), "--dims", "2,2", "--distance", distance,
                            "--restarts", "0", "--refine", "3", "--seed", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["hierarchy"]["chain_ok"]


class TestVerifyCommand:
    def test_majorization_suite_passes(self):
        proc = run_cli("verify", "--suite", "majorization", "--seed", "1", "--trials", "6")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])
        check_verify_golden("majorization", proc.stdout)

    def test_appendix_suite_passes(self):
        proc = run_cli("verify", "--suite", "appendixG", "--seed", "1", "--trials", "20")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        names = {c["name"] for c in doc["checks"]}
        assert "cnot_negativity_equals_half_l1" in names
        check_verify_golden("appendixG", proc.stdout)

    def test_axioms_suite_marks_known_negatives(self):
        proc = run_cli("verify", "--suite", "axioms", "--seed", "1", "--trials", "15")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        marked = [c for c in doc["checks"] if c["known_negative"]]
        assert marked and all(c["passed"] for c in marked)
        check_verify_golden("axioms", proc.stdout)

    def test_theorem_suites_pass_small(self):
        for suite in ("theorem1", "theorem2"):
            proc = run_cli("verify", "--suite", suite, "--seed", "1", "--trials", "5")
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["passed"] is True
            check_verify_golden(suite, proc.stdout)

    def test_unknown_suite_exit_two(self):
        proc = run_cli("verify", "--suite", "theorem3")
        assert proc.returncode == 2


class TestBloch:
    def test_golden_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        proc = run_cli("bloch", "--grid", "3", "--quantifier", "p_trace_norm", "--out", str(out))
        assert proc.returncode == 0
        check_golden("bloch_grid3_p_trace_norm.csv", out.read_text())

    def test_trace_norm_matches_euclidean_interpretation(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = run_cli("bloch", "--grid", "5", "--quantifier", "c_trace_norm", "--out", str(out))
        assert proc.returncode == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            x, y, z, v = (float(t) for t in row.split(","))
            assert abs(v - math.hypot(x, y)) <= 1e-9

    def test_purity_matches_radius(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("bloch", "--grid", "5", "--quantifier", "p_trace_norm", "--out", str(out))
        for row in out.read_text().strip().splitlines()[1:]:
            x, y, z, v = (float(t) for t in row.split(","))
            assert abs(v - math.sqrt(x * x + y * y + z * z)) <= 1e-9

    @pytest.mark.parametrize("quant", climod.BLOCH_QUANTIFIERS)
    def test_center_is_zero_everywhere(self, tmp_path, quant):
        # every quantifier vanishes at the maximally mixed state but
        # Tr rho^2, which takes its least value 1/d there
        center = 0.5 if quant == "p_linear" else 0.0
        out = tmp_path / f"{quant}.csv"
        run_cli("bloch", "--grid", "3", "--quantifier", quant, "--out", str(out))
        rows = {tuple(r.split(",")[:3]): float(r.split(",")[3]) for r in out.read_text().strip().splitlines()[1:]}
        assert abs(rows[("0.0", "0.0", "0.0")] - center) <= 1e-9

    def test_grid_too_small_exit_two(self, tmp_path):
        proc = run_cli("bloch", "--grid", "1", "--quantifier", "c_l1", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2


class TestRandom:
    def test_writes_valid_state(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli("random", "--dim", "3", "--rank", "2", "--seed", "11", "--out", str(out))
        assert proc.returncode == 0
        sf = io.read_state(out)
        assert sf.state().spectrum.rank == 2

    def test_rank_one_validates_pure(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli("random", "--dim", "4", "--rank", "1", "--seed", "2", "--out", str(out))
        rho = io.read_state(out).state()
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) <= 1e-9

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("random", "--dim", "3", "--rank", "3", "--seed", "5", "--out", str(a))
        run_cli("random", "--dim", "3", "--rank", "3", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_full_rank_spectrum(self, tmp_path):
        out = tmp_path / "f.json"
        run_cli("random", "--dim", "4", "--rank", "4", "--seed", "8", "--out", str(out))
        assert io.read_state(out).state().spectrum.rank == 4

    def test_bad_rank_exit_two(self, tmp_path):
        proc = run_cli("random", "--dim", "2", "--rank", "5", "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 2


class TestStateFileRoundTrip:
    def test_bit_identical_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        io.write_state(p1, rho)
        round1 = io.read_state(p1).matrix
        assert np.array_equal(round1, rho)
        io.write_state(p2, round1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "other", "dim": 2, "matrix": []}')
        with pytest.raises(Exception):
            io.read_state(bad)
