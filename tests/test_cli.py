"""Corpus entries and the command-line surface, including golden-file
stability for every subcommand."""

import io
import itertools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nisim import JointDistribution, maximal_correlation
from nisim import cli
from nisim.cli import build_parser, main
from nisim.corpus import alpha_component_graph, corpus_entry, examples_corpus

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("NISIM_REGEN_GOLDEN") == "1"


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def triple_path(tmp_path, run_cli):
    path = tmp_path / "triple.json"
    code, _, _ = run_cli("examples", "--name", "triple", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def dict_fn_path(tmp_path):
    path = tmp_path / "dict.json"
    path.write_text(
        '{"n": 1, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]}, '
        '"values": [1.0, -1.0]}'
    )
    return str(path)


@pytest.fixture
def dsbs_path(tmp_path, run_cli):
    path = tmp_path / "dsbs49.json"
    run_cli("examples", "--name", "dsbs:0.49", "--out", str(path))
    return str(path)


@pytest.fixture
def dsbs_file(tmp_path, run_cli):
    def make(rho):
        path = tmp_path / f"dsbs_{rho}.json"
        code, _, _ = run_cli("examples", "--name", f"dsbs:{rho}", "--out", str(path))
        assert code == 0
        return str(path)

    return make


@pytest.fixture
def anti_target_path(tmp_path):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"probs": [[0.0, 0.5], [0.5, 0.0]]}))
    return str(path)


def _function_json(**fields):
    """The dense dictator function file with ``fields`` replaced; ``...`` drops a key."""
    d = {"n": 1, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]},
         "values": [1.0, -1.0], **fields}
    return json.dumps({k: v for k, v in d.items() if v is not ...})


TERNARY = {"atoms": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}

# malformed contents of valid JSON (or of a non-UTF-8 file), one entry per file:
# the subcommand that reads it and the file text
MALFORMED = {
    "target_probs_string": ("target", '{"probs": "x"}'),
    "target_probs_object": ("target", '{"probs": {"a": 1}}'),
    "target_probs_strings": ("target", '{"probs": [["a", "b"], ["c", "d"]]}'),
    "target_top_level_list": ("target", '[["a", "b"], ["c", "d"]]'),
    "target_probs_nan": ("target", '{"probs": [NaN, 0.5, 0.25, 0.25]}'),
    "function_n_string": ("function", _function_json(n="abc")),
    "function_n_null": ("function", _function_json(n=None)),
    "function_n_fraction": ("function", _function_json(n=1.7)),
    "function_n_negative": ("function", _function_json(n=-1, values=..., coeffs={})),
    "function_coeff_key": ("function", _function_json(values=..., coeffs={"x": 1.0})),
    "function_coeffs_list": ("function", _function_json(values=..., coeffs=[])),
    # q = 2, n = 2: keys lie in [0, 4)
    "function_coeff_key_range": ("function", _function_json(n=2, values=..., coeffs={"9": 1.0})),
    # keys are ASCII digit strings, and no two of them name the same coefficient
    "function_coeff_key_underscore": (
        "function", _function_json(n=3, values=..., coeffs={"0_3": 1.0, "5": 0.5})),
    "function_coeff_key_spaces": (
        "function", _function_json(n=3, values=..., coeffs={" 5 ": 0.5})),
    "function_coeff_key_arabic_digit": (
        "function", _function_json(n=3, values=..., coeffs={"\u0663": 0.25})),
    "function_coeff_key_plus": ("function", _function_json(n=3, values=..., coeffs={"+1": 0.1})),
    "function_coeff_key_twice": (
        "function", _function_json(n=3, values=..., coeffs={"3": 1.0, "03": 0.5})),
    # past Python's 4300-digit limit on int(str)
    "function_coeff_key_long": (
        "function", _function_json(n=3, values=..., coeffs={"1" * 5000: 0.5})),
    "function_values_string": ("function", _function_json(values="ab")),
    "function_values_nan": ("function", _function_json(values=[float("nan"), 1.0])),
    "function_space_number": ("function", _function_json(space=5)),
    # 3^3000000 values: rejected against the cell cap before the power is formed
    "function_n_huge_values": ("function", _function_json(n=3_000_000, space=TERNARY)),
    "function_n_huge_coeffs": (
        "function", _function_json(n=3_000_000, space=TERNARY, values=..., coeffs={"0": 1.0})),
    # one atom: 1^70 = 1 cell fits the cap, but n = 70 is past the bound on n
    "function_one_atom_n_huge": (
        "function", _function_json(n=70, space={"atoms": ["a"], "probs": [1.0]}, values=[1.0])),
    "function_atoms_number": (
        "function", _function_json(space={"atoms": 7, "probs": [0.5, 0.5]})),
    "dist_row_atoms_number": (
        "dist", '{"row_atoms": 5, "col_atoms": ["a", "b"], "probs": [[0.5, 0], [0, 0.5]]}'),
    "dist_probs_string": ("dist", '{"row_atoms": ["a", "b"], "col_atoms": ["a", "b"], '
                                  '"probs": "x"}'),
    "not_utf8": ("dist", b"\xff\xfe{}"),
}


def write_malformed(root: Path, name: str) -> str:
    path = root / f"{name}.json"
    text = MALFORMED[name][1]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def run_python(code: str, *args: str, **env) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports nisim from src/,
    with ``env`` over this process's environment (a None value unsets)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env)
    env = {k: v for k, v in env.items() if v is not None}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


# the command behind each golden file; {name} fields name golden_argv's input files
GOLDEN_RUNS = {
    "maxcorr_triple.json": ["maxcorr", "{triple}"],
    "bounds_triple.json": ["bounds", "--dist", "{triple}"],
    "fourier_dictator.json": [
        "fourier", "{dictator}", "--report", "mean,var,influences,tail:0,degree"],
    "regularity_dictator.json": ["regularity", "{dictator}", "--d", "1", "--tau", "0.3", "--exact"],
    "n0_triple_03.json": ["n0", "--dist", "{triple}", "--delta", "0.3"],
    "decide_triple_02.json": [
        "decide", "--dist", "{triple}", "--target", "dsbs:0.2", "--delta", "0.5", "--n", "1"],
    "decide_dsbs3_ceiling.json": [
        "decide", "--dist", "{dsbs3}", "--target", "dsbs:0.31", "--delta", "0.001", "--n", "2"],
    "decide_dsbs5_bounded.json": [
        "decide", "--dist", "{dsbs5}", "--target", "dsbs:0.66", "--delta", "0.05", "--n", "2"],
    "decide_dsbs5_anti_accept.json": [
        "decide", "--dist", "{dsbs5}", "--target", "{anti}", "--delta", "0.2", "--n", "1"],
    "decide_dsbs5_anti_ceiling.json": [
        "decide", "--dist", "{dsbs5}", "--target", "{anti}", "--delta", "0.05", "--n", "1"],
    "simulate_dsbs49.json": [
        "simulate", "--dist", "{dsbs49}", "--f", "{dictator}", "--g", "{dictator}",
        "--samples", "2000", "--seed", "5", "--target", "dsbs:0.49", "--force-mc",
        "--threads", "1"],
    "examples_alpha25.json": ["examples", "--name", "alpha:0.25"],
}
KERNEL_OUTPUTS = Path(__file__).with_name("kernel_outputs.py")


@pytest.fixture
def golden_argv(triple_path, dict_fn_path, dsbs_file, dsbs_path, anti_target_path):
    """The argv of a golden file's command, on this test's input files."""
    paths = {"triple": triple_path, "dictator": dict_fn_path, "dsbs3": dsbs_file("0.3"),
             "dsbs5": dsbs_file("0.5"), "dsbs49": dsbs_path, "anti": anti_target_path}
    return lambda name: [arg.format(**paths) for arg in GOLDEN_RUNS[name]]


@pytest.fixture
def run_golden(run_cli, golden_argv):
    """Run a golden file's command and compare its stdout with the file."""
    return lambda name: check_golden(name, run_cli(*golden_argv(name))[1])


def check_golden(name: str, text: str):
    """Compare with a stored golden; NISIM_REGEN_GOLDEN=1 writes it instead."""
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
    assert path.exists(), f"missing golden {name}; NISIM_REGEN_GOLDEN=1 writes it"
    assert text == path.read_text(), f"golden mismatch for {name}"


class TestCorpus:
    def test_triple_entry(self):
        t = corpus_entry("triple")
        assert maximal_correlation(t).rho == pytest.approx(0.5, abs=1e-9)

    def test_alpha_graph_perfect_component(self):
        g = alpha_component_graph(0.25)
        assert maximal_correlation(g).rho == pytest.approx(1.0, abs=1e-9)
        # component masses
        low = g.table[:6, :6].sum()
        assert low == pytest.approx(0.75, abs=1e-12)

    def test_dsbs_round_trip_bit_exact(self):
        d = corpus_entry("dsbs:0.49")
        assert JointDistribution.from_json(d.to_json()).to_json() == d.to_json()

    def test_bundle_parses(self):
        for name, dist in examples_corpus().items():
            assert dist.table.sum() == pytest.approx(1.0)

    def test_unknown_name(self):
        from nisim.errors import InputError

        with pytest.raises(InputError):
            corpus_entry("nope")


class TestCliBasics:
    def test_examples_writes_valid_distribution(self, run_cli, tmp_path):
        out = tmp_path / "t.json"
        code, stdout, _ = run_cli("examples", "--name", "triple", "--out", str(out))
        assert code == 0
        dist = JointDistribution.from_json(out.read_text())
        assert dist.shape == (2, 2)

    def test_examples_list(self, run_cli):
        code, out, _ = run_cli("examples", "--list")
        assert code == 0
        assert "triple" in out

    def test_maxcorr_output(self, run_cli, triple_path):
        code, out, _ = run_cli("maxcorr", triple_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["nisim_format"] == 1
        assert payload["rho"] == pytest.approx(0.5, abs=1e-9)
        assert set(payload) >= {"rho", "dsbs_lower", "dsbs_upper", "f", "g"}

    def test_bounds_output(self, run_cli, triple_path):
        code, out, _ = run_cli("bounds", "--dist", triple_path)
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(1 / 3, abs=1e-9)
        assert payload["upper"] == pytest.approx(0.5, abs=1e-9)

    def test_decide_small_delta_uses_probe(self, run_cli, triple_path):
        code, out, _ = run_cli(
            "decide", "--dist", triple_path, "--target", "dsbs:0.26",
            "--delta", "0.01", "--n", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "ACCEPT"
        assert payload["thresholds"]["search_mode"] == "oracle_probe"

    def test_simulate_reports_tv(self, run_cli, dsbs_path, dict_fn_path):
        code, out, _ = run_cli(
            "simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
            "--samples", "1000", "--seed", "3", "--target", "dsbs:0.49",
        )
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert payload["corr_fg"] == pytest.approx(0.49, abs=1e-12)
        assert payload["tv_to_target"] == pytest.approx(0.0, abs=1e-12)

    def test_n0_output(self, run_cli, triple_path):
        code, out, _ = run_cli("n0", "--dist", triple_path, "--delta", "0.2")
        payload = json.loads(out)
        assert payload["w"] == 8100
        assert payload["d"] == 49898

    def test_n0_small_h_is_an_exact_integer_sum(self, run_cli, triple_path):
        code, out, _ = run_cli("n0", "--dist", triple_path, "--delta", "0.5",
                               "--constants", "C_smooth=1000,C_tau=0.001")
        payload = json.loads(out)
        assert (payload["h"], payload["w"], payload["n0"]) == (3496, 1296, 4792)
        assert payload["h_log10"] == pytest.approx(math.log10(3496), abs=1e-12)

    @pytest.mark.parametrize("args", [
        ["--delta", "1e-155"], ["--delta", "1e-200"],
        ["--delta", "0.3", "--constants", "C_tau=1e308"],
        ["--delta", "0.3", "--constants", "C_be=1e308"],
    ])
    def test_n0_counts_beyond_float_range_are_domain_errors(self, run_cli, triple_path, args):
        code, out, err = run_cli("n0", "--dist", triple_path, *args)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "float range" in err

    @pytest.mark.parametrize("target, args", [
        ("dsbs:0.2", ["--delta", "0.3", "--constants", "C_tau=1e308"]),
        ("dsbs:0.9", ["--delta", "1e-200"]),
    ])
    def test_decide_reports_n0_domain_errors(self, run_cli, triple_path, target, args):
        code, out, _ = run_cli("decide", "--dist", triple_path, "--target", target,
                               "--report-n0", *args)
        assert code == 0
        assert "float range" in json.loads(out)["n0"]["error"]

    def test_exit_codes(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli("maxcorr", str(bad))
        assert code == 1
        assert "error:" in err and "\n" == err[-1]
        with pytest.raises(SystemExit) as exc:
            main(["unknown-subcommand"])
        assert exc.value.code == 2

    def test_missing_file(self, run_cli):
        code, _, err = run_cli("maxcorr", "/nonexistent/d.json")
        assert code == 1

    def test_decide_with_target_file_case_two(self, run_cli, tmp_path, dsbs_path):
        target = tmp_path / "anti.json"
        target.write_text(json.dumps({"probs": [[0.0, 0.5], [0.5, 0.0]]}))
        p49 = dsbs_path
        code, out, _ = run_cli(
            "decide", "--dist", p49, "--target", str(target), "--delta", "0.2", "--n", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["thresholds"]["case"] == "II"
        assert payload["decision"] == "ACCEPT"

    def test_decide_negative_dsbs_target_routes_to_case_two(self, run_cli, dsbs_path):
        code, out, _ = run_cli(
            "decide", "--dist", dsbs_path, "--target", "dsbs:-0.3",
            "--delta", "0.45", "--n", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["thresholds"]["case"] == "II"

    def test_fourier_coefficient_form_input(self, run_cli, tmp_path):
        fn = tmp_path / "parity.json"
        fn.write_text(
            '{"n": 2, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]}, '
            '"coeffs": {"3": 1.0}}'
        )
        code, out, _ = run_cli("fourier", str(fn), "--report", "var,degree,tail:1")
        payload = json.loads(out)
        assert payload["var"] == pytest.approx(1.0)
        assert payload["degree"] == 2
        assert payload["tail_mass_above_1"] == pytest.approx(1.0)

    @pytest.mark.parametrize("value, mean", [(0.75, "0.75"), (0.0, "0.0")])
    def test_fourier_constant_function_output(self, run_cli, tmp_path, value, mean):
        fn = tmp_path / "const.json"
        fn.write_text(_function_json(n=2, values=[value] * 4))
        code, out, _ = run_cli("fourier", str(fn), "--report", "mean,var,degree,influences")
        assert code == 0
        assert out == (
            '{\n  "degree": 0,\n  "influences": [\n    0.0,\n    0.0\n  ],\n'
            f'  "mean": {mean},\n  "n": 2,\n  "nisim_format": 1,\n  "q": 2,\n'
            '  "total_influence": 0.0,\n  "var": 0\n}\n'
        )

    def test_regularity_monte_carlo_mode(self, run_cli, dict_fn_path):
        code, out, _ = run_cli(
            "regularity", dict_fn_path, "--d", "1", "--tau", "0.3",
            "--mc", "500", "--seed", "7",
        )
        payload = json.loads(out)
        assert payload["regular_probability"]["mode"] == "monte_carlo"
        assert payload["seed"] == 7

    def test_regularity_exact_and_mc_are_exclusive(self, dict_fn_path):
        with pytest.raises(SystemExit) as exc:
            main(["regularity", dict_fn_path, "--d", "1", "--tau", "0.3",
                  "--exact", "--mc", "500"])
        assert exc.value.code == 2

    def test_paper_grid_deep_decide_exits_cleanly(self, run_cli, triple_path):
        # depth 6 at delta 0.02 weighs 49,999 ** 128 grid pairs against the cap
        code, out, err = run_cli(
            "decide", "--dist", triple_path, "--target", "dsbs:0.45",
            "--delta", "0.02", "--n", "6",
        )
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        assert json.loads(out)["reason"] == "bounded-depth"

    def test_decide_past_the_depth_caps_reports_depths_searched(self, run_cli, dsbs_file):
        code, out, err = run_cli(
            "decide", "--dist", dsbs_file("0.5"), "--target", "dsbs:0.66",
            "--delta", "0.05", "--n", "10",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["decision"], payload["sound"]) == ("REJECT", False)
        assert payload["reason"] == "bounded-depth"
        assert payload["n_used"] == 9
        assert "tensor table needs 4^10 cells" in payload["caveat"]

    def test_simulate_threads(self, run_cli, dsbs_path, dict_fn_path):
        code, out, _ = run_cli(
            "simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
            "--samples", "4000", "--seed", "2", "--force-mc", "--threads", "2",
        )
        payload = json.loads(out)
        assert payload["n_samples"] == 4000
        assert abs(payload["corr_fg"] - 0.49) < 0.05

    def test_malformed_target_rejected(self, run_cli, dsbs_path, tmp_path):
        code, _, err = run_cli(
            "decide", "--dist", dsbs_path, "--target", "dsbs:abc",
            "--delta", "0.5", "--n", "1",
        )
        assert code == 1 and "correlation" in err
        bad = tmp_path / "bad_target.json"
        bad.write_text("{oops")
        code, _, err = run_cli(
            "decide", "--dist", dsbs_path, "--target", str(bad),
            "--delta", "0.5", "--n", "1",
        )
        assert code == 1 and "JSON" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_contents_are_domain_errors(self, run_cli, tmp_path, dsbs_path, name):
        path = write_malformed(tmp_path, name)
        argv = {"target": ["decide", "--dist", dsbs_path, "--target", path, "--delta", "0.5"],
                "function": ["fourier", path],
                "dist": ["maxcorr", path]}[MALFORMED[name][0]]
        code, _, err = run_cli(*argv)
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("kind, probs, fault", [
        ("dist", [[0.5, 0.5], [0.5]], "must be a rectangular array"),
        ("target", [[0.5, 0.5], [0.5]], "must be a rectangular array"),
        ("target", [["a", "b"], ["c", "d"]], "must be finite numbers"),
        ("target", [[0.5, None], [0.25, 0.25]], "must be finite numbers"),
        ("target", [[float("nan"), 0.5], [0.25, 0.25]], "must be finite numbers"),
    ])
    def test_probs_errors_name_the_fault(self, run_cli, tmp_path, dsbs_path, kind, probs, fault):
        path = tmp_path / "probs.json"
        if kind == "dist":
            path.write_text(json.dumps({"row_atoms": ["a", "b"], "col_atoms": ["a", "b"],
                                        "probs": probs}))
            argv = ["maxcorr", str(path)]
        else:
            path.write_text(json.dumps({"probs": probs}))
            argv = ["decide", "--dist", dsbs_path, "--target", str(path), "--delta", "0.5"]
        code, _, err = run_cli(*argv)
        assert code == 1 and err.startswith("error:") and fault in err

    def test_decide_grid_beyond_memory_cap(self, run_cli, triple_path):
        argv = ["decide", "--dist", triple_path, "--delta", "0.00001", "--target"]
        code, _, err = run_cli(*argv, "dsbs:0.2")
        assert code == 1 and err.startswith("error:") and "memory cap" in err
        # a ceiling rejection never builds the grid
        code, out, _ = run_cli(*argv, "dsbs:0.9")
        assert code == 0 and json.loads(out)["reason"] == "maximal-correlation-ceiling"

    def test_unknown_constant_rejected(self, run_cli, triple_path):
        code, _, err = run_cli(
            "n0", "--dist", triple_path, "--delta", "0.3",
            "--constants", "C_nope=2",
        )
        assert code == 1
        assert "unknown constant" in err

    def test_regularity_rejects_nonpositive_sample_count(self, run_cli, dict_fn_path):
        code, _, err = run_cli(
            "regularity", dict_fn_path, "--d", "2", "--tau", "0.1", "--mc", "-5",
        )
        assert code == 1 and "sample" in err

    def test_regularity_rejects_a_zero_sample_count(self, run_cli, dict_fn_path):
        code, out, err = run_cli(
            "regularity", dict_fn_path, "--d", "2", "--tau", "0.1", "--mc", "0",
        )
        assert code == 1 and out == "" and "sample" in err and "0" in err

    @pytest.mark.parametrize("item", ["tail:x", "tail:"])
    def test_fourier_rejects_unparsable_tail_degree(self, run_cli, dict_fn_path, item):
        code, _, err = run_cli("fourier", dict_fn_path, "--report", item)
        assert code == 1 and item in err

    def test_negative_seed_is_a_usage_error(self, dsbs_path, dict_fn_path):
        for argv in (
            ["simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
             "--samples", "100", "--force-mc", "--seed", "-1"],
            ["regularity", dict_fn_path, "--d", "1", "--tau", "0.3", "--mc", "10",
             "--seed", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_cli_runs_leave_scipy_unloaded(self, dsbs_path, dict_fn_path):
        # a fresh interpreter: this suite imports scipy elsewhere
        code = (
            "import contextlib, io, sys\n"
            "from nisim.cli import main\n"
            "d, f = sys.argv[1:]\n"
            "runs = [['decide', '--dist', d, '--target', 'dsbs:0.3', '--delta', '0.3',\n"
            "         '--n', '2', '--report-n0'],\n"
            "        ['simulate', '--dist', d, '--f', f, '--g', f, '--samples', '2000',\n"
            "         '--force-mc', '--target', 'dsbs:0.49'],\n"
            "        ['fourier', f]]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in runs]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert run_python(code, dsbs_path, dict_fn_path).strip() == "[0, 0, 0] []"

    def test_malformed_constants_rejected(self, run_cli, triple_path):
        for text in ("C_smooth=abc", "C_tau=nan", "C_be=0"):
            code, _, err = run_cli("n0", "--dist", triple_path, "--delta", "0.3",
                                   "--constants", text)
            assert code == 1 and "C_" in err

    def test_directory_as_input_file(self, run_cli, tmp_path):
        code, _, err = run_cli("maxcorr", str(tmp_path))
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("callee, argv, message", [
        ("restriction_regular_probability", ["regularity", "{f}", "--d", "1", "--tau", "0.3",
                                             "--mc", "10000000000000"],
         "Unable to allocate 9.09 TiB for an array"),
        ("estimate_strategy_stats", ["simulate", "--dist", "{d}", "--f", "{f}", "--g", "{f}",
                                     "--samples", "1000000000000000", "--force-mc"], ""),
    ])
    def test_memory_errors_exit_1_with_one_line(self, run_cli, monkeypatch, dsbs_path,
                                                dict_fn_path, callee, argv, message):
        # the callee raises as a refused allocation would: numpy names the
        # request, a list too long for the host raises a bare MemoryError
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, callee, refuse)
        argv = [a.format(d=dsbs_path, f=dict_fn_path) for a in argv]
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message or 'out of memory'}\n"

    def test_simulate_stdout_is_thread_invariant(self, run_cli, dsbs_path, dict_fn_path):
        # 150000 samples span three Monte Carlo chunks
        argv = ["simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
                "--samples", "150000", "--seed", "8", "--force-mc"]
        outs = {run_cli(*argv, "--threads", t)[1] for t in ("1", "2", "3")}
        assert len(outs) == 1 and json.loads(outs.pop())["n_samples"] == 150000

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_is_a_usage_error(self, run_cli, dsbs_path, dict_fn_path,
                                                  threads):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
                    "--samples", "100", "--threads", threads)
        assert exc.value.code == 2

    def test_simulate_defaults_to_one_thread(self, run_cli, dsbs_path, dict_fn_path):
        argv = ["simulate", "--dist", dsbs_path, "--f", dict_fn_path, "--g", dict_fn_path,
                "--samples", "5000", "--seed", "4", "--force-mc"]
        code, default_out, _ = run_cli(*argv)
        assert code == 0
        assert run_cli(*argv, "--threads", "1")[1] == default_out

    def test_missing_golden_fails_with_its_name(self, monkeypatch):
        monkeypatch.setitem(globals(), "REGEN", False)
        with pytest.raises(AssertionError, match="no_such_golden.json"):
            check_golden("no_such_golden.json", "{}")
        assert not (GOLDEN_DIR / "no_such_golden.json").exists()

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, triple_path):
        runs = [["no-such-command"], ["maxcorr", triple_path],
                ["decide", "--dist", triple_path, "--target", "dsbs:0.3", "--delta", "0.3"]]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        in_turn = [call(argv) for argv in runs]
        fresh = []
        for argv in runs:
            cli._parser.cache_clear()
            fresh.append(call(argv))
        assert [code for code, _, _ in in_turn] == [2, 0, 0]
        assert in_turn == fresh

    def test_help_lists_spec_flags(self):
        parser = build_parser()
        helps = []
        for action in parser._subparsers._group_actions[0].choices.values():
            helps.append(action.format_help())
        text = "\n".join(helps)
        for flag in (
            "--dist", "--target", "--delta", "--n", "--report-n0", "--constants",
            "--samples", "--seed", "--f", "--g", "--d", "--tau", "--exact",
            "--mc", "--report", "--name", "--threads", "--out", "--list",
        ):
            assert flag in text, f"missing flag {flag} in help"


class TestGoldenOutputs:
    """Byte-stable outputs for fixed inputs and seeds."""

    def test_maxcorr_golden(self, run_golden):
        run_golden("maxcorr_triple.json")

    def test_bounds_golden(self, run_golden):
        run_golden("bounds_triple.json")

    def test_outputs_ignore_blas_kernel_and_simd_dispatch(self, golden_argv):
        """Every golden command and a seeded library corpus
        (``kernel_outputs.py``) print the same bytes under three OpenBLAS
        kernels, one BLAS thread and numpy's AVX-512 mask as by default."""
        from numpy._core._multiarray_umath import __cpu_features__

        envs = {}
        if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
            envs = {kernel: {"OPENBLAS_CORETYPE": kernel}
                    for kernel in ("Haswell", "Prescott", "Sandybridge")}
            envs["one BLAS thread"] = {"OPENBLAS_NUM_THREADS": "1"}
        masked = [f for f in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if __cpu_features__.get(f)]
        if masked:
            envs["numpy mask"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(masked)}
        if not envs:
            pytest.skip("numpy reports neither OpenBLAS nor AVX-512 features to mask")
        assert sorted(GOLDEN_RUNS) == sorted(p.name for p in GOLDEN_DIR.glob("*.json"))
        runs = json.dumps([[name, golden_argv(name)] for name in GOLDEN_RUNS])
        code = KERNEL_OUTPUTS.read_text(encoding="utf-8")
        unset = {"OPENBLAS_CORETYPE": None, "OPENBLAS_NUM_THREADS": None,
                 "NPY_DISABLE_CPU_FEATURES": None}
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = {label: pool.submit(run_python, code, runs, **dict(unset, **env))
                       for label, env in [("default", {}), *envs.items()]}
        outputs = {label: json.loads(future.result()) for label, future in futures.items()}
        for out in outputs.values():
            # the ceiling is the source's rho from LAPACK's SVD (ROADMAP item 10)
            exit_code, text = out["cli"]["decide_dsbs3_ceiling.json"]
            verdict = json.loads(text)
            del verdict["thresholds"]["ceiling"]
            out["cli"]["decide_dsbs3_ceiling.json"] = [exit_code, verdict]
        default = outputs.pop("default")
        assert all(exit_code == 0 for exit_code, _ in default["cli"].values())
        moved = {label: [name for name in GOLDEN_RUNS if out["cli"][name] != default["cli"][name]]
                 + [f"corpus[{i}]" for i, (a, b) in enumerate(zip(out["corpus"], default["corpus"]))
                    if a != b]
                 for label, out in outputs.items()}
        assert moved == {label: [] for label in envs}

    def test_fourier_golden(self, run_golden):
        run_golden("fourier_dictator.json")

    def test_regularity_golden(self, run_golden):
        run_golden("regularity_dictator.json")

    def test_n0_golden(self, run_golden):
        run_golden("n0_triple_03.json")

    def test_decide_golden(self, run_golden):
        run_golden("decide_triple_02.json")

    def test_decide_balanced_ceiling_reject_golden(self, run_golden):
        run_golden("decide_dsbs3_ceiling.json")

    def test_decide_balanced_bounded_depth_golden(self, run_golden):
        run_golden("decide_dsbs5_bounded.json")

    def test_decide_case_two_probe_accept_golden(self, run_golden):
        run_golden("decide_dsbs5_anti_accept.json")

    def test_decide_case_two_ceiling_reject_golden(self, run_golden):
        run_golden("decide_dsbs5_anti_ceiling.json")

    def test_simulate_golden(self, run_golden):
        run_golden("simulate_dsbs49.json")

    def test_examples_golden(self, run_golden):
        run_golden("examples_alpha25.json")


# valid contents of each kind of file the CLI reads: fuzz inputs, and the
# documents the mutation test starts from
VALID_DOCS = {
    "dist": [
        {"row_atoms": ["0", "1"], "col_atoms": ["0", "1"],
         "probs": [[1 / 3, 1 / 3], [1 / 3, 0.0]]},
        {"row_atoms": ["a", "b", "c"], "col_atoms": ["x", "y"],
         "probs": [[0.2, 0.1], [0.1, 0.2], [0.15, 0.25]]},
    ],
    "function": [
        {"n": 1, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]}, "values": [1.0, -1.0]},
        {"n": 2, "space": {"atoms": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
         "values": [1, -1, 1, -1, 1, -1, 1, 1, -1]},
        {"n": 2, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]}, "coeffs": {"3": 1.0}},
    ],
    "target": [{"probs": [[0.0, 0.5], [0.5, 0.0]]}, {"probs": [[0.4, 0.1], [0.1, 0.4]]}],
}


# -- argument-vector fuzzing --------------------------------------------------

NUMBERS = ["0", "1", "2", "-1", "-5", "0.5", "nan", "inf", "abc", ""]
DELTAS = ["0.3", "0.5", "0.7", "0", "-0.3", "1.5", "nan", "inf", "abc", "1e-155", "1e-200"]
SEEDS = ["0", "3", "-1", "abc"]
CONSTANTS = ["C_smooth=2", "C_tau=1,C_be=3", "C_be=abc", "C_tau=nan", "C_smooth=-1",
             "C_nope=1", "bogus", "C_tau=1e308", "C_be=1e308"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Input paths (every kind of file the CLI reads, a broken file, the malformed
    contents of ``MALFORMED``, a directory, a missing path) and output paths;
    outputs never overwrite an input."""
    root = tmp_path_factory.mktemp("fuzz")
    with redirect_stdout(io.StringIO()):
        for name, spec in (("triple.json", "triple"), ("dsbs.json", "dsbs:0.49")):
            assert main(["examples", "--name", spec, "--out", str(root / name)]) == 0
    dict_fn, tri2, parity = (json.dumps(doc) for doc in VALID_DOCS["function"])
    files = {"dict.json": dict_fn, "tri2.json": tri2, "parity.json": parity,
             "anti.json": json.dumps(VALID_DOCS["target"][0]), "broken.json": "{oops"}
    for name, text in files.items():
        (root / name).write_text(text)
    names = ["triple.json", "dsbs.json", *files]
    inputs = [str(root / n) for n in names] + [str(root), str(root / "missing.json")]
    inputs += [write_malformed(root, name) for name in sorted(MALFORMED)]
    outputs = [str(root / "out.json"), str(root), str(root / "no_dir" / "out.json")]
    return inputs, outputs


def _argv(draw, paths):
    """One argument vector for a drawn subcommand, flags in drawn order."""
    inputs, outputs = paths
    path = st.sampled_from(inputs)
    targets = st.sampled_from(["dsbs:0.3", "dsbs:-0.3", "dsbs:0.9", "dsbs:nan", "dsbs:2",
                               "dsbs:abc"]) | path
    command = draw(st.sampled_from(
        ["maxcorr", "bounds", "fourier", "regularity", "n0", "decide", "simulate", "examples"]))
    # simulate always names its sample count, so no example falls back to 10^6 samples
    samples = st.sampled_from(["1000", "2000"] + NUMBERS)
    leading = {"maxcorr": [path], "fourier": [path], "regularity": [path],
               "simulate": [st.just("--samples"), samples]}
    options = {
        "bounds": {"--dist": path},
        "fourier": {"--report": st.lists(st.sampled_from(
            ["influences", "mean", "var", "degree", "tail:0", "tail:1", "tail:-1", "tail:x",
             "tail:", "bogus"]), min_size=1, max_size=3).map(",".join)},
        "regularity": {"--d": st.sampled_from(["1", "2", "3", "0", "-1", "abc"]),
                       "--tau": st.sampled_from(["0.3", "0.1", "0.9", "1.5", "0", "-0.2",
                                                 "nan", "abc"]),
                       "--exact": None,
                       "--mc": st.sampled_from(["10", "500", "2000", "0", "-5", "abc"]),
                       "--seed": st.sampled_from(SEEDS)},
        "n0": {"--dist": path, "--delta": st.sampled_from(DELTAS),
               "--constants": st.sampled_from(CONSTANTS)},
        "decide": {"--dist": path, "--target": targets, "--delta": st.sampled_from(DELTAS),
                   "--n": st.sampled_from(["1", "2", "0", "-1", "abc"]), "--report-n0": None,
                   "--constants": st.sampled_from(CONSTANTS)},
        "simulate": {"--dist": path, "--f": path, "--g": path,
                     "--seed": st.sampled_from(SEEDS), "--target": targets,
                     "--force-mc": None, "--threads": st.sampled_from(["1", "2", "0", "-1",
                                                                        "abc"])},
        "examples": {"--name": st.sampled_from(["triple", "dsbs:0.3", "dsbs:nan", "dsbs:2",
                                                "alpha:0.25", "alpha:0", "alpha:nan", "nope"]),
                     "--out": st.sampled_from(outputs), "--list": None},
        "maxcorr": {},
    }[command]
    argv = [command] + [draw(arg) for arg in leading.get(command, [])]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else []:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(st.one_of(options[flag], st.sampled_from(NUMBERS))))
    return argv


HUGE = "1" + "0" * 400  # an integer beyond float range
# per subcommand: (flag, or None for a positional; valid values, or None for a switch;
# invalid values; required).  "@name" stands for fuzz_paths' file name, "@" for its directory.
FILES = ["@broken.json", "@missing.json", "@", "@anti.json", "@function_n_negative.json"]
RUNNABLE = {
    "maxcorr": [(None, ["@triple.json", "@dsbs.json"], FILES + ["@dict.json"], True)],
    "bounds": [("--dist", ["@triple.json", "@dsbs.json"], FILES, True)],
    "fourier": [(None, ["@dict.json", "@tri2.json", "@parity.json"], FILES + ["@dsbs.json"], True),
                ("--report", ["mean,var,influences", "degree,tail:1", "influences,tail:0"],
                 ["tail:x", "tail:-1", "bogus", "mean,,var"], False)],
    "regularity": [(None, ["@dict.json", "@tri2.json"], FILES + ["@parity.json"], True),
                   ("--d", ["1", "2"], ["0", "-1", "abc", "1.5", HUGE], True),
                   ("--tau", ["0.3", "0.1"], ["0", "1.5", "-0.2", "nan", "inf"], True),
                   ("--mc", ["10", "500"], ["0", "-5"], False),
                   ("--seed", ["0", "3"], ["-1"], False)],
    "n0": [("--dist", ["@triple.json", "@dsbs.json"], FILES, True),
           ("--delta", ["0.3", "0.5", "0.7"], DELTAS, True),
           ("--constants", ["C_smooth=2", "C_tau=1,C_be=3"], CONSTANTS, False)],
    "decide": [("--dist", ["@triple.json", "@dsbs.json"], FILES, True),
               ("--target", ["dsbs:0.3", "dsbs:-0.3", "dsbs:0.9", "@anti.json"],
                ["dsbs:nan", "dsbs:2", "dsbs:abc", *FILES], True),
               ("--delta", ["0.3", "0.5", "0.7"], DELTAS, True),
               ("--n", ["1", "2"], ["0", "-1"], False),
               ("--report-n0", None, [], False),
               ("--constants", ["C_smooth=2", "C_tau=1,C_be=3"], CONSTANTS, False)],
    "simulate": [("--samples", ["1000", "2000"], ["0", "-1"], True),
                 ("--dist", ["@dsbs.json"], FILES + ["@triple.json"], True),
                 ("--f", ["@dict.json"], FILES + ["@parity.json", "@tri2.json"], True),
                 ("--g", ["@dict.json"], FILES + ["@parity.json"], True),
                 ("--seed", ["0", "3"], ["-1"], False),
                 ("--target", ["dsbs:0.3", "@anti.json"], ["dsbs:2", *FILES], False),
                 ("--force-mc", None, [], False),
                 ("--threads", ["1", "2", "100000"], ["0", "-1"], False)],
    "examples": [("--name", ["triple", "dsbs:0.3", "alpha:0.25"],
                  ["dsbs:nan", "dsbs:2", "alpha:0", "nope"], True),
                 ("--out", ["@out.json"], ["@", "@no_dir/out.json"], False)],
}


@st.composite
def runnable_argvs(draw):
    """(command, argv): every required flag and a drawn subset of the optional
    ones with valid values, and at most one slot's value redrawn from its
    invalid values or ``NUMBERS``, so most examples reach the computation.
    ``--out`` draws no ``NUMBERS``: outputs stay inside the fuzz directory."""
    command = draw(st.sampled_from(sorted(RUNNABLE)))
    slots = [slot for slot in RUNNABLE[command] if slot[3] or draw(st.booleans())]
    mutated = draw(st.sampled_from([None, *range(len(slots))]))
    argv = [command]
    for k, (flag, valid, invalid, _) in enumerate(slots):
        argv += [flag] if flag else []
        if valid is not None:
            bad = invalid if flag == "--out" else invalid + NUMBERS
            argv.append(draw(st.sampled_from(bad if k == mutated else valid)))
    return command, argv


class TestCliFuzz:
    def test_runnable_argv_with_one_mutated_value_exits_cleanly(self, fuzz_paths):
        # the any-argv fuzz almost never gets past argument checks; these
        # examples mostly do, so a crash inside a computation shows
        root = Path(fuzz_paths[0][0]).parent
        exits = {command: set() for command in RUNNABLE}

        @example(("regularity", ["regularity", "@dict.json", "--d", HUGE, "--tau", "0.3"]))
        @given(case=runnable_argvs())
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def run(case):
            command, argv = case
            argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), argv
            exits[command].add(code)

        run()
        assert all(0 in codes for codes in exits.values()), exits

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_argv_exits_cleanly(self, fuzz_paths, data):
        argv = _argv(data.draw, fuzz_paths)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv

    def test_every_chain_input_exits_cleanly(self, fuzz_paths):
        # the argument-vector fuzz almost never draws a runnable n0 or decide, so every
        # delta and constants it can draw also runs through the chain on a valid source
        triple = fuzz_paths[0][0]
        for delta, constants in itertools.product(DELTAS, CONSTANTS):
            common = ["--dist", triple, "--delta", delta, "--constants", constants]
            for argv in (["n0", *common],
                         ["decide", *common, "--target", "dsbs:0.2", "--report-n0"]):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                assert code in (0, 1, 2), argv


# -- mutated input files --------------------------------------------------------


def _list_paths(node, path=()):
    """The key/index path of every JSON array inside ``node``."""
    if isinstance(node, list):
        yield path
        items = enumerate(node)
    elif isinstance(node, dict):
        items = node.items()
    else:
        return
    for key, child in items:
        yield from _list_paths(child, path + (key,))


@st.composite
def mutated_docs(draw):
    """(kind, document): a valid document with one to three of its arrays
    mutated by a negative entry, a rescale that breaks a sum, or a dropped or
    repeated entry (lengths that disagree, a wrong-length ``values``, ragged rows)."""
    kind = draw(st.sampled_from(sorted(VALID_DOCS)))
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS[kind]))))
    for _ in range(draw(st.integers(1, 3))):
        seq = doc
        for key in draw(st.sampled_from(list(_list_paths(doc)))):
            seq = seq[key]
        op = draw(st.sampled_from(["negative", "rescale", "drop", "repeat"]))
        i = draw(st.integers(0, len(seq) - 1)) if seq else None
        numeric = [j for j, v in enumerate(seq) if isinstance(v, (int, float))]
        if op == "negative" and numeric:
            seq[draw(st.sampled_from(numeric))] = -draw(st.sampled_from([1e-9, 0.1, 0.5]))
        elif op == "rescale":
            factor = draw(st.sampled_from([0.0, 0.5, 1.0 + 1e-6, 2.0]))
            for j in numeric:
                seq[j] *= factor
        elif op == "drop" and i is not None:
            del seq[i]
        elif op == "repeat" and i is not None:
            seq.insert(i, json.loads(json.dumps(seq[i])))
    return kind, doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """A directory holding one valid file of each kind, for the other inputs."""
    root = tmp_path_factory.mktemp("mutated")
    for kind, docs in VALID_DOCS.items():
        (root / f"valid_{kind}.json").write_text(json.dumps(docs[0]))
    return root


class TestMutatedFiles:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mutated_valid_files_exit_cleanly(self, mutation_dir, data):
        kind, doc = data.draw(mutated_docs())
        path = mutation_dir / "mutated.json"
        path.write_text(json.dumps(doc))
        p, d, f = str(path), *(str(mutation_dir / f"valid_{k}.json") for k in ("dist", "function"))
        decide = ["decide", "--delta", "0.5", "--n", "1"]
        simulate = ["simulate", "--samples", "1000", "--target", "dsbs:0.3"]
        argv = data.draw(st.sampled_from({
            "dist": [["maxcorr", p], decide + ["--dist", p, "--target", "dsbs:0.3"],
                     simulate + ["--dist", p, "--f", f, "--g", f]],
            "function": [["fourier", p, "--report", "mean,var,influences"],
                         simulate + ["--dist", d, "--f", p, "--g", f]],
            "target": [decide + ["--dist", d, "--target", p],
                       ["simulate", "--samples", "1000", "--dist", d, "--f", f, "--g", f,
                        "--target", p]],
        }[kind]))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, doc)
