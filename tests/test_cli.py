import json
import math

import numpy as np
import pytest

from qmarkov.channels import random_strict_channel, random_unitary
from qmarkov.cli import main
from qmarkov.linalg import kron
from qmarkov.measures import TripartiteState, cmi_as_triple, renyi_cmi
from qmarkov.serialization import (
    load_channel,
    load_state,
    save_channel,
    save_markov_spec,
    save_state,
    save_sufficiency_spec,
)
from qmarkov.states import DensityOperator, PositiveOperator, random_density
from qmarkov.structured import (
    ChannelTriple,
    is_markov_petz,
    is_sufficient_petz,
    random_markov_spec,
    random_sufficiency_spec,
)


@pytest.fixture
def correlated_state_file(tmp_path):
    ab = np.zeros((4, 4))
    ab[0, 0] = ab[3, 3] = 0.5
    rho = DensityOperator(kron(ab, np.diag([1.0, 0.0])), (2, 2, 2))
    path = tmp_path / "corr.json"
    save_state(path, rho)
    return str(path)


@pytest.fixture
def product_state_file(tmp_path):
    parts = [random_density((2,), seed=k).matrix for k in range(3)]
    rho = DensityOperator(kron(kron(parts[0], parts[1]), parts[2]), (2, 2, 2))
    path = tmp_path / "prod.json"
    save_state(path, rho)
    return str(path)


@pytest.fixture
def identity_triple_files(tmp_path):
    rho = random_density((3,), seed=1)
    save_state(tmp_path / "rho.json", rho)
    save_state(tmp_path / "sigma.json", random_density((3,), seed=2))
    from qmarkov.channels import identity_channel
    from qmarkov.serialization import save_channel

    save_channel(tmp_path / "chan.json", identity_channel(3))
    return {
        "rho": str(tmp_path / "rho.json"),
        "sigma": str(tmp_path / "sigma.json"),
        "channel": str(tmp_path / "chan.json"),
    }


class TestCompute:
    def test_cmi_correlated(self, correlated_state_file, capsys):
        code = main(["compute", "--measure", "cmi", "--state", correlated_state_file])
        assert code == 0
        assert capsys.readouterr().out == "1.000000000000\n"

    def test_renyi_cmi_product(self, product_state_file, capsys):
        code = main(
            ["compute", "--measure", "renyi-cmi", "--alpha", "1.5",
             "--state", product_state_file]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.000000000000\n"

    def test_delta_identity(self, identity_triple_files, capsys):
        code = main(
            ["compute", "--measure", "delta", "--alpha", "1.5",
             "--rho", identity_triple_files["rho"],
             "--sigma", identity_triple_files["sigma"],
             "--channel", identity_triple_files["channel"]]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.000000000000\n"

    def test_value_matches_library(self, correlated_state_file, capsys):
        main(["compute", "--measure", "renyi-cmi", "--alpha", "0.75",
              "--state", correlated_state_file])
        printed = capsys.readouterr().out.strip()
        state = TripartiteState(load_state(correlated_state_file))
        assert printed == f"{renyi_cmi(state, 0.75, strict=False):.12f}"

    def test_nats_rescale(self, correlated_state_file, capsys):
        main(["compute", "--measure", "cmi", "--state", correlated_state_file, "--nats"])
        assert capsys.readouterr().out.strip() == f"{np.log(2.0):.12f}"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2

    def test_missing_file(self):
        assert main(["compute", "--measure", "cmi", "--state", "/nonexistent.json"]) == 2

    def test_uncertified_alpha(self, identity_triple_files):
        args = ["compute", "--measure", "delta", "--alpha", "3.0",
                "--rho", identity_triple_files["rho"],
                "--sigma", identity_triple_files["sigma"],
                "--channel", identity_triple_files["channel"]]
        assert main(args) == 2
        assert main(args + ["--allow-uncertified"]) == 0

    def test_alpha_one_rejected(self, correlated_state_file):
        assert main(["compute", "--measure", "renyi-cmi", "--alpha", "1.0",
                     "--state", correlated_state_file]) == 2

    def test_missing_alpha(self, correlated_state_file):
        assert main(["compute", "--measure", "renyi-cmi",
                     "--state", correlated_state_file]) == 2

    def test_wrong_dims_for_cmi(self, tmp_path):
        save_state(tmp_path / "flat.json", random_density((4,), seed=0))
        assert main(["compute", "--measure", "cmi",
                     "--state", str(tmp_path / "flat.json")]) == 2


def _triple_args(prefix):
    return ["--rho", f"{prefix}.rho.json", "--sigma", f"{prefix}.sigma.json",
            "--channel", f"{prefix}.channel.json"]


def _save_triple(prefix, triple):
    save_state(f"{prefix}.rho.json", triple.rho)
    save_state(f"{prefix}.sigma.json", triple.sigma)
    save_channel(f"{prefix}.channel.json", triple.channel)


# compute output on fixed inputs, pinned so that refactoring cannot move a
# printed digit: "state" is random_density((2,2,2), seed=7), "cmi" its
# cmi_as_triple files, "4to3" a seeded triple through a 4 -> 3 channel
GOLDEN = [
    ("state", "cmi", None, 0.341575478449),
    ("state", "renyi-cmi", "0.5", 0.195147899467),
    ("state", "renyi-cmi", "1.5", 0.482126627935),
    ("state", "sand-cmi", "0.75", 0.265764233942),
    ("state", "sand-cmi", "2.0", 0.548162669539),
    ("state", "imax", None, 1.296416876225),
    ("state", "imin", None, 0.173830770929),
    ("cmi", "red", None, 0.341575478449),
    ("cmi", "delta", "0.5", 0.195147899467),
    ("cmi", "delta", "1.5", 0.482126627935),
    ("cmi", "delta-tilde", "0.75", 0.265764233942),
    ("cmi", "delta-tilde", "2.0", 0.548162669539),
    ("cmi", "delta-min", None, 0.173830770929),
    ("cmi", "delta-max", None, 1.296416876225),
    ("4to3", "red", None, 3.023040576509),
    ("4to3", "delta", "0.5", 1.322561930686),
    ("4to3", "delta", "1.5", 4.772553958783),
    ("4to3", "delta-tilde", "0.75", 2.056898548491),
    ("4to3", "delta-tilde", "2.0", 5.285996439217),
    ("4to3", "delta-min", None, 1.089989768801),
    ("4to3", "delta-max", None, 6.436139751767),
]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    state = random_density((2, 2, 2), seed=7)
    save_state(d / "state.json", state)
    _save_triple(d / "cmi", cmi_as_triple(TripartiteState(state)))
    _save_triple(d / "4to3", ChannelTriple(
        rho=random_density((4,), seed=11),
        sigma=random_density((4,), seed=12),
        channel=random_strict_channel(4, 3, seed=13),
    ))
    return {
        "state": ["--state", str(d / "state.json")],
        "cmi": _triple_args(d / "cmi"),
        "4to3": _triple_args(d / "4to3"),
    }


@pytest.mark.parametrize("inputs,measure,alpha,expected", GOLDEN)
def test_golden_value(golden_inputs, capsys, inputs, measure, alpha, expected):
    argv = ["compute", "--measure", measure] + golden_inputs[inputs]
    if alpha is not None:
        argv += ["--alpha", alpha]
    assert main(argv) == 0
    assert float(capsys.readouterr().out) == pytest.approx(expected, abs=1e-12)


class TestEdgeInputs:
    def test_validated_round_off_is_evaluable(self, tmp_path, capsys):
        # load_state accepts the eigenvalue -5e-11; every measure treats it as
        # zero, so the values match those of the state with the zero restored
        u = random_unitary(8, seed=1)
        for name, tail in (("neg", -5e-11), ("zero", 0.0)):
            m = u @ np.diag([0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, tail]) @ u.conj().T
            save_state(tmp_path / f"{name}.json", DensityOperator(m, (2, 2, 2)))
        for args in (["cmi"], ["imax"], ["renyi-cmi", "--alpha", "0.5"],
                     ["sand-cmi", "--alpha", "0.75"]):
            values = []
            for name in ("neg", "zero"):
                code = main(["compute", "--state", str(tmp_path / f"{name}.json"),
                             "--measure"] + args)
                assert code == 0
                values.append(float(capsys.readouterr().out))
            assert values[0] == pytest.approx(values[1], abs=1e-8)

    @pytest.mark.parametrize("measure", ["delta", "delta-tilde"])
    def test_difference_off_the_support_exits_two(self, tmp_path, capsys, measure):
        _save_triple(tmp_path / "t", ChannelTriple(
            rho=random_density((4,), seed=1),
            sigma=PositiveOperator(np.diag([1.0, 1.0, 0.0, 0.0])),
            channel=random_strict_channel(4, 3, seed=2),
        ))
        argv = ["compute", "--measure", measure, "--alpha", "1.5"] + _triple_args(tmp_path / "t")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("entry", [(0, 1), (7, 7)])
    def test_nan_entry_exits_two(self, tmp_path, capsys, entry):
        path = tmp_path / "nan.json"
        m = np.eye(8) / 8
        m[entry] = np.nan
        path.write_text(json.dumps({
            "version": 1, "kind": "state", "dims": [2, 2, 2],
            "re": m.tolist(), "im": np.zeros((8, 8)).tolist(),
        }))
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("alpha", ["1e3", "1e6"])
    def test_large_alpha_is_finite(self, golden_inputs, capsys, alpha):
        # the sandwiched values tend to the max-CMI as alpha grows
        # (arXiv:1306.3142), and the sum of singular-value powers would overflow
        values = []
        for inputs, measure in (("state", "sand-cmi"), ("cmi", "delta-tilde")):
            argv = ["compute", "--measure", measure, "--alpha", alpha] + golden_inputs[inputs]
            assert main(argv) == 0
            values.append(float(capsys.readouterr().out))
        imax = 1.296416876225
        assert all(math.isfinite(v) and v <= imax + 1e-9 for v in values)
        if alpha == "1e6":
            assert values == pytest.approx([imax, imax], abs=1e-5)

    def test_nan_spec_weight_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        spec = json.loads(spec_path.read_text())
        spec["blocks"][0]["weight"] = float("nan")
        spec_path.write_text(json.dumps(spec))
        assert main(["generate", "--kind", "markov", "--spec", str(spec_path),
                     "--out", str(tmp_path / "markov.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_power_exits_two(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(path, random_density((2, 2, 2), seed=7))
        assert main(["compute", "--measure", "renyi-cmi", "--alpha", "1000",
                     "--allow-uncertified", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows float64" in err

    def test_infinite_alpha_exits_two(self, correlated_state_file, capsys):
        assert main(["compute", "--measure", "sand-cmi", "--alpha", "inf",
                     "--state", correlated_state_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

class TestGenerate:
    def test_random_state_deterministic(self, tmp_path):
        one, two = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["generate", "--kind", "random-state", "--dims", "2,2,2",
                     "--seed", "7", "--out", one]) == 0
        assert main(["generate", "--kind", "random-state", "--dims", "2,2,2",
                     "--seed", "7", "--out", two]) == 0
        assert open(one, "rb").read() == open(two, "rb").read()

    def test_markov_output_passes_certifier(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        out = str(tmp_path / "markov.json")
        assert main(["generate", "--kind", "markov", "--spec", str(spec_path),
                     "--out", out]) == 0
        ok, _ = is_markov_petz(TripartiteState(load_state(out)))
        assert ok

    def test_sufficiency_output_passes_certifier(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_sufficiency_spec(
            spec_path, random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=4)
        )
        prefix = str(tmp_path / "suff")
        assert main(["generate", "--kind", "sufficiency", "--spec", str(spec_path),
                     "--out", prefix]) == 0
        triple = ChannelTriple(
            rho=load_state(prefix + ".rho.json"),
            sigma=load_state(prefix + ".sigma.json", normalized=False),
            channel=load_channel(prefix + ".channel.json"),
        )
        ok, _, _ = is_sufficient_petz(triple)
        assert ok

    def test_bad_spec_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["generate", "--kind", "markov", "--spec", str(path),
                     "--out", str(tmp_path / "x.json")]) == 2


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["verify", "--suite", "limits", "--trials", "2",
                     "--seed", "5", "--json", out])
        assert code == 0
        table = capsys.readouterr().out
        assert "suite limits" in table and "PASS" in table
        payload = json.loads(open(out).read())
        assert payload["reports"][0]["all_pass"] is True

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--suite", "inequalities", "--trials", "2", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_absurd_tolerance_fails_with_one(self, capsys):
        code = main(["verify", "--suite", "characterization", "--trials", "1",
                     "--seed", "0", "--tol", "1e-18"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tol, capsys):
        code = main(["verify", "--suite", "characterization", "--trials", "1",
                     "--seed", "0", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    def test_corrupt_state_exits_two(self, tmp_path):
        path = tmp_path / "nonpsd.json"
        m = np.diag([0.8, 0.4, -0.2])
        path.write_text(json.dumps({
            "version": 1, "kind": "state", "dims": [3],
            "re": m.tolist(), "im": np.zeros((3, 3)).tolist(),
        }))
        assert main(["verify", "--trials", "1", "--state", str(path)]) == 2

    def test_valid_extra_state_included(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        save_state(path, random_density((2, 2, 2), seed=8))
        code = main(["verify", "--suite", "trace", "--trials", "1",
                     "--seed", "0", "--state", str(path)])
        assert code == 0


class TestSweep:
    def test_markov_sweep_near_zero(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        state_path = str(tmp_path / "markov.json")
        main(["generate", "--kind", "markov", "--spec", str(spec_path),
              "--out", state_path])
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--measure", "renyi-cmi", "--state", state_path,
                     "--alpha-grid", "0.25:1.75:0.25", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "alpha,value_bits"
        assert len(lines) == 8  # header + 7 grid points
        for line in lines[1:]:
            assert abs(float(line.split(",")[1])) <= 1e-8

    def test_constant_column_on_correlated_state(self, correlated_state_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
                     "--alpha-grid", "0.5:2.0:0.5", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 5
        alpha_one_row = [l for l in lines if l.startswith("1.0,")]
        assert alpha_one_row == ["1.0,1.000000000000"]
        for line in lines[1:]:
            assert line.split(",")[1] == "1.000000000000"

    def test_unix_line_endings(self, correlated_state_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
              "--alpha-grid", "0.5:0.75:0.25", "--out", out])
        raw = open(out, "rb").read()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_alpha_free_measure_rejected(self, correlated_state_file, tmp_path):
        assert main(["sweep", "--measure", "cmi", "--state", correlated_state_file,
                     "--alpha-grid", "0.5:1.5:0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_grid_rejected(self, correlated_state_file, tmp_path):
        assert main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
                     "--alpha-grid", "2.0:1.0:0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_measure(self, correlated_state_file):
        assert main(["compute", "--measure", "nope",
                     "--state", correlated_state_file]) == 2
