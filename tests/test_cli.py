import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whitneylab as w
from whitneylab.cli import run
from whitneylab.decompose import DecompositionChain


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["axes"] = tmp_path / "axes.json"
    paths["axes"].write_text(json.dumps({"dirs": [[1, 0], [0, 1]]}))
    paths["square"] = tmp_path / "square.json"
    paths["square"].write_text(json.dumps(
        {"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
         "b": [1, 1, 1, 1]}))
    paths["fn"] = tmp_path / "fn.json"
    paths["fn"].write_text(json.dumps(
        {"kind": "polynomial", "exponents": [[2, 0]], "coeffs": [1.0]}))
    # valid two-link chain: quarter-width slabs shift back into the square
    seg = w.box([0, 0], [1, 1])
    slab1 = w.box([1.0, 0], [1.25, 1])
    slab2 = w.box([1.25, 0], [1.5, 1])
    chain = DecompositionChain([seg, slab1, slab2],
                               np.array([[0.25, 0], [0.25, 0]]), 2,
                               w.direction_set([[1.0, 0.0]]), "test",
                               target=w.box([0, 0], [1.5, 1]))
    paths["chain"] = tmp_path / "chain.json"
    paths["chain"].write_text(json.dumps(chain.spec()))
    bad = DecompositionChain([seg, w.box([2, 0], [3, 1])],
                             np.array([[0.5, 0.0]]), 1,
                             w.direction_set([[1.0, 0.0]]), "test")
    paths["badchain"] = tmp_path / "badchain.json"
    paths["badchain"].write_text(json.dumps(bad.spec()))
    paths["tmp"] = tmp_path
    return paths


class TestBasisCommand:
    def test_n_basis_four(self, files, capsys):
        code = run(["basis", "--dim", "2", "--order", "2",
                    "--dirs", str(files["axes"])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_basis"] == 4
        assert payload["meta"]["tool_version"] == w.__version__
        assert "seed" in payload["meta"] and "config_hash" in payload["meta"]


class TestChainBound:
    def test_prints_five(self, files, capsys):
        code = run(["chain-bound", "--chain", str(files["chain"]),
                    "--w0", "0", "--p", "inf", "--skip-verify"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_verifies_by_default(self, files, capsys):
        code = run(["chain-bound", "--chain", str(files["badchain"]),
                    "--w0", "0", "--p", "1", "--density", "500"])
        assert code == 2


class TestCounterexampleCommand:
    def test_csv_monotone_floor(self, files, capsys):
        out = files["tmp"] / "cert.csv"
        code = run(["counterexample", "--dim", "2", "--order", "1",
                    "--eps", "0.01", "--n", "1,4,16,64", "--density", "512",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,modulus,floor,numeric_Er"
        floors = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(floors) == 4
        assert all(b > a for a, b in zip(floors, floors[1:]))

    def test_json_reports_modulus_bounded(self, files, capsys):
        code = run(["counterexample", "--dim", "2", "--order", "1",
                    "--eps", "0.01", "--n", "1,16,64", "--density", "512",
                    "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modulus_bounded"] is True
        assert [row["n"] for row in payload["rows"]] == [1, 16, 64]

    def test_lf_line_endings(self, files):
        out = files["tmp"] / "cert2.csv"
        run(["counterexample", "--dim", "2", "--order", "1", "--eps", "0.01",
             "--n", "1,4", "--density", "256", "--format", "csv",
             "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw


class TestVerifyAndXray:
    def test_verify_good_chain(self, files, capsys):
        code = run(["verify-chain", "--chain", str(files["chain"]),
                    "--density", "500"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_bad_chain_exit2(self, files, capsys):
        code = run(["verify-chain", "--chain", str(files["badchain"]),
                    "--density", "500"])
        assert code == 2

    def test_xray_square_axes_fails(self, files, capsys):
        code = run(["xray-check", "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--samples", "32"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["witnesses"]


class TestErrorPaths:
    def test_missing_file_exit1(self, capsys):
        assert run(["basis", "--dim", "2", "--order", "2",
                    "--dirs", "/nonexistent-dirs.json"]) == 1

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run(["basis", "--dim", "2", "--order", "2", "--dirs", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert ":1:" in err  # line/column diagnostics

    def test_span_deficient_exit2(self, tmp_path):
        dirs = tmp_path / "one.json"
        dirs.write_text(json.dumps({"dirs": [[1, 0]]}))
        assert run(["basis", "--dim", "2", "--order", "2",
                    "--dirs", str(dirs)]) == 2

    def test_unknown_flag_exit1(self):
        assert run(["basis", "--dim", "2", "--no-such-flag"]) == 1

    def test_bad_p_exit1(self, files):
        assert run(["modulus", "--function", str(files["fn"]),
                    "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1",
                    "--p", "-3"]) == 1


class TestReproducibility:
    def test_byte_identical_outputs(self, files):
        out1 = files["tmp"] / "a.json"
        out2 = files["tmp"] / "b.json"
        argv = ["modulus", "--function", str(files["fn"]),
                "--domain", str(files["square"]), "--dirs", str(files["axes"]),
                "--order", "2", "--p", "inf", "--density", "256", "--seed", "7"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, files):
        out1 = files["tmp"] / "c.json"
        out2 = files["tmp"] / "d.json"
        base = ["whitney-estimate", "--domain", str(files["square"]),
                "--dirs", str(files["axes"]), "--order", "2", "--p", "inf",
                "--budget", "4", "--density", "256"]
        run(base + ["--seed", "1", "--out", str(out1)])
        run(base + ["--seed", "2", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["meta"]["seed"] != b["meta"]["seed"]


class TestReport:
    def test_csv_columns(self, files):
        out = files["tmp"] / "report.csv"
        code = run(["report", "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--r-list", "1",
                    "--p-list", "inf", "--budget", "4", "--density", "256",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == [
            "domain_id", "E_id", "r", "p", "lower_bound", "upper_bound",
            "w0_assumption", "witness_spec"]
        assert len(lines) == 2


class TestDecomposeCommand:
    def test_planar_on_disk(self, tmp_path, capsys):
        dom = tmp_path / "disk.json"
        dom.write_text(json.dumps({"type": "ball", "center": [0, 0],
                                   "radius": 1.5}))
        code = run(["decompose", "--domain", str(dom), "--method", "planar",
                    "--order", "1", "--density", "500"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        back = w.chain_from_spec(payload["chain"])
        assert back.n_pieces == payload["n_pieces"]


class TestChainPipeline:
    """decompose --out writes the chain under "chain"; the chain readers take
    that file as it is."""

    @pytest.mark.parametrize("domain", [
        {"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 0, 1, 0]},
        {"type": "ball", "center": [0, 0], "radius": 1.5},
    ], ids=["unit_square", "disk"])
    def test_decompose_verify_bound_report(self, domain, files, tmp_path, capsys):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps(domain))
        chain = tmp_path / "chain.json"
        assert run(["decompose", "--domain", str(dom), "--method", "planar",
                    "--order", "1", "--out", str(chain)]) == 0
        n_pieces = json.loads(chain.read_text())["n_pieces"]

        verify = tmp_path / "verify.json"
        assert run(["verify-chain", "--chain", str(chain), "--density", "500",
                    "--out", str(verify)]) == 0
        assert json.loads(verify.read_text())["ok"] is True

        bound = tmp_path / "bound.json"
        assert run(["chain-bound", "--chain", str(chain), "--w0", "1", "--p", "1",
                    "--density", "500", "--out", str(bound)]) == 0
        payload = json.loads(bound.read_text())
        m = n_pieces - 1
        assert payload["n_links"] == m
        assert payload["value"] == pytest.approx(2.0 ** (m + 1) - 1.0, rel=1e-12)
        assert payload["log2_value"] == pytest.approx(math.log2(payload["value"]), rel=1e-12)

        report = tmp_path / "report.csv"
        assert run(["report", "--domain", str(dom), "--dirs", str(files["axes"]),
                    "--r-list", "1", "--p-list", "1", "--budget", "2",
                    "--density", "256", "--chain", str(chain), "--w0", "1",
                    "--out", str(report)]) == 0
        row = report.read_text().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(payload["value"], rel=1e-12)

    def test_file_without_chain_exit1(self, tmp_path, capsys):
        path = tmp_path / "nochain.json"
        path.write_text(json.dumps({"meta": {}, "n_pieces": 3}))
        assert run(["verify-chain", "--chain", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestSpecErrors:
    def test_ball_without_radius_exit1(self, files, tmp_path, capsys):
        dom = tmp_path / "noradius.json"
        dom.write_text(json.dumps({"type": "ball", "center": [0, 0]}))
        assert run(["xray-check", "--domain", str(dom), "--dirs", str(files["axes"])]) == 1
        err = capsys.readouterr().err
        assert str(dom) in err and "'radius'" in err

    def test_nan_radius_names_the_field(self, files, tmp_path, capsys):
        dom = tmp_path / "nan.json"
        dom.write_text('{"type": "ball", "center": [0, 0], "radius": NaN}')
        assert run(["xray-check", "--domain", str(dom), "--dirs", str(files["axes"])]) == 2
        assert "radius must be finite" in capsys.readouterr().err

    def test_unknown_domain_type_exit1(self, files, tmp_path, capsys):
        dom = tmp_path / "blob.json"
        dom.write_text(json.dumps({"type": "blob"}))
        assert run(["xray-check", "--domain", str(dom), "--dirs", str(files["axes"])]) == 1
        err = capsys.readouterr().err
        assert f"{dom}: malformed spec" in err and "'blob'" in err

    def test_unknown_function_kind_exit1(self, files, tmp_path, capsys):
        fn = tmp_path / "spline.json"
        fn.write_text(json.dumps({"kind": "spline"}))
        assert run(["modulus", "--function", str(fn), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{fn}: malformed spec" in err and "'spline'" in err

    def test_ridge_log_zero_xi_exit2(self, files, tmp_path, capsys):
        fn = tmp_path / "ridge.json"
        fn.write_text(json.dumps({"kind": "ridge_log", "n": 3, "xi": [0, 0]}))
        assert run(["modulus", "--function", str(fn), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1"]) == 2
        assert "xi must be a nonzero finite vector" in capsys.readouterr().err

    def test_direction_dimension_mismatch_exit1(self, files, tmp_path, capsys):
        dirs = tmp_path / "dirs3.json"
        dirs.write_text(json.dumps({"dirs": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        assert run(["xray-check", "--domain", str(files["square"]),
                    "--dirs", str(dirs)]) == 1
        assert str(dirs) in capsys.readouterr().err


    @pytest.mark.parametrize("exponents", [[[1.7, 0]], [[-1, 0]]], ids=["fractional", "negative"])
    def test_polynomial_exponents_must_be_nonnegative_integers(self, files, tmp_path, capsys,
                                                               exponents):
        fn = tmp_path / "poly.json"
        fn.write_text(json.dumps({"kind": "polynomial", "exponents": exponents, "coeffs": [1]}))
        assert run(["modulus", "--function", str(fn), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{fn}: malformed spec" in err and "nonnegative integers" in err


class TestOptionErrors:
    """Malformed list and vector options end in exit 1 naming the option."""

    CERT = ["counterexample", "--dim", "2", "--order", "1", "--eps", "0.01",
            "--density", "256"]

    @pytest.mark.parametrize("extra, option", [
        (["--n", "1,a"], "--n"),
        (["--n", "4", "--xi", "[1,"], "--xi"),
        (["--n", "4", "--xi", "[0, 0]"], "--xi"),
        (["--n", "4", "--xi", "[1, NaN]"], "--xi"),
        (["--n", "4", "--xi", "[1, 0, 0]"], "--xi"),
    ], ids=["n", "xi-json", "xi-zero", "xi-nan", "xi-length"])
    def test_counterexample(self, extra, option, capsys):
        assert run(self.CERT + extra) == 1
        assert option in capsys.readouterr().err

    def test_counterexample_dim_below_two(self, capsys):
        argv = ["counterexample", "--dim", "1", "--order", "1", "--eps", "0.01", "--n", "4"]
        assert run(argv) == 1
        assert "--dim" in capsys.readouterr().err

    def test_counterexample_order_zero_exit2(self, capsys):
        argv = self.CERT + ["--n", "4"]
        argv[argv.index("--order") + 1] = "0"
        assert run(argv) == 2
        assert "order r must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--r-list", "x"), ("--r-list", "1,2.5"),
                                               ("--p-list", "1,foo"), ("--p-list", "-1")])
    def test_report(self, files, option, value, capsys):
        assert run(["report", "--domain", str(files["square"]), "--dirs", str(files["axes"]),
                    option, value]) == 1
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("density", ["0", "-5", "1.5"])
    def test_density_must_be_positive(self, files, density, capsys):
        assert run(["modulus", "--function", str(files["fn"]), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1", "--density", density]) == 1
        assert "--density" in capsys.readouterr().err

    def test_report_p_list_keeps_its_text(self, files, capsys):
        assert run(["report", "--domain", str(files["square"]), "--dirs", str(files["axes"]),
                    "--r-list", "1", "--p-list", "1, inf", "--budget", "2",
                    "--density", "256", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["p"] for row in rows] == ["1", " inf"]


def test_thread_cap_applied_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["WHITNEY_LAB_THREADS"] = "1"
    src = str(Path(w.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = ("import sys, os, whitneylab; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["1", "1"]
