import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whitneylab as w
from whitneylab.cli import run
from whitneylab.decompose import DecompositionChain

from conftest import thin_band_chain


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["axes"] = tmp_path / "axes.json"
    paths["axes"].write_text(json.dumps({"dirs": [[1, 0], [0, 1]]}))
    paths["square"] = tmp_path / "square.json"
    paths["square"].write_text(json.dumps(
        {"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
         "b": [1, 1, 1, 1]}))
    paths["disk"] = tmp_path / "disk.json"
    paths["disk"].write_text(json.dumps({"type": "ball", "center": [0, 0], "radius": 1.0}))
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

    @pytest.mark.parametrize("skip", [True, False])
    def test_skipped_verification_is_said_on_stderr(self, files, capsys, skip):
        argv = ["chain-bound", "--chain", str(files["chain"]), "--w0", "0", "--p", "inf",
                "--density", "500"]
        assert run(argv + (["--skip-verify"] if skip else [])) == 0
        out, err = capsys.readouterr()
        assert out == "5\n"
        assert ("verification: skipped" in err) == skip

    def test_verifies_by_default(self, files, capsys):
        code = run(["chain-bound", "--chain", str(files["badchain"]),
                    "--w0", "0", "--p", "1", "--density", "500"])
        assert code == 2

    def test_unsampled_piece_fails_verification(self, tmp_path):
        path = tmp_path / "band.json"
        path.write_text(json.dumps(thin_band_chain().spec()))
        assert run(["chain-bound", "--chain", str(path), "--w0", "0", "--p", "1",
                    "--density", "500"]) == 2

    # the fixture chain's boxes shift back onto earlier boxes: the vertex test settles it
    @pytest.mark.parametrize("skip,label", [(True, "skipped"), (False, "exact")])
    def test_reports_verification(self, files, skip, label):
        out = files["tmp"] / "bound.json"
        argv = ["chain-bound", "--chain", str(files["chain"]), "--w0", "0", "--p", "inf",
                "--density", "500", "--out", str(out)]
        assert run(argv + (["--skip-verify"] if skip else [])) == 0
        payload = json.loads(out.read_text())
        assert payload["verification"] == label and payload["value"] == 5.0
        csv_out = files["tmp"] / "bound.csv"
        assert run(argv[:-1] + [str(csv_out), "--format", "csv"]
                   + (["--skip-verify"] if skip else [])) == 0
        header, row = csv_out.read_text().splitlines()
        assert header == "value,closed_form,w0,verification"
        assert row.split(",")[-1] == label


    @pytest.mark.parametrize("method, extra, skip, label", [
        ("lip2", ["--delta", "0.9"], False, "construction"),
        ("planar", [], False, "sampled"),
        ("lip2", ["--delta", "0.9"], True, "skipped"),
    ])
    def test_reports_how_a_built_chain_was_verified(self, files, method, extra, skip, label):
        chain = files["tmp"] / "built.json"
        assert run(["decompose", "--domain", str(files["disk"]), "--method", method,
                    "--dirs", str(files["axes"]), *extra, "--out", str(chain)]) == 0
        argv = ["chain-bound", "--chain", str(chain), "--w0", "1", "--p", "inf",
                "--density", "500"] + (["--skip-verify"] if skip else [])
        out = files["tmp"] / "bound.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["verification"] == label
        csv_out = files["tmp"] / "bound.csv"
        assert run(argv + ["--out", str(csv_out), "--format", "csv"]) == 0
        assert csv_out.read_text().splitlines()[1].split(",")[-1] == label


class TestCoverageGate:
    """A chain whose one piece [0, 1]^2 covers half of its target [0, 2] x [0, 1]:
    its shifts pass, its coverage does not."""

    @pytest.fixture()
    def half(self, files):
        chain = DecompositionChain([w.box([0, 0], [1, 1])], np.zeros((0, 2)), 1,
                                   w.direction_set([[1.0, 0.0], [0.0, 1.0]]), "test",
                                   target=w.box([0, 0], [2, 1]))
        path = files["tmp"] / "half.json"
        path.write_text(json.dumps(chain.spec()))
        return path

    def test_verify_chain_exits_2_with_its_payload(self, files, half, capsys):
        assert run(["verify-chain", "--chain", str(half)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["worst_violation"] == 0.0
        assert payload["coverage_miss_rate"] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("command", ["chain-bound", "report"])
    def test_bound_commands_refuse_the_chain(self, files, half, command, capsys):
        argv = ["chain-bound", "--p", "inf"] if command == "chain-bound" else \
            ["report", "--domain", str(files["square"]), "--dirs", str(files["axes"]),
             "--r-list", "1", "--p-list", "inf", "--budget", "4", "--density", "256"]
        assert run(argv + ["--chain", str(half), "--w0", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.search(r"chain misses 0\.50\d* of its target", err), err

    def test_decompose_reports_the_coverage_in_verified(self, files, monkeypatch, capsys):
        monkeypatch.setattr(w.decompose, "COVERAGE_MISS_MAX", -1.0)
        assert run(["decompose", "--domain", str(files["square"]), "--method", "planar"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False and payload["worst_violation"] == 0.0

    def test_report_marks_a_contradicted_w0(self, files):
        # the lower bound on the unit square exceeds the bound w0 = 0.01 gives
        square = files["tmp"] / "unit.json"
        square.write_text(json.dumps(w.box([0, 0], [1, 1]).spec()))
        chain = files["tmp"] / "unit_chain.json"
        assert run(["decompose", "--domain", str(square), "--method", "planar",
                    "--out", str(chain)]) == 0
        assert json.loads(chain.read_text())["n_pieces"] == 1
        out = files["tmp"] / "report.csv"
        argv = ["report", "--domain", str(square), "--dirs", str(files["axes"]),
                "--r-list", "1", "--p-list", "inf", "--budget", "4", "--density", "1024",
                "--chain", str(chain), "--out", str(out)]
        assert run(argv + ["--w0", "0.01"]) == 0
        row = dict(zip(*csv.reader(out.read_text().splitlines())))
        assert float(row["lower_bound"]) > float(row["upper_bound"]) == 0.01
        assert row["w0_assumption"] == "w0=0.01 contradicted"
        assert run(argv + ["--w0", "10"]) == 0
        assert dict(zip(*csv.reader(out.read_text().splitlines())))["w0_assumption"] == "w0=10"


class TestWhitneyEstimateCommand:
    def test_perturbed_basis_witness_replays(self, files):
        out = files["tmp"] / "estimate.json"
        argv = ["whitney-estimate", "--domain", str(files["square"]), "--dirs",
                str(files["axes"]), "--order", "2", "--family", "perturbed_basis",
                "--budget", "6", "--density", "512", "--seed", "7", "--out", str(out)]
        assert run(argv) == 0
        witness = json.loads(out.read_text())["witness"]
        f = w.function_from_spec(witness["function"], 2)
        dom = w.domain_from_spec(json.loads(files["square"].read_text()))
        dirs = w.direction_set([[1, 0], [0, 1]])
        ratio = w.whitney_ratio(f, dom, w.sample_plan(dom, 512, seed=7), dirs,
                                w.build_basis(2, 2, dirs), 2, math.inf)
        assert ratio == pytest.approx(witness["ratio"], rel=1e-12)


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

    def test_lip2_chain_file_verifies_by_construction(self, files, capsys):
        # the chain read back from its file has the slices of the built one,
        # so verify-chain proves them and samples nothing
        out = files["tmp"] / "lip2.json"
        assert run(["decompose", "--domain", str(files["disk"]), "--method", "lip2",
                    "--dirs", str(files["axes"]), "--delta", "0.9", "--out", str(out)]) == 0
        built = json.loads(out.read_text())
        assert (built["verified"], built["method"]) == (True, "construction")
        assert run(["verify-chain", "--chain", str(out), "--density", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["ok"], payload["method"], payload["n_sampled"]) == (True, "construction", 0)

    def test_verify_bad_chain_exit2(self, files, capsys):
        code = run(["verify-chain", "--chain", str(files["badchain"]),
                    "--density", "500"])
        assert code == 2

    def test_xray_disk_one_axis_fails(self, files, tmp_path, capsys):
        # rays along +/- e1 are tangent to the disk at (0, +/-1) and never enter it
        e1 = tmp_path / "e1.json"
        e1.write_text(json.dumps({"dirs": [[1, 0]]}))
        argv = ["--domain", str(files["disk"]), "--dirs", str(e1)]
        assert run(["xray-check", *argv]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert sorted(np.round(np.abs(payload["witnesses"]), 12).tolist()) == [[0, 1], [0, 1]]
        assert run(["decompose", *argv, "--method", "xray"]) == 2
        assert "does not x-ray" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, shift, dirs, top", [
        ([[2, 0], [0, 1]], [0, 0], [[1, 0]], [0, 1]),
        ([[2, 0], [0, 1]], [0, 0], [[1, 0], [0, 1]], None),
        ([[2, 1], [0.5, 1]], [0.5, -0.25], [[1, 0]], [2 / 1.25 ** 0.5, 1.25 ** 0.5])])
    def test_xray_ellipse_is_exact(self, tmp_path, matrix, shift, dirs, top, capsys):
        # an ellipse, like a disk, is x-rayed exactly when the directions span;
        # otherwise no ray along them enters it from its highest and lowest
        # points, s +/- M M^T e2 / |M^T e2|
        dom, dirs_path = tmp_path / "ellipse.json", tmp_path / "dirs.json"
        dom.write_text(json.dumps({"type": "affine_image", "matrix": matrix, "shift": shift,
                                   "base": {"type": "ball", "center": [0, 0], "radius": 1.0}}))
        dirs_path.write_text(json.dumps({"dirs": dirs}))
        code = run(["xray-check", "--domain", str(dom), "--dirs", str(dirs_path)])
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["ok"]) == ((0, True) if top is None else (2, False))
        if top is not None:
            want = [np.add(shift, top), np.subtract(shift, top)]
            assert np.allclose(payload["witnesses"][-2:], want, rtol=0, atol=1e-12)

    def test_xray_nested_image_is_exact(self, tmp_path, capsys):
        # the identity image of the diag(2, 1) ellipse: the images compose
        # down to the disk, so (0, +/-1) are witnesses as for the ellipse
        ellipse = {"type": "affine_image", "matrix": [[2, 0], [0, 1]], "shift": [0, 0],
                   "base": {"type": "ball", "center": [0, 0], "radius": 1.0}}
        dom, dirs_path = tmp_path / "nested.json", tmp_path / "e1.json"
        dom.write_text(json.dumps({"type": "affine_image", "matrix": [[1, 0], [0, 1]],
                                   "shift": [0, 0], "base": ellipse}))
        dirs_path.write_text(json.dumps({"dirs": [[1, 0]]}))
        code = run(["xray-check", "--domain", str(dom), "--dirs", str(dirs_path)])
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["ok"]) == (2, False)
        assert np.allclose(payload["witnesses"][-2:], [[0, 1], [0, -1]], rtol=0, atol=1e-12)

    def test_xray_square_axes_fails(self, files, capsys):
        code = run(["xray-check", "--domain", str(files["square"]),
                    "--dirs", str(files["axes"])])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert sorted(payload["witnesses"]) == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_xray_two_dimensional_cone_body_axes_fail(self, files, tmp_path, capsys):
        # a 2-d cone body is a triangle, and two directions never x-ray one:
        # no ray along +/- e1 or +/- e2 enters at either cap corner
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "cone_body", "xi": [0, 1], "eps": 0.3}))
        assert run(["xray-check", "--domain", str(cone), "--dirs", str(files["axes"])]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        corner = math.sqrt(1.0 - 0.7 ** 2) / 0.7
        assert np.allclose(sorted(payload["witnesses"]), [[-corner, 1.0], [corner, 1.0]],
                           rtol=0, atol=1e-12)

    def test_xray_two_dimensional_cone_body_three_directions_pass(self, tmp_path, capsys):
        cone, dirs = tmp_path / "cone.json", tmp_path / "dirs.json"
        cone.write_text(json.dumps({"type": "cone_body", "xi": [0, 1], "eps": 0.3}))
        dirs.write_text(json.dumps({"dirs": [[0, 1], [1, 0.5], [1, -0.5]]}))
        assert run(["xray-check", "--domain", str(cone), "--dirs", str(dirs)]) == 0
        assert json.loads(capsys.readouterr().out)["witnesses"] == []

    @pytest.mark.parametrize("spec, dirs, name", [
        ({"type": "union", "parts": [{"type": "ball", "center": [0, 0], "radius": 1},
                                     {"type": "ball", "center": [1, 0], "radius": 1}]},
         [[1, 0], [0, 1]], "2-d union"),
        ({"type": "intersection", "parts": [{"type": "ball", "center": [0, 0], "radius": 1},
                                            {"type": "ball", "center": [1, 0], "radius": 1}]},
         [[1, 0], [0, 1]], "2-d intersection"),
        ({"type": "cone_body", "xi": [0, 0, 1], "eps": 0.3}, np.eye(3).tolist(),
         "3-d cone_body")])
    def test_xray_without_closed_form_exit2(self, tmp_path, spec, dirs, name, capsys):
        dom, dirs_path = tmp_path / "dom.json", tmp_path / "dirs.json"
        dom.write_text(json.dumps(spec))
        dirs_path.write_text(json.dumps({"dirs": dirs}))
        assert run(["xray-check", "--domain", str(dom), "--dirs", str(dirs_path)]) == 2
        assert f"a {name} has no half-space form" in capsys.readouterr().err


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

    def test_chain_order_outside_r_list_is_config_error(self, files, monkeypatch, capsys):
        chain = files["tmp"] / "planar.json"
        assert run(["decompose", "--domain", str(files["square"]), "--method", "planar",
                    "--order", "1", "--out", str(chain)]) == 0

        def no_verify(*args, **kw):
            raise AssertionError("the chain was verified before the order check")

        monkeypatch.setattr(w.decompose, "verify_chain", no_verify)
        code = run(["report", "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--r-list", "2", "--p-list", "inf",
                    "--budget", "4", "--density", "256", "--chain", str(chain),
                    "--w0", "nan", "--out", str(files["tmp"] / "report.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "r=1" in err and "--r-list 2" in err


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

    def test_empty_direction_set_exit2(self, files, tmp_path, capsys):
        dirs = tmp_path / "none.json"
        dirs.write_text(json.dumps({"dirs": []}))
        assert run(["xray-check", "--domain", str(files["square"]), "--dirs", str(dirs)]) == 2
        assert "empty direction set" in capsys.readouterr().err

    def test_ridge_log_zero_xi_exit2(self, files, tmp_path, capsys):
        fn = tmp_path / "ridge.json"
        fn.write_text(json.dumps({"kind": "ridge_log", "n": 3, "xi": [0, 0]}))
        assert run(["modulus", "--function", str(fn), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1"]) == 2
        assert "xi must be a nonzero finite vector" in capsys.readouterr().err

    def test_direction_whose_norm_overflows_exit2(self, files, tmp_path, capsys):
        # divided by its infinite norm, the first direction would become (0, 0)
        dirs = tmp_path / "huge.json"
        dirs.write_text(json.dumps({"dirs": [[1e200, 1e200], [0, 1]]}))
        with np.errstate(over="ignore"):
            assert run(["modulus", "--function", str(files["fn"]), "--domain",
                        str(files["square"]), "--dirs", str(dirs), "--order", "1",
                        "--density", "256"]) == 2
        assert "norm overflows" in capsys.readouterr().err

    def test_flat_domain_exit2(self, files, tmp_path, capsys):
        # a segment: its bounding box has extent -0.0 along y
        seg = tmp_path / "segment.json"
        seg.write_text(json.dumps({"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                   "b": [1, 0, 0, 0]}))
        assert run(["whitney-estimate", "--domain", str(seg), "--dirs", str(files["axes"]),
                    "--order", "1", "--density", "64"]) == 2
        err = capsys.readouterr().err
        assert "domain is flat" in err and "along axis 1" in err

    def test_disjoint_intersection_xray_exit2(self, files, tmp_path, capsys):
        # disjoint unit disks: no closed form decides an intersection's x-ray
        # verdict, so it stops at once, naming the representation
        lens = tmp_path / "lens.json"
        lens.write_text(json.dumps({"type": "intersection", "parts": [
            {"type": "ball", "center": [0, 0], "radius": 1},
            {"type": "ball", "center": [3, 0], "radius": 1}]}))
        assert run(["xray-check", "--domain", str(lens), "--dirs", str(files["axes"])]) == 2
        assert "a 2-d intersection has no half-space form" in capsys.readouterr().err

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
        (["--n", "-1"], "--n"),
        (["--n", ","], "--n"),
        (["--n", "4", "--xi", "[1,"], "--xi"),
        (["--n", "4", "--xi", "[0, 0]"], "--xi"),
        (["--n", "4", "--xi", "[1, NaN]"], "--xi"),
        (["--n", "4", "--xi", "[1, 0, 0]"], "--xi"),
    ], ids=["n", "n-negative", "n-empty", "xi-json", "xi-zero", "xi-nan", "xi-length"])
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

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command, extra", [
        ("whitney-estimate", ["--order", "1"]), ("report", ["--r-list", "1"])])
    def test_budget_must_be_positive(self, files, command, extra, budget, capsys):
        assert run([command, "--domain", str(files["square"]), "--dirs", str(files["axes"]),
                    *extra, "--budget", budget, "--density", "256"]) == 1
        assert "--budget" in capsys.readouterr().err

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


class TestBadValues:
    """Out-of-range option and chain values end in exit 1 or 2 naming the option or
    field, not in a traceback or a label that is not true."""

    @pytest.mark.parametrize("method, extra", [
        ("star", []), ("planar", []), ("lip2", ["--delta", "1.0"]), ("xray", [])])
    def test_decompose_order_zero_exit2(self, files, method, extra, capsys):
        assert run(["decompose", "--domain", str(files["disk"]), "--method", method, "--order", "0",
                    "--dirs", str(files["axes"]), *extra]) == 2
        assert "order r must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify-chain"], ["chain-bound", "--w0", "1"],
                                      ["chain-bound", "--w0", "1", "--skip-verify"]],
                             ids=["verify-chain", "chain-bound", "chain-bound-skip"])
    def test_chain_file_order_zero_exit2(self, files, argv, capsys):
        spec = json.loads(files["chain"].read_text())
        spec["r"] = 0
        path = files["tmp"] / "r0.json"
        path.write_text(json.dumps(spec))
        assert run([*argv, "--chain", str(path), "--density", "200"]) == 2
        assert "order r must be at least 1" in capsys.readouterr().err

    def test_xray_negative_n0_exit2(self, files, capsys):
        assert run(["decompose", "--domain", str(files["disk"]), "--method", "xray",
                    "--dirs", str(files["axes"]), "--n0", "-2"]) == 2
        assert "n0 must be nonnegative" in capsys.readouterr().err

    def test_xray_n0_above_the_cap_exit2(self, files, capsys):
        assert run(["decompose", "--domain", str(files["disk"]), "--method", "xray",
                    "--dirs", str(files["axes"]), "--n0", "40"]) == 2
        assert "n0 must be nonnegative and at most 12, got 40" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify-chain"], ["chain-bound", "--w0", "1", "--p", "1"]],
                             ids=["verify-chain", "chain-bound"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_chain_file_non_finite_shift_exit2(self, files, argv, bad, capsys):
        spec = json.loads(files["chain"].read_text())
        spec["shifts"][-1] = [bad, 0.0]
        path = files["tmp"] / "bad_shift.json"
        path.write_text(json.dumps(spec))
        assert run([*argv, "--chain", str(path), "--density", "200"]) == 2
        assert "shift 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [1.5, 0.5, True])
    def test_chain_file_order_must_be_an_integer(self, files, r, capsys):
        spec = json.loads(files["chain"].read_text())
        spec["r"] = r
        path = files["tmp"] / "r.json"
        path.write_text(json.dumps(spec))
        assert run(["verify-chain", "--chain", str(path), "--density", "200"]) == 1
        err = capsys.readouterr().err
        assert "malformed spec" in err and f"'r' must be an integer, got {r!r}" in err

    def test_chain_file_shift_of_another_dimension_exit1(self, files, capsys):
        spec = json.loads(files["chain"].read_text())
        spec["shifts"] = [[0.25, 0.0, 0.0], [0.25, 0.0, 0.0]]
        path = files["tmp"] / "wide.json"
        path.write_text(json.dumps(spec))
        assert run(["verify-chain", "--chain", str(path), "--density", "200"]) == 1
        assert "a shift has 3 entries, the pieces 2" in capsys.readouterr().err

    def test_one_piece_chain_file_with_a_shift_exit2(self, files, capsys):
        spec = json.loads(files["chain"].read_text())
        spec["pieces"], spec["shifts"] = spec["pieces"][:1], [[0.1, 0.0]]
        path = files["tmp"] / "one_piece.json"
        path.write_text(json.dumps(spec))
        assert run(["verify-chain", "--chain", str(path), "--density", "200"]) == 2
        assert "one shift per piece after the first" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "ridge_log", "n": 2.7, "xi": [0.0, 1.0]}, "n"),
        ({"kind": "ridge_log", "n": True, "xi": [0.0, 1.0]}, "n"),
        ({"kind": "random_poly", "degree": True, "seed": 1}, "degree"),
        ({"kind": "random_poly", "degree": 2, "seed": True}, "seed")],
        ids=["ridge-n-2.7", "ridge-n-true", "random-degree-true", "random-seed-true"])
    def test_function_integers_must_be_integers(self, files, spec, field, capsys):
        fn = files["tmp"] / "fn_int.json"
        fn.write_text(json.dumps(spec))
        assert run(["modulus", "--function", str(fn), "--domain", str(files["square"]),
                    "--dirs", str(files["axes"]), "--order", "1"]) == 1
        err = capsys.readouterr().err
        assert "malformed spec" in err
        assert f"{field!r} must be an integer, got {spec[field]!r}" in err

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_lip2_delta_must_be_positive_and_finite(self, files, delta, capsys):
        assert run(["decompose", "--domain", str(files["disk"]), "--method", "lip2",
                    "--dirs", str(files["axes"]), "--delta", delta]) == 2
        assert "delta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["modulus", "approx", "whitney-estimate", "report",
                                         "chain-bound"])
    def test_p_nan_is_config_error(self, files, command, capsys):
        problem = ["--domain", str(files["square"]), "--dirs", str(files["axes"])]
        argv = {"modulus": ["--function", str(files["fn"]), *problem, "--order", "1",
                            "--p", "nan"],
                "approx": ["--function", str(files["fn"]), *problem, "--order", "1",
                           "--p", "nan"],
                "whitney-estimate": [*problem, "--order", "1", "--budget", "2", "--p", "nan"],
                "report": [*problem, "--r-list", "1", "--budget", "2", "--p-list", "nan"],
                "chain-bound": ["--chain", str(files["chain"]), "--w0", "1", "--p", "nan"]}
        assert run([command, *argv[command], "--density", "256"]) == 1
        assert "p must be positive, got 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, p", [("chain-bound", "nan"), ("approx", "0"),
                                            ("modulus", "-1")])
    def test_p_is_parsed_before_any_work(self, files, command, p, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --p was parsed")
        monkeypatch.setattr(w.decompose, "verify_chain", no_work)
        monkeypatch.setattr(w.geometry, "sample_plan", no_work)
        monkeypatch.setattr(w.polyspace, "build_basis", no_work)
        problem = ["--function", str(files["fn"]), "--domain", str(files["square"]),
                   "--dirs", str(files["axes"]), "--order", "1"]
        argv = {"chain-bound": ["--chain", str(files["chain"]), "--w0", "1"],
                "approx": problem, "modulus": problem}
        assert run([command, *argv[command], "--p", p, "--density", "256"]) == 1
        assert f"p must be positive, got {p!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, p", [("approx", "inf"), ("approx", "1"),
                                            ("approx", "0.5"), ("approx", "2"),
                                            ("modulus", "1")])
    def test_non_finite_function_values_exit2(self, files, command, p, capsys):
        # 1e308 x^2 overflows wherever |x| > 1 on [-2, 2]^2
        fn = files["tmp"] / "overflow.json"
        fn.write_text(json.dumps({"kind": "polynomial", "exponents": [[2, 0]],
                                  "coeffs": [1e308]}))
        big = files["tmp"] / "big_square.json"
        big.write_text(json.dumps({"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                   "b": [2, 2, 2, 2]}))
        with np.errstate(over="ignore"):
            code = run([command, "--function", str(fn), "--domain", str(big), "--dirs",
                        str(files["axes"]), "--order", "2", "--p", p, "--density", "256"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert re.search(r"function values are not finite at \d+ of 256 plan points", err)

    @pytest.mark.parametrize("coeff, code", [(1e15, 0), (1e20, 2), (1e200, 2)])
    def test_inf_fit_values_too_large_for_the_lp_exit2(self, files, coeff, code, capsys):
        # c x on [-2, 2]^2 reaches about 2c on the plan; HiGHS reads a bound of
        # 1e20 or more as infinite, which made the p=inf fit a "Model error"
        fn = files["tmp"] / "huge.json"
        fn.write_text(json.dumps({"kind": "polynomial", "exponents": [[1, 0]],
                                  "coeffs": [coeff]}))
        big = files["tmp"] / "big_square.json"
        big.write_text(json.dumps({"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                   "b": [2, 2, 2, 2]}))
        assert run(["approx", "--function", str(fn), "--domain", str(big), "--dirs",
                    str(files["axes"]), "--order", "1", "--p", "inf", "--density", "256"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "did not converge" not in err
            assert re.search(r"largest \|f\| on the plan is \d\.\d+e\+\d+; the minimax "
                             r"linear program needs values below 1e\+20", err)
        else:
            assert json.loads(out)["error"] > 1e15

    @pytest.mark.parametrize("side, code", [(1e7, 0), (1e8, 2)])
    def test_inf_fit_design_too_large_for_the_lp_exit2(self, files, side, code, capsys):
        # the order-2 basis holds xy, which reaches about side^2 on the plan;
        # HiGHS rejects a matrix entry of 1e15 or more, which made the p=inf
        # fit a "Model error"
        fn = files["tmp"] / "x.json"
        fn.write_text(json.dumps({"kind": "polynomial", "exponents": [[1, 0]],
                                  "coeffs": [1.0]}))
        big = files["tmp"] / "big_square.json"
        big.write_text(json.dumps({"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                                   "b": [side] * 4}))
        assert run(["approx", "--function", str(fn), "--domain", str(big), "--dirs",
                    str(files["axes"]), "--order", "2", "--p", "inf", "--density", "256"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "did not converge" not in err
            assert re.search(r"largest \|design-matrix entry\| on the plan is \d\.\d+e\+15; "
                             r"the minimax linear program needs entries below 1e\+15", err)
        else:
            assert json.loads(out)["error"] < 1e-6 * side

    MODULUS = ["modulus", "--order", "1", "--density", "256"]

    @pytest.mark.parametrize("matrix, shift", [([[2, 0], [0, 1]], [0.5]),
                                               (np.eye(3).tolist(), [0, 0, 0]),
                                               ([2, 1], [0, 0])])
    def test_affine_image_shapes_must_match_the_base(self, files, matrix, shift, capsys):
        # the one-entry shift used to broadcast in the bounding box and end the
        # first membership test in an IndexError
        dom = files["tmp"] / "ellipse.json"
        dom.write_text(json.dumps({"type": "affine_image", "matrix": matrix, "shift": shift,
                                   "base": json.loads(files["disk"].read_text())}))
        assert run(self.MODULUS + ["--function", str(files["fn"]), "--domain", str(dom),
                                   "--dirs", str(files["axes"])]) == 1
        err = capsys.readouterr().err
        assert f"{dom}: malformed spec" in err and "2x2 matrix and 2 shift entries" in err

    @pytest.mark.parametrize("kind", ["union", "intersection"])
    def test_parts_of_mixed_dimension_are_a_config_error(self, files, kind, capsys):
        dom = files["tmp"] / "mixed.json"
        dom.write_text(json.dumps({"type": kind, "parts": [
            {"type": "ball", "center": [0, 0], "radius": 1.0},
            {"type": "ball", "center": [0, 0, 0], "radius": 1.0}]}))
        assert run(self.MODULUS + ["--function", str(files["fn"]), "--domain", str(dom),
                                   "--dirs", str(files["axes"])]) == 1
        err = capsys.readouterr().err
        assert f"{dom}: malformed spec" in err and "share one dimension" in err
        assert "dimensions [2, 3]" in err

    @pytest.mark.parametrize("t", ["0", "nan", "inf"])
    def test_modulus_t_must_be_positive_and_finite(self, files, t, capsys):
        assert run(self.MODULUS + ["--function", str(files["fn"]), "--domain",
                                   str(files["square"]), "--dirs", str(files["axes"]),
                                   "--t", t]) == 2
        assert "scale t must be positive and finite" in capsys.readouterr().err

    def test_modulus_t_half(self, files, capsys):
        # sup |(x + u)^2 - x^2| over x, x + u in [-1, 1], 0 < u <= 1/2 is 3/4
        assert run(self.MODULUS + ["--function", str(files["fn"]), "--domain",
                                   str(files["square"]), "--dirs", str(files["axes"]),
                                   "--t", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["argmax_u"] <= 0.5
        assert 0.7 < payload["value"] <= 0.75

    @pytest.mark.parametrize("w0", ["nan", "inf"])
    def test_chain_bound_w0_must_be_finite(self, files, w0, capsys):
        assert run(["chain-bound", "--chain", str(files["chain"]), "--w0", w0,
                    "--density", "200"]) == 2
        assert "w0 must be finite and nonnegative" in capsys.readouterr().err

    # r = 1, the order of the bad chain: an unlisted order is a config error
    REPORT = ["report", "--r-list", "1", "--p-list", "1", "--budget", "2", "--density", "256"]

    @pytest.mark.parametrize("given", ["--chain", "--w0"])
    def test_report_chain_and_w0_go_together(self, files, given, capsys):
        value = str(files["chain"]) if given == "--chain" else "1"
        assert run(self.REPORT + ["--domain", str(files["square"]),
                                  "--dirs", str(files["axes"]), given, value]) == 1
        err = capsys.readouterr().err
        assert "--chain" in err and "--w0" in err

    def test_report_failing_chain_prints_witnesses(self, files, capsys):
        assert run(self.REPORT + ["--domain", str(files["square"]), "--dirs", str(files["axes"]),
                                  "--chain", str(files["badchain"]), "--w0", "1"]) == 2
        err = capsys.readouterr().err
        assert "chain failed verification" in err and "witnesses:" in err


class TestConfigHash:
    """``meta.config_hash`` hashes the parsed options without the command, the
    output destination and the format; these values were taken before the
    subcommands became a command table, with relative file names."""

    ARGV = {
        "basis": (["--dim", "2", "--order", "2", "--dirs", "axes.json"], "f394bb0ae27713c8"),
        "modulus": (["--function", "fn.json", "--domain", "square.json", "--dirs", "axes.json",
                     "--order", "1", "--t", "0.5", "--density", "256"], "46a121f594293f75"),
        "approx": (["--function", "fn.json", "--domain", "square.json", "--dirs", "axes.json",
                    "--order", "2", "--p", "2", "--density", "256"], "2fc0d38244f510fe"),
        "whitney-estimate": (["--domain", "square.json", "--dirs", "axes.json", "--order", "1",
                              "--budget", "2", "--density", "256"], "7e11ccbc6be0c58d"),
        "chain-bound": (["--chain", "chain.json", "--w0", "1", "--p", "1", "--density", "200"],
                        "2a75b1fc7f64efc9"),
        "decompose": (["--domain", "square.json", "--method", "planar", "--order", "1",
                       "--density", "256"], "c6711f0ef6e51834"),
        "verify-chain": (["--chain", "chain.json", "--density", "200"], "ed99341df8bd0b9b"),
        "counterexample": (["--dim", "2", "--order", "1", "--eps", "0.01", "--n", "2,4",
                            "--density", "256"], "390787709f4a9417"),
        "xray-check": (["--domain", "square.json", "--dirs", "axes.json"], "957647caf72d2f2d"),
        "report": (["--domain", "square.json", "--dirs", "axes.json", "--r-list", "1",
                    "--p-list", "1,inf", "--budget", "2", "--density", "256"],
                   "2414626e2e450627"),
    }

    @pytest.mark.parametrize("cmd", list(ARGV))
    def test_pinned(self, files, cmd, monkeypatch):
        monkeypatch.chdir(files["tmp"])
        argv, expected = self.ARGV[cmd]
        assert run([cmd, *argv, "--out", "out.json", "--format", "json"]) in (0, 2)
        assert json.loads(Path("out.json").read_text())["meta"]["config_hash"] == expected


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
