import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from permkit import bosonic, cli, rng
from permkit.bosonic import DRAW_BUDGET, OutcomeDistribution
from permkit.cli import main
from permkit.numerics import ComplexMatrix


@pytest.fixture()
def j3_file(tmp_path):
    path = tmp_path / "j3.json"
    path.write_text(json.dumps(ComplexMatrix(np.ones((3, 3))).to_json_dict()))
    return str(path)


@pytest.fixture()
def hom_file(tmp_path):
    s = 1.0 / math.sqrt(2.0)
    mat = ComplexMatrix(np.array([[s, s], [s, -s]], dtype=complex))
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(mat.to_json_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


class TestPer:
    def test_all_ones_glynn(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "per", "--algo", "glynn", "--matrix", j3_file)
        payload = last_json(out)
        assert code == 0
        assert payload["re"] == pytest.approx(6.0)
        assert payload["im"] == pytest.approx(0.0)
        assert payload["algo"] == "glynn"
        assert payload["terms"] == 4
        assert payload["manifest"]["command"] == "per"

    def test_repeated_pattern_flags(self, capsys, j3_file):
        code, out, _ = run_cli(
            capsys, "per", "--algo", "naive", "--matrix", j3_file, "--rows", "[2,1,0]", "--cols", "[1,1,1]"
        )
        assert code == 0
        assert last_json(out)["re"] == pytest.approx(6.0)

    def test_malformed_matrix_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "entries": [[1, 0]]}')
        code, out, err = run_cli(capsys, "per", "--algo", "glynn", "--matrix", str(bad))
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "per", "--algo", "glynn", "--matrix", "/does/not/exist.json")
        assert code == 1
        assert out == ""

    def test_usage_error_exits_one_not_two(self, capsys):
        code, _, _ = run_cli(capsys, "per", "--algo", "not-a-formula", "--matrix", "x.json")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--matrix", "[]"),
            ("--matrix", "[[1]]"),
            ("--matrix", '{"dim": 1, "entries": [1]}'),
            ("--matrix", '{"dim": [1], "entries": [[1, 0]]}'),
            ("--matrix", '{"dim": 1.5, "entries": [[1, 0]]}'),
            ("--matrix", '{"dim": true, "entries": [[1, 0]]}'),
            ("--matrix-b", "[[1]]"),
        ],
    )
    def test_matrix_json_not_the_documented_object_exits_one(self, capsys, flag, text):
        one = '{"dim": 1, "entries": [[2, 0]]}'
        matrices = {"--matrix": one, "--matrix-b": one, flag: text}
        argv = ["per", "--algo", "cauchy-binet"]
        for name, value in matrices.items():
            argv += [name, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text, message",
        [("[" * 100_000, "nested too deeply"), ('{"dim": 1}', "missing key 'entries'"), ('{"entries": []}', "missing key 'dim'")],
        ids=["deep", "no-entries", "no-dim"],
    )
    @pytest.mark.parametrize("flag", ["--matrix", "--rows", "--unitary"])
    def test_json_input_error_is_one_error_line(self, capsys, j3_file, flag, text, message):
        argv = {
            "--matrix": ["per", "--algo", "naive", "--matrix", text],
            "--rows": ["per", "--algo", "naive", "--matrix", j3_file, "--rows", text],
            "--unitary": ["sample", "--unitary", text, "--n", "1", "--count", "1"],
        }[flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        # a multi-index is a JSON array, so an object fails before its keys are read
        assert message in lines[0] or (flag == "--rows" and "multi-index" in lines[0])

    @pytest.mark.parametrize("index", ["[1.5,1,1]", "[true,1,1]", "[1,null,1]", "[[1],1,1]", '{"a": 1}', "[1.0,1,1]"])
    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    def test_non_integer_multi_index_exits_one(self, capsys, j3_file, flag, index):
        code, out, err = run_cli(capsys, "per", "--algo", "naive", "--matrix", j3_file, flag, index)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_glynn_multiplicity_agrees_with_ryser(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(ComplexMatrix(rng.unit_disk_matrix(3, 41)).to_json_dict()))
        payloads = {}
        for algo in ("glynn-multiplicity", "ryser"):
            code, out, _ = run_cli(
                capsys, "per", "--algo", algo, "--matrix", str(path), "--rows", "[2,1,0]", "--cols", "[0,1,2]"
            )
            assert code == 0
            payloads[algo] = last_json(out)
        got, want = payloads["glynn-multiplicity"], payloads["ryser"]
        assert abs(complex(got["re"], got["im"]) - complex(want["re"], want["im"])) <= 1e-12
        assert got["algo"] == "glynn_multiplicity" and got["terms"] == 1 * 2 * 3

    def test_glynn_multiplicity_over_the_budget_exits_one(self, capsys, j3_file):
        big = "[300,300,300]"
        argv = ["per", "--algo", "glynn-multiplicity", "--matrix", j3_file, "--rows", big, "--cols", big]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"{301**3} terms" in lines[0] and "10000000" in lines[0]

    def test_unaddressable_repetition_is_one_error_line(self, capsys, tmp_path):
        # its first step, a 10^17 x 1 complex matrix, needs 1.39 EiB, past any address space, so nothing is allocated
        path = tmp_path / "a1.json"
        path.write_text(json.dumps(ComplexMatrix(np.ones((1, 1))).to_json_dict()))
        argv = ["per", "--algo", "naive", "--matrix", str(path), "--rows", f"[{10**17}]", "--cols", f"[{10**17}]"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "allocate" in lines[0]

    @pytest.mark.parametrize("algo", ["naive", "ryser", "glynn", "glynn-kan"])
    def test_weight_mismatch_prints_zero_without_the_repetition(self, capsys, tmp_path, monkeypatch, algo):
        def refuse(*args):
            raise AssertionError("repeat_matrix called")

        monkeypatch.setattr(cli, "repeat_matrix", refuse)
        path = tmp_path / "a1.json"
        path.write_text(json.dumps(ComplexMatrix(np.ones((1, 1))).to_json_dict()))
        argv = ["per", "--algo", algo, "--matrix", str(path), "--rows", "[1]", "--cols", "[10000000]"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err.splitlines() == ["warning: |p| != |q|: permanent of a rectangular repetition is 0"]
        payload = last_json(out)
        assert (payload["re"], payload["im"], payload["terms"]) == (0.0, 0.0, 0)
        assert payload["algo"] == algo.replace("-", "_")
        # a pattern that does not fit the matrix is still an error
        code, out, err = run_cli(capsys, *argv[:-4], "--rows", "[1,0]", "--cols", "[0,2]")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: pattern length must equal the matrix dimension"]

    def test_root_grid_algorithms_match_ryser_when_a_column_takes_every_index(self, capsys, tmp_path):
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(ComplexMatrix(rng.unit_disk_matrix(3, 1)).to_json_dict()))
        values = {}
        for algo in ("ryser", "roots-of-unity", "glynn-kan-repeated"):
            argv = ["per", "--algo", algo, "--matrix", str(path), "--rows", "[1,1,1]", "--cols", "[0,3,0]"]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            values[algo] = complex(last_json(out)["re"], last_json(out)["im"])
        ref = values.pop("ryser")
        for value in values.values():
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("rows", [[], ["--rows", "[1,1,1]"]])
    def test_glynn_repeated_rows_refuses_cols(self, capsys, tmp_path, rows):
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(ComplexMatrix(rng.unit_disk_matrix(3, 1)).to_json_dict()))
        argv = ["per", "--algo", "glynn-repeated-rows", "--matrix", str(path), *rows, "--cols", "[0,3,0]"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--cols" in lines[0]

    def test_warning_is_one_line_on_each_call(self, capsys, j3_file):
        argv = ["per", "--algo", "cauchy-binet", "--matrix", j3_file, "--matrix-b", j3_file]
        argv += ["--rows", "[2,1,0]", "--cols", "[1,1,0]"]
        for _ in range(2):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and last_json(out)["re"] == 0.0
            assert err.splitlines() == ["warning: |p| != |q|: permanent of a rectangular repetition is 0"]


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "dixon", "--seed", "7")
        payload = last_json(out)
        assert code == 0
        assert all(r["passed"] for r in payload["reports"])

    def test_all_reports_cover_registry(self, capsys):
        from permkit.identities import IDENTITY_REGISTRY

        code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "7")
        payload = last_json(out)
        assert code == 0
        names = {r["identity_name"] for r in payload["reports"]}
        assert names == set(IDENTITY_REGISTRY)
        assert all(r["passed"] for r in payload["reports"])

    def test_matrix_override(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "verify", "--identity", "monomial", "--matrix", j3_file, "--rows", "[1,1,1]")
        assert code == 0
        assert all(r["passed"] for r in last_json(out)["reports"])

    def test_override_with_all_is_misuse(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "verify", "--all", "--matrix", j3_file)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_not_finite_non_negative_is_usage_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "--tolerance", tolerance, "verify", "--identity", "monomial")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--tolerance" in err

    @pytest.mark.parametrize(
        "argv",
        [["--identity", "dixon", "--cap", "99"], ["--identity", "sn", "--matrix", '{"dim": 1, "entries": [[1, 0]]}']],
    )
    def test_override_the_identity_does_not_read_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_override_the_identity_reads_still_runs(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "verify", "--identity", "macmahon", "--cap", "3", "--matrix", j3_file)
        payload = last_json(out)
        assert code == 0
        assert payload["reports"][0]["caps_used"] == [3, 3, 3]

    def test_zero_cap_even_full_passes(self, capsys, tmp_path):
        path = tmp_path / "m4.json"
        path.write_text(json.dumps(ComplexMatrix(rng.unit_disk_matrix(4, 1)).to_json_dict()))
        code, out, _ = run_cli(capsys, "verify", "--identity", "even-full", "--matrix", str(path), "--cap", "0")
        payload = last_json(out)
        assert code == 0
        assert payload["reports"][0]["caps_used"] == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "argv",
        [["--identity", "macmahon", "--cap=-1"], ["--identity", "mmmt-two", "--cap", "1,1,-1,1"]],
    )
    def test_negative_cap_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err == "error: caps must be non-negative\n"

    def test_monomial_pattern_longer_than_the_matrix_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--identity", "monomial", "--rows", "[1,2,3,4]")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "3 x 3 matrix" in lines[0]

    def test_unachievable_tolerance_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "--tolerance", "0", "verify", "--identity", "macmahon")
        payload = last_json(out)
        assert code == 2
        assert not all(r["passed"] for r in payload["reports"])


class TestEstimate:
    def test_reproducible_output(self, capsys, j3_file):
        args = ("estimate", "--matrix", j3_file, "--rows", "[1,1,1]", "--cols", "[1,1,1]",
                "--f", "pown", "--samples", "5000", "--seed", "4")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        p1, p2 = last_json(out1), last_json(out2)
        p1["manifest"].pop("wall_time_ms")
        p2["manifest"].pop("wall_time_ms")
        assert p1 == p2

    def test_estimate_close_to_truth(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "estimate", "--matrix", j3_file, "--rows", "[1,1,1]",
                               "--cols", "[1,1,1]", "--f", "exp", "--samples", "50000", "--seed", "2")
        payload = last_json(out)
        assert code == 0
        err = abs(complex(payload["estimate"]["re"], payload["estimate"]["im"]) - 6.0)
        assert err <= 5 * payload["stderr"]


    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_overflowing_integrand_exits_one(self, capsys, tmp_path, f):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(ComplexMatrix(np.full((3, 3), 1e200)).to_json_dict()))
        code, out, err = run_cli(capsys, "estimate", "--matrix", str(path), "--rows", "[1,1,1]",
                                 "--cols", "[1,1,1]", "--f", f, "--samples", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflows" in err and len(err.strip().splitlines()) == 1

    def test_overflowing_variance_report_exits_one(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(ComplexMatrix(np.full((3, 3), 1e200)).to_json_dict()))
        code, out, err = run_cli(capsys, "report", "--kind", "variance", "--matrix", str(path),
                                 "--rows", "[1,1,1]", "--cols", "[1,1,1]", "--samples", "1000")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_fewer_than_two_samples_exits_one(self, capsys, j3_file, samples):
        code, out, err = run_cli(capsys, "estimate", "--matrix", j3_file, "--rows", "[1,1,1]",
                                 "--cols", "[1,1,1]", "--samples", samples)
        assert (code, out) == (1, "")
        assert "samples >= 2" in err


class TestSample:
    def test_fock_lines_plus_summary(self, capsys, hom_file):
        code, out, _ = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "fock",
                               "--n", "2", "--count", "6", "--seed", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 7
        for line in lines[:-1]:
            counts = json.loads(line)["counts"]
            assert sum(counts) == 2
            assert counts != [1, 1]  # two-photon interference null
        assert json.loads(lines[-1])["truncated_mass"] == 0.0

    def test_cat_reject_summary(self, capsys, hom_file):
        code, out, _ = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "cat",
                               "--alpha", "0.4,0", "--n", "2", "--cutoff", "6",
                               "--count", "200", "--seed", "3", "--reject-to", "2")
        summary = last_json(out)
        assert code == 0
        assert summary["kept"] <= 200
        assert summary["expected_fraction"] == pytest.approx((0.16 / math.sinh(0.16)) ** 2)
        assert summary["tv_estimate"] <= 0.2

    @pytest.mark.parametrize("reject", [False, True])
    def test_one_line_per_draw_in_draw_order(self, capsys, hom_file, reject):
        # each distinct outcome is formatted once; the lines stay those of one
        # json.dumps per draw, overflow draws included
        argv = ["sample", "--unitary", hom_file, "--input", "cat", "--alpha", "0.9,0", "--n", "2",
                "--cutoff", "3", "--count", "3000", "--seed", "8"] + (["--reject-to", "2"] if reject else [])
        code, out, _ = run_cli(capsys, *argv)
        u = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        dist = bosonic.cat_distribution(u, bosonic.CatInputSpec(0.9, 2, 2), 3)
        if reject:
            outcomes, kept, _ = bosonic.kept_draws(dist, 2, 3000, 8, bosonic.bs_distribution(u, 2).probs)
            draws = [outcomes[i] for i in kept.tolist()]
        else:
            draws = bosonic.sample(dist, 3000, 8)
        want = [json.dumps({"overflow": True} if d is bosonic.OVERFLOW else {"counts": list(d)}) for d in draws]
        assert code == 0 and out.splitlines()[:-1] == want
        assert reject or bosonic.OVERFLOW in draws

    def test_cat_alpha_40_draws_overflow(self, capsys, hom_file):
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "cat",
                                 "--alpha", "40,0", "--n", "1", "--cutoff", "3", "--count", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert err == ""
        assert [json.loads(line) for line in lines[:-1]] == [{"overflow": True}] * 5
        assert json.loads(lines[-1])["truncated_mass"] == 1.0

    def test_cat_cutoff_past_170_photons(self, capsys, hom_file):
        # 171! is past float64: those amplitudes are taken in log space
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "cat",
                                 "--n", "1", "--cutoff", "200", "--count", "5")
        lines = out.strip().splitlines()
        assert code == 0 and err == ""
        assert len(lines) == 6 and json.loads(lines[-1])["cutoff"] == 200

    def test_cat_non_finite_alpha_exits_one(self, capsys, hom_file):
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "cat",
                                 "--alpha", "nan,0", "--n", "1", "--cutoff", "3", "--count", "2")
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "finite" in err

    def test_negative_count_is_usage_error(self, capsys, hom_file):
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--n", "2", "--count", "-1")
        assert code == 1
        assert out == ""
        assert "--count" in err

    def test_zero_count_reject_has_no_fraction(self, capsys, hom_file):
        code, out, _ = run_cli(capsys, "sample", "--unitary", hom_file, "--input", "cat",
                               "--n", "2", "--count", "0", "--reject-to", "2")
        summary = last_json(out)
        assert code == 0
        assert summary["kept"] == 0
        assert summary["kept_fraction"] is None

    @pytest.mark.parametrize("weight", [math.nan, -0.25, 0.0])
    def test_bad_weights_exit_one(self, capsys, hom_file, monkeypatch, weight):
        bad = OutcomeDistribution({(2, 0): weight, (0, 2): 0.0 if weight == 0.0 else 0.5}, 2, 0.0)
        monkeypatch.setattr(bosonic, "bs_distribution", lambda u, n: bad)
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--n", "2", "--count", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_count_over_budget_exits_one_before_drawing(self, capsys, hom_file, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("draws were generated")

        monkeypatch.setattr(bosonic, "bit_generator", no_draws)
        code, out, err = run_cli(capsys, "sample", "--unitary", hom_file, "--n", "2", "--count", "1000000000000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"the budget is {DRAW_BUDGET}" in err

    def test_rejects_nonunitary(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps(ComplexMatrix(np.eye(2) * 0.5).to_json_dict()))
        code, out, err = run_cli(capsys, "sample", "--unitary", str(path), "--input", "fock",
                                 "--n", "1", "--count", "1", "--seed", "0")
        assert code == 1
        assert out == ""

    def test_unitary_json_not_the_documented_object_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--unitary", "[[1]]", "--n", "1", "--count", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestReport:
    def test_variance_table(self, capsys, j3_file):
        code, out, _ = run_cli(capsys, "report", "--kind", "variance", "--matrix", j3_file,
                               "--rows", "[1,1,1]", "--cols", "[1,1,1]",
                               "--f", "pown,exp", "--samples", "2000", "--seed", "1")
        payload = last_json(out)
        assert code == 0
        assert [row["f"] for row in payload["table"]] == ["pown", "exp"]

    def test_regime_table(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--kind", "regime", "--n", "16", "--m", "100", "--c", "0.0,1.0")
        payload = last_json(out)
        assert code == 0
        assert payload["table"][0]["defined"] is False
        assert payload["table"][1]["fraction"] >= 0.01

    def test_regime_fraction_below_sinh_overflow(self, capsys):
        code, out, err = run_cli(capsys, "report", "--kind", "regime", "--n", "2000", "--m", "100", "--c", "5")
        row = last_json(out)["table"][0]
        assert code == 0
        assert err == ""
        assert 0.0 < row["fraction"] < 1e-150

    @pytest.mark.parametrize("c", ["nan", "inf", "1.0,-inf"])
    def test_regime_refuses_a_non_finite_c(self, capsys, c):
        # NaN and Infinity are not JSON: one error line, no output
        code, out, err = run_cli(capsys, "report", "--kind", "regime", "--n", "4", "--m", "10", "--c", c)
        lines = err.strip().splitlines()
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and "finite c" in lines[0]


MATRICES = [
    '{"dim": 2, "entries": [[0.7071067811865476, 0], [0.7071067811865476, 0], [0.7071067811865476, 0], [-0.7071067811865476, 0]]}',
    '{"dim": 3, "entries": [[0.5, 0.1], [0, 0], [0.2, 0], [0, 0.3], [0.4, 0], [0, 0], [0.1, 0], [0, 0], [0.3, -0.2]]}',
    '{"dim": 1, "entries": [[1, 0]]}',
    '{"dim": 2, "entries": [[1, 0]]}',
    "[[1, 2], [3, 4]]",
    '{"dim": 2, "entries": [[1e200, 0], [1e200, 0], [1e200, 0], [1e200, 0]]}',
    "[]",
    "not-json",
]
INDICES = ["[1,1,1]", "[2,0,1]", "[1,1]", "[0,2]", "[]", "[-1,1]", "[1.5]", "x"]
NUMBERS = ["0", "1", "2", "3", "-1", "nan", "x"]
FLAG_VALUES = {
    "--matrix": MATRICES,
    "--matrix-b": MATRICES,
    "--unitary": MATRICES,
    "--rows": INDICES,
    "--cols": INDICES,
    "--algo": [
        "naive", "glynn", "ryser", "glynn-kan", "cauchy-binet", "roots-of-unity", "glynn-repeated-rows",
        "glynn-multiplicity", "bogus",
    ],
    "--identity": ["sn", "dixon", "monomial", "corollary-rank-one", "generating-pow", "laplace", "bogus"],
    "--cap": ["0", "1", "2", "1,1", "-1", "x"],
    "--seed": NUMBERS,
    "--samples": ["1", "50", "0", "-5", "x"],
    "--streams": ["1", "2", "0", "x"],
    "--f": ["pown", "exp", "geom", "log", "pown,exp", "bogus"],
    "--input": ["fock", "cat", "bogus"],
    "--alpha": ["0.5", "0.5,0.1", "nan,0", "x"],
    "--n": NUMBERS,
    "--m": NUMBERS,
    "--cutoff": NUMBERS,
    "--count": ["0", "3", "-1", "x"],
    "--reject-to": NUMBERS,
    "--kind": ["variance", "regime", "bogus"],
    "--c": ["1.0", "0.5,2", "x"],
}
SUBCOMMANDS = ["per", "verify", "estimate", "sample", "report", "bogus"]


@st.composite
def cli_argv(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--tolerance", draw(st.sampled_from(["1e-8", "0", "-1", "nan", "inf", "x"]))]
    argv.append(draw(st.sampled_from(SUBCOMMANDS)))
    if draw(st.integers(0, 9)) == 0:
        argv.append("--all")
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=6, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
@example(["estimate", "--matrix", MATRICES[1], "--rows", "[1,1,1]", "--cols", "[1,1,1]", "--samples", "1"])
@example(["report", "--kind", "variance", "--matrix", MATRICES[5], "--rows", "[1,1]", "--cols", "[1,1]"])
def test_any_argv_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 0:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)


def _reject_constant(token):
    raise AssertionError(f"{token} is not JSON")
