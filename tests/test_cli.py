import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from unimetric import cli, linalg
from unimetric.linalg import haar_random_unitary, haar_unitaries, matrix_to_json, save_matrix
from unimetric.metrics import sup_distance

CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def matrix_files(tmp_path):
    paths = {}
    mats = {
        "I2": np.eye(2),
        "I3": np.eye(3),
        "I4": np.eye(4),
        "rot": np.diag([1.0, np.exp(1j * math.pi / 2)]),
        "cnot": CNOT,
        "swap": np.eye(4)[[0, 2, 1, 3]],
        "basis": np.eye(3)[:, :2],
        "bad": np.ones((2, 2)),
    }
    for name, m in mats.items():
        p = tmp_path / f"{name}.json"
        save_matrix(p, m)
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDist:
    def test_quarter_rotation(self, matrix_files, capsys):
        code, payload = run_json(capsys, ["dist", matrix_files["I2"], matrix_files["rot"]])
        assert code == 0
        assert payload["value"] == pytest.approx(0.70710678118, abs=1e-9)
        assert payload["alpha"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert payload["maximizer"]["rows"] == 2

    def test_cli_matches_api_exactly(self, matrix_files, capsys):
        code, payload = run_json(capsys, ["dist", matrix_files["I4"], matrix_files["cnot"]])
        assert code == 0
        api = sup_distance(np.eye(4), CNOT).value
        assert payload["value"] == api  # repr round trip is exact

    def test_same_operator(self, matrix_files, capsys):
        code, payload = run_json(capsys, ["dist", matrix_files["I2"], matrix_files["I2"]])
        assert code == 0 and payload["value"] == 0.0

    def test_dimension_mismatch_exit_3(self, matrix_files, capsys):
        assert cli.main(["dist", matrix_files["I2"], matrix_files["I3"]]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dist", "numrange"])
    def test_non_square_exit_3(self, command, matrix_files, tmp_path, capsys):
        path = tmp_path / "wide.json"
        save_matrix(path, np.ones((2, 3)))
        argv = [command, str(path)] + ([matrix_files["I2"]] if command == "dist" else [])
        assert cli.main(argv) == 3
        assert "square" in capsys.readouterr().err

    def test_not_unitary_exit_4(self, matrix_files, capsys):
        assert cli.main(["dist", matrix_files["I2"], matrix_files["bad"]]) == 4

    def test_parse_error_exit_2(self, tmp_path, matrix_files, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        assert cli.main(["dist", str(junk), matrix_files["I2"]]) == 2

    def test_missing_file_exit_2(self, matrix_files, capsys):
        assert cli.main(["dist", "/nonexistent.json", matrix_files["I2"]]) == 2

    def test_output_file(self, matrix_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["dist", matrix_files["I2"], matrix_files["rot"], "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(0.7071067811865475)


class TestDistinguish:
    def test_cnot(self, matrix_files, capsys):
        code, payload = run_json(
            capsys, ["distinguish", matrix_files["I4"], matrix_files["cnot"]]
        )
        assert code == 0
        assert payload["distinguishable"] is True
        assert payload["residual"] <= 1e-8
        assert payload["witness"]["rows"] == 4

    def test_small_rotation(self, tmp_path, matrix_files, capsys):
        p = tmp_path / "eighth.json"
        save_matrix(p, np.diag([1.0, np.exp(1j * math.pi / 4)]))
        code, payload = run_json(capsys, ["distinguish", matrix_files["I2"], str(p)])
        assert code == 0
        assert payload["distinguishable"] is False
        assert payload["min_overlap_bound"] == pytest.approx(math.cos(math.pi / 8), abs=1e-10)


class TestOtherCommands:
    def test_tensor(self, capsys):
        code, payload = run_json(capsys, ["tensor", "--d1", "0.5", "--d2", "0.5"])
        assert code == 0
        assert payload["value"] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_tensor_out_of_range_exit_5(self, capsys):
        assert cli.main(["tensor", "--d1", "1.5", "--d2", "0.2"]) == 5

    def test_face_dist(self, matrix_files, tmp_path, capsys):
        w = tmp_path / "w.json"
        save_matrix(w, np.diag([1.0, 1j, -1.0]))
        code, payload = run_json(
            capsys,
            ["face-dist", matrix_files["I3"], str(w), "--basis", matrix_files["basis"]],
        )
        assert code == 0
        assert payload["value"] == pytest.approx(math.sin(math.pi / 4), abs=1e-6)

    def test_sep_dist_swap(self, matrix_files, capsys):
        code, payload = run_json(
            capsys,
            [
                "sep-dist",
                matrix_files["I4"],
                matrix_files["swap"],
                "--dims",
                "2,2",
                "--restarts",
                "6",
                "--seed",
                "5",
            ],
        )
        assert code == 0
        assert payload["value"] == pytest.approx(1.0, abs=1e-6)
        assert payload["dims"] == [2, 2]

    def test_sep_dist_seed_env_override(self, matrix_files, capsys, monkeypatch):
        monkeypatch.setenv("UNIMETRIC_SEED", "99")
        code, payload = run_json(
            capsys,
            ["sep-dist", matrix_files["I4"], matrix_files["swap"], "--dims", "2,2",
             "--restarts", "2"],
        )
        assert code == 0 and payload["seed"] == 99

    def test_nullspace(self, capsys):
        code, payload = run_json(capsys, ["nullspace", "--gens", "+ZZ,+XX"])
        assert code == 0
        assert len(payload["blocks"]) == 4
        assert payload["generators"] == ["+ZZ", "+XX"]

    def test_nullspace_bad_pauli_exit_2(self, capsys):
        assert cli.main(["nullspace", "--gens", "+ZQ"]) == 2

    def test_stabilizer(self, capsys):
        code, payload = run_json(capsys, ["stabilizer", "--gens", "+ZZ,+XX"])
        assert code == 0
        assert payload["abelian"] is True
        assert len(payload["faces"]) == 4

    def test_stabilizer_nonabelian(self, capsys):
        code, payload = run_json(capsys, ["stabilizer", "--gens", "+X,+Z"])
        assert code == 0
        assert payload["abelian"] is False and payload["faces"] == []

    def test_search_by_size(self, capsys):
        code, payload = run_json(capsys, ["search", "--N", "1024", "--epsilon", "0.1"])
        assert code == 0
        assert payload["k"] == 47
        assert payload["achieved"] <= 0.1
        assert payload["bound_sqrtN"] == math.ceil(math.pi / 2 * 32)

    def test_search_by_alpha(self, capsys):
        code, payload = run_json(
            capsys,
            ["search", "--alpha", str(math.pi / 6), "--gamma", str(math.pi / 6),
             "--epsilon", "0.01"],
        )
        assert code == 0
        assert payload["k"] == 2 and payload["achieved"] <= 1e-12
        assert payload["bound_sqrtN"] is None

    def test_search_requires_exactly_one_of_alpha_or_n(self, capsys):
        assert cli.main(["search", "--epsilon", "0.1"]) == 2
        assert (
            cli.main(["search", "--alpha", "0.2", "--N", "16", "--epsilon", "0.1"]) == 2
        )

    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_search_size_below_two_exit_5(self, n, capsys):
        assert cli.main(["search", "--N", n, "--epsilon", "0.1"]) == 5
        assert "N must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon, code", [("1e-6", 0), ("1e-12", 5)])
    def test_search_at_large_k(self, epsilon, code, capsys):
        # k = 1570795: V^k is a valid operand, not a rounded matrix power, so
        # the call succeeds, or reports 1e-12 as unreachable with its best k
        assert cli.main(["search", "--alpha", "1e-6", "--epsilon", epsilon]) == code
        out, err = capsys.readouterr()
        if code == 0:
            payload = json.loads(out)
            k, achieved = payload["k"], payload["achieved"]
        else:
            k, achieved = (float(x) for x in re.findall(r"best k = (\d+) achieves (\S+)", err)[0])
        assert k == 1570795
        assert achieved == pytest.approx(abs(math.cos(1e-6 + k * 1e-6)), abs=1e-9)

    def test_search_unreachable_exit_5(self, capsys):
        code = cli.main(
            ["search", "--alpha", "0.7", "--gamma", "1.4", "--epsilon", "0.01"]
        )
        assert code == 5
        assert "best k" in capsys.readouterr().err

    def test_numrange_rejects_nonunitary(self, matrix_files, capsys):
        assert cli.main(["numrange", matrix_files["bad"]]) == 4

    def test_numrange_with_csv(self, matrix_files, tmp_path, capsys):
        csv_path = tmp_path / "poly.csv"
        code, payload = run_json(
            capsys, ["numrange", matrix_files["rot"], "--emit", str(csv_path)]
        )
        assert code == 0
        assert payload["polygon_distance"] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert payload["numrange_distance"] == pytest.approx(math.cos(math.pi / 4), abs=1e-6)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "theta,re,im,multiplicity"
        assert len(lines) == 3


    @pytest.mark.parametrize("alpha", [2.0, math.pi], ids=["arc", "antipodal"])
    def test_numrange_two_by_two(self, alpha, tmp_path, capsys):
        # the range of a 2x2 unitary is the chord between its eigenvalues;
        # an antipodal pair puts 0 on it
        q = haar_unitaries(np.random.default_rng(29), 1, 2)[0]
        path = tmp_path / "w.json"
        save_matrix(path, (q * np.exp(1j * np.array([0.4, 0.4 + alpha]))) @ q.conj().T)
        code, payload = run_json(capsys, ["numrange", str(path)])
        assert code == 0
        assert payload["numrange_distance"] == pytest.approx(payload["polygon_distance"], abs=1e-12)
        if alpha == math.pi:
            assert payload["numrange_distance"] == 0.0


class TestSelftest:
    def test_subset_passes(self, capsys):
        code = cli.main(["selftest", "--criteria", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 2
        assert "2/2 checks passed" in out

    def test_corrupt_hook_fails(self, capsys, monkeypatch):
        from unimetric import acceptance

        forced = acceptance.Margin("forced failure", 1.0, "<=", 0.0)
        failing = ("arc formula exactness", lambda seed: [forced])
        monkeypatch.setattr(acceptance, "_CHECKS", [failing, *acceptance._CHECKS[1:]])
        code = cli.main(["selftest", "--criteria", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out
        assert "forced failure = 1.000e+00 <= 0.000e+00 (missed)" in out

    def test_reports_timing(self, capsys):
        cli.main(["selftest", "--criteria", "1"])
        out = capsys.readouterr().out
        assert "s " in out and "arc formula" in out

    def test_unknown_criterion_exit_2(self, capsys):
        assert cli.main(["selftest", "--criteria", "99"]) == 2


class TestMatrixFormat:
    def test_round_trip_through_cli_files(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        p = tmp_path / "u.json"
        save_matrix(p, q)
        obj = json.loads(p.read_text())
        assert obj == matrix_to_json(q)


def _haar_file(tmp_path, name, n, seed):
    path = tmp_path / f"{name}.json"
    save_matrix(path, haar_random_unitary(n, seed=seed).matrix)
    return str(path)


@pytest.mark.parametrize("command", ["dist", "distinguish"])
def test_one_eigensolve_per_call(command, tmp_path, capsys, counted_eigensolves):
    u = _haar_file(tmp_path, "u", 5, 80)
    v = _haar_file(tmp_path, "v", 5, 81)
    counted_eigensolves.clear()
    assert cli.main([command, u, v]) == 0
    assert len(counted_eigensolves) == 1


def test_dist_arc_describes_the_given_order(tmp_path, capsys):
    u = _haar_file(tmp_path, "u", 4, 82)
    v = _haar_file(tmp_path, "v", 4, 83)
    _, uv = run_json(capsys, ["dist", u, v])
    _, vu = run_json(capsys, ["dist", v, u])
    assert uv["value"] == vu["value"]
    mirrored = np.sort(np.mod(-np.array(uv["eigen_angles"]), 2 * math.pi))
    np.testing.assert_allclose(vu["eigen_angles"], mirrored, rtol=0, atol=1e-12)
    assert vu["multiplicities"] == uv["multiplicities"][::-1]


def test_dist_alpha_does_not_depend_on_operand_order(tmp_path, capsys):
    # V'U comes first in byte order; its mirrored angles round differently
    u = _haar_file(tmp_path, "u", 4, 80)
    v = _haar_file(tmp_path, "v", 4, 81)
    _, uv = run_json(capsys, ["dist", u, v])
    _, vu = run_json(capsys, ["dist", v, u])
    assert uv["alpha"] == vu["alpha"]


X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize(
    "u, v",
    [(2 * np.eye(4), 0.5 * np.eye(4)), (2 * np.kron(X, Z), 0.5 * np.kron(Y, Y))],
)
def test_dist_non_unitary_operands_exit_4(u, v, tmp_path, capsys):
    save_matrix(tmp_path / "u.json", u)
    save_matrix(tmp_path / "v.json", v)
    assert cli.main(["dist", str(tmp_path / "u.json"), str(tmp_path / "v.json")]) == 4


def _run_python(*argv, **env_vars):
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), **env_vars
    )
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _run_cli(*argv, **env_vars):
    return _run_python("-m", "unimetric.cli", *argv, **env_vars)


def test_non_finite_entry_exits_2_without_traceback(tmp_path, matrix_files):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}))
    proc = _run_cli("dist", str(bad), matrix_files["I2"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_empty_matrix_exits_2_without_traceback(tmp_path):
    empty = tmp_path / "e.json"
    empty.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    proc = _run_cli("dist", str(empty), str(empty))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_nine_qubit_stabilizer_exits_5_without_traceback():
    # the faces are dense vectors, limited to 8 qubits like to_matrix
    proc = _run_cli("stabilizer", "--gens", "+ZZZZZZZZZ")
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert "8 qubits" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["sep-dist", "I4", "swap", "--dims", "2x2"],
        ["stabilizer", "--gens", ","],
        ["selftest", "--criteria", "a"],
        ["selftest", "--criteria", ","],
    ],
    ids=["dims", "gens", "criteria", "empty-criteria"],
)
def test_malformed_arguments_exit_2(argv, matrix_files, capsys):
    argv = [matrix_files.get(tok, tok) for tok in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_restarts_exit_5_without_traceback(matrix_files):
    proc = _run_cli(
        "sep-dist", matrix_files["I4"], matrix_files["swap"], "--dims", "2,2", "--restarts", "0"
    )
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "seed_args, env_vars", [(["--seed", "-1"], {}), ([], {"UNIMETRIC_SEED": "-3"})]
)
def test_negative_seed_exits_5_without_traceback(seed_args, env_vars, matrix_files):
    argv = ["sep-dist", matrix_files["I4"], matrix_files["swap"], "--dims", "2,2", *seed_args]
    proc = _run_cli(*argv, **env_vars)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert "seed" in proc.stderr


@pytest.mark.parametrize(
    "seed_args, env_vars", [(["--seed", "-1"], {}), ([], {"UNIMETRIC_SEED": "-1"})]
)
def test_negative_selftest_seed_exits_5_without_traceback(seed_args, env_vars, capsys, monkeypatch):
    for name, value in env_vars.items():
        monkeypatch.setenv(name, value)
    assert cli.main(["selftest", "--criteria", "3", *seed_args]) == 5
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sep-dist", "selftest"])
@pytest.mark.parametrize(
    "seed_args, env_vars", [(["--seed", "abc"], {}), ([], {"UNIMETRIC_SEED": "abc"})]
)
def test_malformed_seed_exits_2(command, seed_args, env_vars, matrix_files, capsys, monkeypatch):
    # the variable is parsed like the flag, so a bad value is never read as seed 0
    for name, value in env_vars.items():
        monkeypatch.setenv(name, value)
    argv = {
        "sep-dist": ["sep-dist", matrix_files["I4"], matrix_files["swap"], "--dims", "2,2"],
        "selftest": ["selftest", "--criteria", "1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *seed_args])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_seed_flag_overrides_malformed_env(matrix_files, capsys, monkeypatch):
    monkeypatch.setenv("UNIMETRIC_SEED", "abc")
    code, payload = run_json(
        capsys,
        ["sep-dist", matrix_files["I4"], matrix_files["swap"], "--dims", "2,2",
         "--restarts", "2", "--seed", "4"],
    )
    assert code == 0 and payload["seed"] == 4


def test_failed_residual_check_exits_5_without_traceback(tmp_path, capsys, monkeypatch):
    u = _haar_file(tmp_path, "u", 3, 84)
    v = _haar_file(tmp_path, "v", 3, 85)
    monkeypatch.setattr(linalg, "EIGEN_TOL", -1.0)
    assert cli.main(["dist", u, v]) == 5
    err = capsys.readouterr().err
    assert "eigendecomposition residual" in err
    assert "Traceback" not in err


def test_mirror_pair_dist_exits_0(tmp_path, matrix_files):
    # eigenvalues e^{i} and e^{-i(1 + 1.5e-8)}: their Hermitian parts nearly tie
    q = haar_unitaries(np.random.default_rng(9), 1, 3)[0]
    w = (q * np.exp(1j * np.array([1.0, 2 * math.pi - 1.0 - 1.5e-8, 2.5]))) @ q.conj().T
    save_matrix(tmp_path / "w.json", w)
    proc = _run_cli("dist", matrix_files["I3"], str(tmp_path / "w.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 1.0


def test_import_does_not_load_scipy():
    # numpy is the one runtime dependency: the optimization oracles run with scipy blocked
    code = (
        "import sys; sys.modules['scipy'] = None; from unimetric import cli; "
        "sys.exit(cli.main(['selftest', '--criteria', '4,11']))"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("pair", [0, 1], ids=["mirror-n3", "haar-n16"])
@pytest.mark.parametrize("command", ["dist", "distinguish"])
def test_noisy_operands_exit_0(command, pair, noisy_pairs, tmp_path, capsys):
    # within the unitarity tolerance, but W = U'V is not exactly normal
    for name, m in zip("uv", noisy_pairs[pair]):
        save_matrix(tmp_path / f"{name}.json", m)
    assert cli.main([command, str(tmp_path / "u.json"), str(tmp_path / "v.json")]) == 0
