import io
import json
import os
import stat

import numpy as np
import pytest

from minimax_gda import cli
from minimax_gda import dynamics as dyn
from minimax_gda import problems as prob


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_file(tmp_path):
    seed = 0
    while True:
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        if prob.derive_constants(p).mu_x > 0.5:
            break
        seed += 1
    path = tmp_path / "inst.json"
    prob.save_instance(p, path)
    return str(path)


@pytest.fixture
def hard_file(tmp_path):
    path = tmp_path / "hard.json"
    prob.save_instance(prob.hard_ratio_instance(2.0, 1.0), path)
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    # A has an eigenvalue below mu: the instance fails the A_lower clause
    p = prob.QuadraticProblem(
        A=np.diag([0.5, 2.0]), B=np.zeros((2, 2)), C=np.zeros((2, 2)),
        x_star=np.zeros(2), y_star=np.zeros(2), L=2.0, mu=1.0,
    )
    path = tmp_path / "invalid.json"
    prob.save_instance(p, path)
    return str(path)


class TestGenerate:
    def test_writes_instance_and_prints_constants(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code, stdout, _ = run_cli(
            capsys, "generate", "-n", "4", "-m", "4", "-L", "100",
            "--mu", "1", "--seed", "7", "-o", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "kappa=100" in stdout
        loaded = prob.load_instance(out)
        assert prob.validate(loaded) == ()

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_cli(capsys, "generate", "-n", "3", "-m", "2", "-L", "10",
                    "--mu", "1", "--seed", "3", "-o", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mu_x_zero_option(self, tmp_path, capsys):
        out = tmp_path / "flat.json"
        code, stdout, _ = run_cli(
            capsys, "generate", "-n", "3", "-m", "3", "-L", "10",
            "--mu", "1", "--seed", "0", "--mu-x-zero", "-o", str(out),
        )
        assert code == 0
        assert "mu_x=0 " in stdout
        loaded = prob.load_instance(out)
        assert abs(prob.derive_constants(loaded).schur_min) <= 1e-9 * loaded.L

    def test_unreachable_schur_margin_exits_three(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, err = run_cli(
            capsys, "generate", "-n", "4", "-m", "4", "-L", "100", "--mu", "1",
            "--seed", "0", "--primal-convex", "--schur-margin", "1000", "-o", str(out),
        )
        assert code == 3
        assert err.startswith("numerical failure:")
        assert not out.exists()


class TestInspect:
    def test_below_threshold_flagged(self, hard_file, capsys):
        code, stdout, _ = run_cli(capsys, "inspect", hard_file, "-r", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["rho1"] > 1.0
        assert payload["ratio_class"] == "below_threshold"

    def test_proved_convergent(self, hard_file, capsys):
        code, stdout, _ = run_cli(capsys, "inspect", hard_file, "-r", "4")
        payload = json.loads(stdout)
        assert payload["ratio_class"] == "proved_convergent"
        assert payload["rho1"] <= payload["rho_bound"]
        assert all(c["passed"] for c in payload["lemma_checks"])

    def test_out_file_holds_what_is_printed(self, hard_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "inspect", hard_file, "-r", "4", "-o", str(out))
        assert code == 0
        assert out.read_text() == stdout

    def test_malformed_instance_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "inspect", str(bad), "-r", "2")
        assert code == 1
        assert "error" in err.lower() or "cannot parse" in err

    def test_directory_instance_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "inspect", str(tmp_path), "-r", "2")
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_instance_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "inspect", str(tmp_path / "no.json"), "-r", "2")
        assert code == 1
        assert err.startswith("error: ") and "no.json" in err

    def test_invalid_instance_names_clauses(self, invalid_file, capsys):
        code, _, err = run_cli(capsys, "inspect", invalid_file, "-r", "4")
        assert code == 1
        assert "A_lower" in err


class TestRun:
    def test_converges_at_proved_ratio(self, instance_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            capsys, "run", instance_file, "-r", "200", "-T", "2000000",
            "--eps", "1e-6", "-o", str(out),
        )
        assert code == 0
        assert stdout.startswith("converged ")
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,distance,primal_gap"

    def test_expected_divergence_exits_zero(self, hard_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            capsys, "run", hard_file, "-r", "1", "-T", "100000", "-o", str(out),
        )
        assert code == 0
        assert stdout.startswith("diverged")

    def test_sgda_sigma_zero_matches_gda(self, instance_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", instance_file, "-r", "200", "-T", "500",
                "--eps", "1e-12", "--seed", "5", "-o", str(a))
        run_cli(capsys, "run", instance_file, "--algorithm", "sgda",
                "--sigma", "0", "--batch", "4", "-r", "200", "-T", "500",
                "--eps", "1e-12", "--seed", "5", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_eg_converges(self, instance_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            capsys, "run", instance_file, "--algorithm", "eg", "-r", "200",
            "-T", "2000000", "--eps", "1e-6", "-o", str(out),
        )
        assert code == 0
        assert stdout.startswith("converged ")

    def test_sgda_without_sigma_usage_error(self, instance_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", instance_file, "--algorithm", "sgda", "-r", "200",
            "-o", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "sigma" in err

    def test_gda_with_sigma_usage_error(self, instance_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "run", instance_file, "--algorithm", "gda",
                               "--sigma", "1", "-r", "200", "-o", str(out))
        assert code == 1
        assert err == "error: GDA is the exact method; use SGDA for a noisy oracle\n"
        assert not out.exists()

    def test_noisy_eg_matches_library_run(self, instance_file, tmp_path, capsys):
        out = tmp_path / "eg.csv"
        code, stdout, _ = run_cli(
            capsys, "run", instance_file, "--algorithm", "eg", "--sigma", "1",
            "--batch", "4", "-r", "200", "-T", "300", "--seed", "2", "-o", str(out))
        assert code == 0
        p = prob.load_instance(instance_file)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0)
        traj = dyn.run(p, dyn.SolverConfig(
            algorithm=dyn.Algorithm.EG, eta_x=eta_x, eta_y=eta_y, max_iters=300,
            target_eps=1e-6, noise=prob.NoiseModel(1.0, 4), seed=2,
            record_primal_gaps=True))
        buf = io.StringIO(newline="")
        dyn.write_trajectory_csv(traj, buf)
        assert out.read_bytes().decode() == buf.getvalue()
        assert stdout.split()[:3] == [traj.status.kind.value, "300",
                                      f"{traj.final_distance():.12g}"]

    def test_short_run_prints_nan_rate(self, instance_file, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "run", instance_file, "-r", "200", "-T", "5",
                                  "-o", str(tmp_path / "x.csv"))
        assert code == 0
        assert stdout.startswith("budget_exhausted 5 ")
        assert stdout.split()[-1] == "nan"


class TestSweep:
    def test_csv_schema_and_determinism(self, instance_file, tmp_path, capsys):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sweep", instance_file, "--ratios", "200", "400",
                "-T", "20000", "--eps", "1e-4", "-o", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header.startswith("ratio,seed,algorithm,status")

    def test_default_ratios(self, instance_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(capsys, "sweep", instance_file, "-T", "100",
                                  "-o", str(out))
        assert code == 0 and stdout.endswith("(4 cells)\n")
        kappa = prob.derive_constants(prob.load_instance(instance_file)).kappa
        ratios = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert ratios == [kappa / 2, 2 * kappa, 8 * kappa, 2 * kappa ** 2]

    def test_sgda_with_sigma_runs(self, instance_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(capsys, "sweep", instance_file, "--ratios", "200",
                                  "--algorithms", "gda", "sgda", "--sigma", "1",
                                  "-T", "100", "-o", str(out))
        assert code == 0 and stdout.endswith("(2 cells)\n")
        assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == \
            ["gda", "sgda"]

    def test_a_not_positive_definite_gives_error_cell(self, tmp_path, capsys):
        inst, out = tmp_path / "bad_a.json", tmp_path / "s.csv"
        inst.write_text(json.dumps({"n": 1, "m": 1, "L": 2, "mu": 1, "A": [-1], "B": [1],
                                    "C": [1], "x_star": [0], "y_star": [0]}))
        code, _, _ = run_cli(capsys, "sweep", str(inst), "--ratios", "4", "-T", "10",
                             "-o", str(out))
        assert code == 0
        row, = out.read_text().splitlines()[1:]
        assert row.split(",")[3].startswith("error: NotPositiveDefiniteError")


class TestHugeRatios:
    """Ratios whose squares leave the floats end in a documented exit code,
    never in a traceback; the lemma's item 3 is still judged there."""

    @pytest.mark.parametrize("r", ["1e-300", "1e154", "1e300", "1.7e308"])
    @pytest.mark.parametrize("command", ["inspect", "run", "sweep"])
    def test_documented_exit(self, command, r, instance_file, tmp_path, capsys):
        argv = {"inspect": ["inspect", instance_file, "-r", r],
                "run": ["run", instance_file, "-r", r, "-T", "100"],
                "sweep": ["sweep", instance_file, "--ratios", r, "-T", "100"]}[command]
        if command != "inspect":
            argv += ["-o", str(tmp_path / "out.csv")]
        code, stdout, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3)
        if r == "1.7e308":
            # r*B' and r*A overflow: the matrix M cannot be built
            overflow = "r is too large: r*B' or r*A overflows"
            if command == "sweep":
                assert code == 0
                row, = (tmp_path / "out.csv").read_text().splitlines()[1:]
                assert row.split(",")[3] == f"error: InvalidInputError: {overflow}"
            else:
                assert code == 1 and err == f"error: {overflow}\n"
            return
        if command == "inspect" and r != "1e-300":
            item3 = json.loads(stdout)["lemma_checks"][2]
            assert item3["applicable"] and item3["passed"] and item3["margin"] is None


class TestOverflowingRadii:
    """A transition radius whose computation overflows is reported as inf,
    with no numpy warning (a warning fails the test)."""

    def test_inspect_huge_eta_x(self, instance_file, capsys):
        code, stdout, err = run_cli(capsys, "inspect", instance_file, "-r", "100",
                                    "--eta-x", "1e300")
        assert code == 0 and err == ""
        payload = json.loads(stdout)
        assert 1.0 < payload["rho1"] < float("inf")
        assert payload["rho2"] == "inf"

    def test_inspect_eta_x_near_float_max(self, instance_file, capsys):
        code, stdout, err = run_cli(capsys, "inspect", instance_file, "-r", "100",
                                    "--eta-x", "1e308")
        assert code == 0 and err == ""
        payload = json.loads(stdout)
        assert payload["rho1"] == "inf"
        assert payload["rho2"] == "inf"

    def test_sweep_tiny_ratio(self, instance_file, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        code, _, err = run_cli(capsys, "sweep", instance_file, "--ratios", "1e-300",
                               "--algorithms", "gda", "eg", "-T", "10",
                               "-o", str(out))
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[2], r[3]) for r in rows] == [("gda", "diverged"), ("eg", "diverged")]
        assert rows[1][5] == "inf"


class TestVerify:
    def test_mux_zero_suite_passes(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify", "mux-zero", "--seed", "0", "--budget", "0.2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["suites"][0]["suite"] == "mux-zero"

    def test_small_budget_rates_suite_passes(self, capsys):
        # the budget shrinks the corpus but not the rate-match runs, which
        # need about 40k steps to fit rho to the 1e-3 the check asserts
        code, stdout, _ = run_cli(
            capsys, "verify", "rates", "--budget", "0.15", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(stdout)
        checks = {c["name"]: c for c in payload["suites"][0]["checks"]}
        assert all(c["passed"] for c in checks.values())
        assert checks["rate_matches_prediction"]["details"]["worst_match_error"] <= 1e-3

    def test_corrupted_rate_constant_fails_spectral(self, capsys, monkeypatch):
        # mutation check: corrupting the proved constant tightens the bound
        # past the actual radii, and the suite must catch it
        monkeypatch.setattr(
            dyn.Scheme, "rate_constant",
            property(lambda self: 1e-4), raising=True,
        )
        code, stdout, _ = run_cli(
            capsys, "verify", "spectral", "--budget", "0.1",
        )
        assert code == 2
        payload = json.loads(stdout)
        assert payload["passed"] is False

    def test_out_file_holds_what_is_printed(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code, stdout, _ = run_cli(capsys, "verify", "lower-bounds", "-o", str(out))
        assert code == 0
        assert out.read_text() == stdout

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "everything")
        assert code == 1


class TestNonFiniteInput:
    # each value passes a range check written as "x <= 0"; all must exit 1
    # with one error line and no output file
    @pytest.mark.parametrize("args", [
        ("run", "{inst}", "-r", "nan"),
        ("run", "{inst}", "-r", "200", "--eps", "nan"),
        ("run", "{inst}", "--algorithm", "sgda", "--sigma", "nan", "-r", "200"),
        ("verify", "mux-zero", "--budget", "nan"),
        ("verify", "mux-zero", "--budget", "inf"),
        ("generate", "-n", "2", "-m", "2", "-L", "inf", "--mu", "1", "--seed", "1"),
        ("generate", "-n", "2", "-m", "2", "-L", "4", "--mu", "1", "--seed", "1",
         "--primal-convex", "--schur-margin", "nan"),
        ("inspect", "{inst}", "-r", "200", "--eta-x", "nan"),
    ], ids=["run-r", "run-eps", "run-sigma", "verify-budget-nan",
            "verify-budget-inf", "generate-L", "generate-schur-margin",
            "inspect-eta-x"])
    def test_rejected(self, args, instance_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(inst=instance_file) for a in args]
        if argv[0] != "verify":
            argv += ["-o", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


class TestRejectedBeforeWork:
    # a negative seed used to end in a numpy traceback, a bad sweep budget
    # or target in an all-error CSV with exit 0, and a schur margin without
    # --primal-convex in an instance with mu_x = 0
    @pytest.mark.parametrize("args", [
        ("generate", "-n", "2", "-m", "2", "-L", "4", "--mu", "1", "--seed", "-1"),
        ("run", "{inst}", "-r", "200", "--seed", "-1"),
        ("verify", "mux-zero", "--seed", "-1", "--budget", "0.1"),
        ("verify", "spectral", "--seed", "-1", "--budget", "0.1"),
        ("sweep", "{inst}", "--ratios", "200", "-T", "-5"),
        ("sweep", "{inst}", "--ratios", "200", "--eps", "nan"),
        ("sweep", "{inst}", "--ratios", "200", "--eps", "0"),
        ("sweep", "{inst}", "--ratios", "200", "--algorithms", "sgda"),
        ("sweep", "{inst}", "--ratios", "200", "--algorithms", "gda", "sgda"),
        ("generate", "-n", "4", "-m", "4", "-L", "10", "--mu", "1", "--seed", "5",
         "--schur-margin", "3"),
        ("run", "{inst}", "-r", "200", "--algorithm", "sgda"),
        ("run", "{inst}", "-r", "200", "--algorithm", "gda", "--sigma", "1"),
        ("inspect", "{invalid}", "-r", "4"),
    ], ids=["generate-seed", "run-seed", "verify-mux-zero-seed",
            "verify-spectral-seed", "sweep-T", "sweep-eps-nan", "sweep-eps-0",
            "sweep-sgda-no-sigma", "sweep-gda-sgda-no-sigma",
            "generate-schur-margin-not-convex", "run-sgda-no-sigma",
            "run-gda-sigma", "inspect-invalid-instance"])
    def test_exits_one(self, args, instance_file, invalid_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(inst=instance_file, invalid=invalid_file) for a in args]
        if argv[0] != "verify":
            argv += ["-o", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert stdout == ""
        assert not out.exists()


class TestBadBlockSizes:
    # n = 0 or m = 0 used to end in an IndexError or ValueError traceback
    # from derive_constants, and n = 1.7 was read as n = 1
    @staticmethod
    def _instance(tmp_path, key, value):
        data = prob.to_json_dict(prob.sample_instance(1, 2, 4.0, 1.0, 0))
        if value == 0:  # keep the file consistent with the emptied block
            data["B"] = []
            if key == "n":
                data["C"], data["x_star"] = [], []
            else:
                data["A"], data["y_star"] = [], []
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", [
        ("inspect", "-r", "200"), ("run", "-r", "200"), ("sweep",),
    ], ids=["inspect", "run", "sweep"])
    @pytest.mark.parametrize("key, value", [("n", 0), ("m", 0), ("n", 1.7)],
                             ids=["n0", "m0", "n1.7"])
    def test_exits_one(self, command, key, value, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command[0], self._instance(tmp_path, key, value),
                *command[1:], "-o", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{key} must be an integer >= 1" in err
        assert stdout == ""
        assert not out.exists()


class TestOutputErrors:
    def test_output_under_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(
            capsys, "generate", "-n", "2", "-m", "2", "-L", "4", "--mu", "1",
            "--seed", "1", "-o", str(blocker / "x.json"),
        )
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestOutputMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["022", "077"])
    def test_follows_umask(self, tmp_path, capsys, umask, mode):
        out = tmp_path / "inst.json"
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(
                capsys, "generate", "-n", "2", "-m", "2", "-L", "4", "--mu", "1",
                "--seed", "1", "-o", str(out),
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode


class TestOutDir:
    def test_relative_paths_resolve_against_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run_cli(
            capsys, "generate", "-n", "2", "-m", "2", "-L", "4", "--mu", "1",
            "--seed", "1", "-o", "sub/inst.json",
        )
        assert code == 0
        assert (tmp_path / "sub" / "inst.json").exists()
