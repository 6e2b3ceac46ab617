import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from clext import specfun
from clext.cli import main, parse_args

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(args):
    import contextlib
    import io

    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(args)
    return code, buf.getvalue(), err.getvalue()


class TestValidate:
    def test_valid(self):
        code, out, _ = run_cli(["validate", "--lambda", "3", "--alpha", "3,-3,0"])
        assert code == 0
        assert "1.33333333333" in out

    def test_positivity_violation_exit2(self):
        code, _, err = run_cli(["validate", "--lambda", "2", "--alpha", "-1.5,1.5"])
        assert code == 2
        assert "beta_1" in err

    def test_zero_sum_exit2(self):
        code, _, err = run_cli(["validate", "--lambda", "2", "--alpha", "0.1,0"])
        assert code == 2

    def test_missing_params(self):
        code, _, err = run_cli(["validate"])
        assert code == 2

    def test_non_finite_alpha_exit2(self):
        # rejected where it enters, before any series runs
        code, out, err = run_cli(
            ["mandel", "--family", "eigen", "--lambda", "2", "--alpha", "nan,0", "--grid", "1:2:2"]
        )
        assert code == 2
        assert "finite" in err and out == ""


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mandel", "--family", "eigen", "--grid", "0:nan:3"], "--grid"),
            (["squeeze", "--family", "eigen", "--grid", "0:inf:3"], "--grid"),
            (["state", "--cs-alpha", "0", "--z-re", "nan"], "--z-re"),
            (["state", "--cs-alpha", "-1", "--z-im=-inf"], "--z-im"),
        ],
    )
    def test_non_finite_z_is_a_usage_error(self, argv, flag, capsys):
        # refused by the parser, before any state or series is built
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lambda", "2", "--alpha", "1,-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [l for l in captured.err.splitlines() if "error:" in l]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0] and "not finite" in errors[0]
        assert captured.out == ""


class TestVerify:
    def test_algebra_pass(self):
        code, out, _ = run_cli(["verify", "algebra", "--lambda", "3", "--alpha", "3,-3,0", "--k", "32"])
        assert code == 0
        assert "True" in out and "False" not in out

    def test_algebra_sga_rows(self):
        code, out, _ = run_cli(["verify", "algebra", "--lambda", "4", "--alpha", "5,-3,-2,0"])
        assert code == 0
        names = [line.rsplit(",", 2)[0] for line in out.splitlines()[1:]]
        assert names == ["[a,adag] = 1 + sum alpha P", "adag P_mu = P_{mu+1} adag",
                         "[J+,J-] = f(J0, P_mu)", "[J0,J+] = J+", "[J0,J-] = -J-"]

    @pytest.mark.parametrize("k", ["3", "2"])
    def test_algebra_truncation_too_small_exit2(self, k):
        code, out, err = run_cli(["verify", "algebra", "--lambda", "3", "--alpha", "3,-3,0", "--k", k])
        assert code == 2 and out == ""
        assert err == f"error: verify algebra needs --k > lambda = 3, got {k}\n"

    def test_states_pass(self):
        code, out, _ = run_cli(["verify", "states", "--lambda", "2", "--alpha", "3,-3", "--k", "48"])
        assert code == 0

    def test_observables_rows(self):
        code, out, _ = run_cli(["verify", "observables", "--lambda", "2", "--alpha", "3,-3"])
        assert code == 0
        rows = [line.rsplit(",", 2) for line in out.splitlines()[1:]]
        names = [r[0] for r in rows]
        for name in ("eigenstate Q at |z|=8.0", "eigenstate Q at |z|=14.0",
                     "sector (0,0) Q at |z|=1.0", "sector (0,0) Q at |z|=8.0"):
            assert name in names
        assert all(float(res) < 1e-8 and passed == "True" for _, res, passed in rows)

    @pytest.mark.parametrize("lam, alpha", [("2", "1,-1"), ("3", "3,-3,0"), ("4", "5,-3,-2,0")])
    def test_bargmann_ladder_rows(self, lam, alpha):
        code, out, _ = run_cli(["verify", "bargmann", "--lambda", lam, "--alpha", alpha])
        assert code == 0
        rows = [line.rsplit(",", 2) for line in out.splitlines()[1:]]
        for basis in ("vector_alpha0", "eigenstate"):
            ladder = [r for r in rows if r[0].startswith(basis + "(")]
            # every component mu, each at k = 0..5
            assert len(ladder) == 6 * int(lam)
            assert f"{basis}(mu={int(lam) - 1}) [a,adag] k=5" in [r[0] for r in ladder]
            assert all(float(res) <= 1e-10 and passed == "True" for _, res, passed in ladder)

    def test_moments_pass(self):
        code, out, _ = run_cli(
            ["verify", "moments", "--lambda", "2", "--alpha", "3,-3", "--cs-alpha", "1", "--mu", "0"]
        )
        assert code == 0


class TestFigure:
    def test_byte_stable(self):
        args = ["figure", "3a", "--grid", "0.1:2:6"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2
        assert out1.startswith("# figure: 3a")

    def test_unknown_figure(self):
        code, _, err = run_cli(["figure", "9z"])
        assert code == 2

    def test_whole_figure_collects_panels(self):
        code, out, _ = run_cli(["figure", "2", "--grid", "0.1:0.9:4"])
        assert code == 0
        assert "# figure: 2a" in out and "# figure: 2b" in out


class TestDataCommands:
    def test_mandel_eigen(self):
        code, out, _ = run_cli(
            ["mandel", "--family", "eigen", "--lambda", "2", "--alpha", "1,-1", "--grid", "0.5:1.5:3"]
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "r,Q_closed,Q_oracle"
        assert len(lines) == 4

    def test_moments_csv(self):
        code, out, _ = run_cli(
            ["moments", "--lambda", "2", "--alpha", "3,-3", "--cs-alpha", "1", "--mu", "0", "--tol", "1e-8"]
        )
        assert code == 0
        assert "k,target,integral,rel_error" in out
        assert ", passed = True, max_quad_err = " in out.splitlines()[-1]

    def test_moments_where_y_to_the_k_overflows(self):
        # y^60 overflows on the (0, inf) grid before the alpha = 0 weight
        # decays; B(60) ~ 3e164 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["moments", "--lambda", "2", "--alpha", "3,-3", "--k-max", "60"])
        assert code == 0
        assert out.splitlines()[-1].startswith("# max_rel_error = ")
        assert ", passed = True, " in out.splitlines()[-1]

    def test_resolution(self):
        code, out, _ = run_cli(
            ["resolution", "--lambda", "2", "--alpha", "3,-3", "--mode", "diagonal_alpha0", "--n-max", "4"]
        )
        assert code == 0
        assert "n,n_prime,value" in out

    def test_state_dump(self):
        code, out, _ = run_cli(
            ["state", "--lambda", "2", "--alpha", "0,0", "--z-re", "1", "--z-im", "0",
             "--cs-alpha", "-1", "--k", "16"]
        )
        assert code == 0
        assert "n,re_c,im_c" in out

    def test_squeeze(self):
        code, out, _ = run_cli(
            ["squeeze", "--family", "eigen", "--lambda", "2", "--alpha", "3,-3",
             "--kind", "dressed", "--grid", "0.5:1:2"]
        )
        assert code == 0
        assert "X_closed" in out


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("lam = 2\nalpha_csv = 3,-3\nmu = 0\ncs_alpha = 1\n")
        code, out, _ = run_cli(["moments", "--config", str(cfg)])
        assert code == 0
        # flag overrides the config value
        code2, out2, _ = run_cli(
            ["moments", "--config", str(cfg), "--cs-alpha", "0", "--tol", "1e-5"]
        )
        assert code2 == 0
        assert "alpha = 0" in out2

    def test_k_max_is_read(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("lam = 2\nalpha_csv = 3,-3\nmu = 0\ncs_alpha = 1\nk_max = 3\n")
        code, out, _ = run_cli(["moments", "--config", str(cfg)])
        assert code == 0
        rows = [l.split(",")[0] for l in out.splitlines()[2:] if not l.startswith("#")]
        assert rows == ["0", "1", "2", "3"]

    def test_mode_is_read(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("lam = 2\nalpha_csv = 3,-3\nmode = eigenstate_diag\n")
        code, out, _ = run_cli(["resolution", "--config", str(cfg)])
        assert code == 0
        assert out.startswith("# resolution mode = eigenstate_diag\n")

    @pytest.mark.parametrize("line", ["cs_alpah = 1", "lambda = 2"])
    def test_unknown_key_is_a_one_line_error(self, tmp_path, line):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"lam = 2\nalpha_csv = 3,-3\n{line}\n")
        code, out, err = run_cli(["moments", "--config", str(cfg)])
        key = line.split(" =")[0]
        assert code == 2 and out == ""
        assert err.startswith(f"error: config key {key!r} ") and err.count("\n") == 1

    def test_bad_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("lam = 2\nalpha_csv = 3,-3\nmu = x\n")
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--config", str(cfg)])
        assert exc.value.code == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
        assert errors == ["clext moments: error: argument --mu: invalid int value: 'x'"]

    def test_out_file(self, tmp_path):
        dest = tmp_path / "fig.csv"
        code, out, _ = run_cli(["figure", "4a", "--grid", "0.2:1:3", "--out", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("# figure: 4a")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "clext.cli", "validate", "--lambda", "2", "--alpha", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_verify_failure_exits_one():
    # an unreachable tolerance must flip the exit code to 1
    code, out, _ = run_cli(
        ["verify", "moments", "--lambda", "3", "--alpha", "3,-3,0",
         "--cs-alpha", "1", "--mu", "0", "--tol", "1e-16"]
    )
    assert code == 1
    assert "False" in out


def test_figure_3b_solid_q_limit():
    # mu = 1 curves start at Q(0+) = -1
    code, out, _ = run_cli(["figure", "3b", "--grid", "0.02:1:8"])
    assert code == 0
    first = [l for l in out.splitlines() if l and not l.startswith("#")][1]
    vals = [float(v) for v in first.split(",")[1:]]
    assert all(abs(v + 1.0) < 0.05 for v in vals)


class TestHausdorffMoments:
    @pytest.mark.parametrize(
        "lam,alpha,cs_alpha",
        [
            # lambda = 6 Appell case next to the inner series' term cap
            ("6", "10.28,-2.08,-2.2,-4.6,-1.6,0.2", "3"),
            # lambda = 8 multiple-series case
            ("8", "11,-1,-1,-3,-1,-1,-1,-3", "4"),
        ],
    )
    def test_weights_pass(self, lam, alpha, cs_alpha):
        code, out, _ = run_cli(
            ["moments", "--lambda", lam, "--alpha", alpha, "--mu", "0", "--cs-alpha", cs_alpha]
        )
        assert code == 0, out

    def test_coincident_lower_parameters_never_raise(self):
        # b = (0, 0, -0.2): the contour route used to raise ZeroDivisionError
        code, out, err = run_cli(
            ["moments", "--lambda", "6", "--alpha", "10.4,-2.2,-2.2,-4,-2.2,0.2",
             "--mu", "0", "--cs-alpha", "3"]
        )
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 1) and "# max_rel_error = " in out

    def test_near_coincident_lower_parameters_pass(self):
        # b = (0, 1e-8, -0.2): Slater refused points here and p = q has no
        # contour; the residue sum takes (0, 1e-8) as one cluster
        code, out, err = run_cli(
            ["moments", "--lambda", "6", "--alpha", "10.4,-2.2,-2.2,-3.99999994,-2.20000006,0.2",
             "--mu", "0", "--cs-alpha", "3", "--tol", "1e-9"]
        )
        assert code == 0 and not err, out


class TestStieltjesMoments:
    @pytest.mark.parametrize(
        "lam,alpha",
        [
            # lambda = 5, (mu, alpha) = (0, 2): r = 1 over two certified pairs
            ("5", "6.5,-2.0,-1.5,-2.5,-0.5"),
            # lambda = 6, beta_bar = (1.9, 1.7, 1.5, 0.9, 0.8): r = 2
            ("6", "10.4,-2.2,-2.2,-4.6,-1.6,0.2"),
        ],
    )
    def test_two_pair_weights_reach_rounding(self, lam, alpha):
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["moments", "--lambda", lam, "--alpha", alpha, "--mu", "0", "--cs-alpha", "2"]
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0, out
        line = next(l for l in out.splitlines() if l.startswith("# max_rel_error = "))
        assert float(line.split("=")[1].split(",")[0]) <= 1e-12

    def test_small_pair_gap_passes(self):
        # beta_bar = (0.84, 0.838, 1.476): one pair with gap 0.002, whose
        # (1 - u)^(s - 1) mass the Mellin convolution's tanh-sinh could not
        # reach (it exited 2); the direct evaluation has no such limit
        code, out, _ = run_cli(
            ["moments", "--lambda", "4", "--alpha", "2.36,-1.008,1.552,-2.904",
             "--mu", "0", "--cs-alpha", "1", "--tol", "1e-10"]
        )
        assert code == 0, out


class TestConfluentWeights:
    @pytest.mark.parametrize(
        "lam,alpha,cs_alpha",
        [
            # b = (0, 1/2, 1/2, 1/2, 1/2): the contour could not settle at y = 6e-23
            ("5", "6.5,-1,-1,-1,-3.5", "0"),
            # b = (0, 1/4, 1/4, 1/4): the contour could not settle at y = 5e-20
            ("4", "4,-1,-1,-2", "0"),
            # r = 0, b = (0, 0, -0.2): the eps-split was 2.3e-6 off
            ("6", "10.4,-2.2,-2.2,-4,-2.2,0.2", "3"),
            # r = 0, b = (0, 1/4, 1/4, 1/4): the eps-split reached 6.3e-9
            ("8", "11,-1,-1,-3,-1,-1,-1,-3", "4"),
            # b = (0, 0.009, 0.0195): 0.0195 lies 0.0105 from the pair, within
            # twice its spread, so it joins their cluster; kept apart, it left
            # the pair needing 202 Taylor terms, whose polygamma coefficients
            # overflowed (a traceback)
            ("3", "2.027,-0.9685,-1.0585", "0"),
        ],
    )
    def test_coincident_lower_parameters_pass(self, lam, alpha, cs_alpha):
        code, out, err = run_cli(
            ["moments", "--lambda", lam, "--alpha", alpha, "--mu", "0", "--cs-alpha", cs_alpha,
             "--tol", "1e-9"]
        )
        assert code == 0 and not err, out

    def test_coincident_resolution_passes(self):
        # b = (0, 1/2, 1/2, 1/2) in the mu = 0 weight: exited 2 at y = 1.1e-11
        code, out, err = run_cli(
            ["resolution", "--lambda", "4", "--alpha", "5,-1,-1,-3", "--mode", "eigenstate_offdiag"]
        )
        assert code == 0 and not err, out

    def test_unmet_tolerance_is_a_one_line_error(self, monkeypatch):
        # with the residue sum refusing every point and four Taylor terms a
        # step, the continuation misses its remainder bound: the kummer
        # weight raises NoConvergence, which the CLI reports on one line
        monkeypatch.setattr(
            specfun, "_slater_vec",
            lambda b, y, tol, a=(), limit=None: (np.zeros_like(y), np.zeros(y.shape, bool)),
        )
        monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 4)
        code, out, err = run_cli(
            ["moments", "--lambda", "3", "--alpha", "3,-3,0", "--mu", "0", "--cs-alpha", "1"]
        )
        assert code == 2 and not out
        assert err.startswith("error: Meijer-G continuation at y = ") and err.count("\n") == 1
        assert "missed its remainder bound" in err and "Traceback" not in err

    def test_overflowing_continuation_is_a_one_line_error(self):
        # b = -0.9995 in the k = 0 weight: continued down towards y = 1e-312,
        # the state overflows; no numpy warning reaches the user
        code, out, err = run_cli(
            ["moments", "--lambda", "3", "--alpha", "3.5,-5.4985,1.9985", "--mu", "0",
             "--cs-alpha", "0"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: Meijer-G continuation overflowed its state at y = ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestOptionTable:
    @pytest.mark.parametrize("workload", ["figures", "moments", "oracle"])
    def test_benchmark_traffic_parses(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        try:
            from workloads import make_ops

            ops = make_ops(workload, 1)
        finally:
            sys.modules.pop("workloads", None)
        for op in ops:
            args = parse_args([*op.argv, "--out", "op.csv"])
            assert args.command == op.argv[0] and args.out == "op.csv"

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "4a", "--lambda", "3"],
            ["moments", "--lambda", "2", "--alpha", "3,-3", "--cs-alpha", "1", "--k", "128"],
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["mandel", "squeeze"])
def test_oracle_column_where_the_norm_overflows(command):
    # lambda = 2, alpha = (3, -3): the eigenstate norm exceeds double range at |z| = 27
    code, out, _ = run_cli(
        [command, "--family", "eigen", "--lambda", "2", "--alpha", "3,-3", "--grid", "27:28:2"]
    )
    assert code == 0
    rows = [[float(v) for v in l.split(",")] for l in out.splitlines()[2:]]
    assert len(rows) == 2
    for row in rows:
        closed, oracle = (row[1:2], row[2:3]) if command == "mandel" else (row[1:3], row[3:5])
        assert oracle == pytest.approx(closed, rel=1e-8)


def test_untruncatable_grid_row_is_a_one_line_error():
    # the message names the grid point, so the user knows which --grid end to pull in
    for argv, message in (
        # lambda = 3, (mu, alpha) = (0, 1): the |z| = 40 row peaks past level 1024
        (["--family", "sector", "--lambda", "3", "--alpha", "3,-3,0", "--cs-alpha", "1",
          "--grid", "0.5:40:3"], "tail bound 1.000e+00 above 1e-10 at |z| = 40, dim = 1024"),
        # lambda = 2: the |z| = 30.25 eigenstate, the first row that misses, peaks at level 914
        (["--family", "eigen", "--lambda", "2", "--alpha", "1,-1", "--grid", "0.5:60:3"],
         "tail bound 2.012e-04 above 1e-10 at |z| = 30.25, dim = 1024"),
    ):
        code, out, err = run_cli(["mandel", *argv])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["mandel", "--family", "eigen", "--grid", "0.05:3:40"], {"eigenstate": 1}),
        (["mandel", "--family", "sector", "--cs-alpha", "1", "--grid", "0.05:3:40"],
         {"cs_alpha_state": 1}),
        (["squeeze", "--family", "eigen", "--kind", "real", "--direction", "im", "--grid",
          "0.05:3:40"], {"eigenstate": 1}),
        (["squeeze", "--family", "sector", "--grid", "0.05:3:40"], {"cs_alpha_state": 1}),
        (["verify", "observables"], {"eigenstate": 1, "cs_alpha_state": 1}),
    ],
)
def test_oracle_builds_each_grid_once(monkeypatch, argv, builds):
    # the oracle column is one state build per grid (per family in verify), not one per point
    import clext.observables as obs

    calls = {"eigenstate": 0, "cs_alpha_state": 0}
    for name in calls:
        original = getattr(obs, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(obs, name, counted)
    code, out, _ = run_cli([*argv, "--lambda", "3", "--alpha", "3,-3,0"])
    assert code == 0
    assert calls == {"eigenstate": 0, "cs_alpha_state": 0, **builds}
