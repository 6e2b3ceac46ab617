import contextlib
import io
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from clext import cli, specfun, states
from clext.cli import build_parsers, main, parse_args

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


class TestToleranceAndOrders:
    @pytest.mark.parametrize("tol, why", [("nan", "not finite"), ("inf", "not finite"),
                                          ("-1", "not positive"), ("0", "not positive")])
    @pytest.mark.parametrize("argv", [["moments"], ["verify", "algebra"], ["resolution"]])
    def test_bad_tolerance_is_a_usage_error(self, argv, tol, why, capsys):
        # refused by the parser: a nan tolerance would fail every row, inf pass any
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lambda", "2", "--alpha", "3,-3", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [l for l in captured.err.splitlines() if "error:" in l]
        assert len(errors) == 1 and f"argument --tol: '{tol}' is {why}" in errors[0]
        assert captured.out == ""

    @pytest.mark.parametrize("argv, name", [(["moments", "--k-max", "-1"], "k_max"),
                                            (["resolution", "--n-max", "-1"], "n_max")])
    def test_negative_order_names_its_argument(self, argv, name):
        code, out, err = run_cli([*argv, "--lambda", "2", "--alpha", "3,-3"])
        assert code == 2 and out == "" and err == f"error: {name} must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [["moments", "--k-max", "0"], ["resolution", "--n-max", "0"]])
    def test_order_zero_is_one_row(self, argv):
        code, out, err = run_cli([*argv, "--lambda", "2", "--alpha", "3,-3"])
        assert code == 0 and err == "" and out.splitlines()[2].startswith("0,")
        assert len(out.splitlines()) == 4


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

    def test_config_is_not_a_key(self, tmp_path):
        # a config file cannot name another one: the line is refused, not ignored
        cfg = tmp_path / "run.conf"
        cfg.write_text("lam = 2\nalpha_csv = 3,-3\nconfig = nowhere.cfg\n")
        code, out, err = run_cli(["validate", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err == ("error: config key 'config' is not an option of clext validate; "
                       "its keys are lam, alpha_csv, out\n")

    @pytest.mark.parametrize("value, code", [("true", 0), ("false", 2)])
    def test_switch_value_sets_or_leaves_the_switch(self, tmp_path, value, code):
        # (mu, alpha) = (1, 1) of lambda = 3, alpha = (3, -3, 0) has no positivity
        # certificate: moments evaluates it only with --allow-unsigned
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"lam = 3\nalpha_csv = 3,-3,0\nmu = 1\ncs_alpha = 1\nallow_unsigned = {value}\n")
        got, out, err = run_cli(["moments", "--config", str(cfg)])
        assert got == code
        if code:
            assert out == "" and err.startswith("error: no positive weight function available")
        else:
            assert "form = meijer_unsigned" in out and err == ""

    @pytest.mark.parametrize("value", ["yes", "True", "1", ""])
    def test_bad_switch_value_is_a_one_line_error(self, tmp_path, value):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"lam = 2\nalpha_csv = 3,-3\nallow_unsigned = {value}\n")
        code, out, err = run_cli(["moments", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err == (f"error: config key 'allow_unsigned' is a switch: its value is true or false, "
                       f"got {value!r}\n")

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


# the clext modules loaded in a fresh process after `import clext.cli` and,
# when argv is given, one command
_LOADED = """import contextlib, io, sys
import clext.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = clext.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(m for m in sys.modules if m.startswith("clext")))
"""
# what `import clext.cli` loads; a command adds the modules it runs
PARSER_LAYER = {"clext", "clext.algebra", "clext.errors", "clext.cli"}


def _loaded_after(argv):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, check=True)
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


# none of these loads specfun, measures, bargmann or quadrature
@pytest.mark.parametrize("argv,added", [
    ([], set()),
    (["verify", "algebra", "--lambda", "3", "--alpha", "2,-1.5,-0.5"], set()),
    (["state", "--lambda", "3", "--alpha", "2,-1.5,-0.5"], {"clext.states"}),
    (["figure", "4a"], {"clext.figures", "clext.observables", "clext.states"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, added):
    assert _loaded_after(argv) == (0, PARSER_LAYER | added)


def test_moments_loads_the_special_functions():
    code, modules = _loaded_after(["moments", "--lambda", "3", "--alpha", "3,-3,0",
                                   "--mu", "0", "--cs-alpha", "1"])
    assert code == 0 and "clext.specfun" in modules


def test_verify_failure_exits_one():
    # an unreachable tolerance must flip the exit code to 1
    code, out, _ = run_cli(
        ["verify", "moments", "--lambda", "3", "--alpha", "3,-3,0",
         "--cs-alpha", "1", "--mu", "0", "--tol", "1e-16"]
    )
    assert code == 1
    assert "False" in out


@pytest.mark.parametrize("lam, alpha", [("2", "3,-3"), ("3", "3,-3,0")])
def test_verify_resolution_rows(lam, alpha):
    # one row per level of the diagonal_alpha0 resolution; lambda = 2 takes
    # the same family call as lambda = 3
    argv = ["verify", "resolution", "--lambda", lam, "--alpha", alpha]
    code, out, _ = run_cli(argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,residual,passed"
    assert [line.split(",")[0] for line in lines[1:]] == [f"<{n}|I|{n}>" for n in range(7)]
    assert all(line.endswith(",True") for line in lines[1:])
    code, out, _ = run_cli(argv + ["--tol", "1e-30"])
    assert code == 1 and ",False" in out


def test_state_dump_of_a_sector_state():
    # |z; mu = 1; alpha = 1> at lambda = 3 lives on the levels n = 1 (mod 3)
    code, out, _ = run_cli(
        ["state", "--lambda", "3", "--alpha", "3,-3,0", "--mu", "1", "--cs-alpha", "1",
         "--z-re", "1.2", "--z-im", "0.5", "--k", "24"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# |z; mu; alpha> with z = (1.2+0.5j), mu = 1, alpha = 1"
    assert re.fullmatch(r"# norm_series = \S+, tail_bound = \S+", lines[1])
    assert lines[2] == "n,re_c,im_c"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
    live = rows[:, 1] ** 2 + rows[:, 2] ** 2 > 0.0
    assert (rows[live, 0] % 3 == 1).all() and live[rows[:, 0] % 3 == 1].all()


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
            lambda a, b, y, tol, shifts=(): (np.zeros((len(shifts) + 1,) + y.shape),
                                              np.zeros((len(shifts) + 1,) + y.shape, bool)),
        )
        monkeypatch.setattr(specfun, "_TAYLOR_TERMS", 4)
        code, out, err = run_cli(
            ["moments", "--lambda", "3", "--alpha", "3,-3,0", "--mu", "0", "--cs-alpha", "1"]
        )
        assert code == 2 and not out
        assert err.startswith("error: Meijer-G continuation at y = ") and err.count("\n") == 1
        assert "missed its remainder bound" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["resolution", "--mode", "diagonal_alpha0"],
                                      ["bargmann-check", "--mu", "0", "--cs-alpha", "1"]])
    def test_family_row_that_overflows_takes_its_own_list(self, argv):
        # the alpha = 0 family call of this lambda = 10 algebra overflows on
        # rows 8 and 9 at y = 1.73e-322, where their own lists are finite: an
        # inf row was accepted (inf <= inf), and the moment k = 0 was not finite
        alpha = ("13.397294793669921,-14.27454949410406,24.504598703253592,"
                 "-21.57543422612672,-5.064013201899911,0.5143316742134068,"
                 "-3.9325766160941065,-0.6834418144622632,9.084098505365176,"
                 "-1.9703083238150327")
        code, out, err = run_cli([*argv, "--lambda", "10", "--alpha", alpha])
        assert code == 0 and not err, err

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


def _workload_argvs(workload):
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import make_ops

        return [op.argv for seed in (1, 2, 3) for op in make_ops(workload, seed)]
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("workloads", None)


def _top_level_parse_args(argv):
    """parse_args as whole passes of the top-level parser: the reference the
    command's own subparser must match, namespace, messages and exit code."""
    top = build_parsers()[0]
    args = top.parse_args(argv)
    if args.config:
        args = top.parse_args([args.command, *cli._config_argv(args), *argv[1:]])
    return args


class TestCommandParser:
    @pytest.mark.parametrize("workload", ["figures", "moments", "oracle"])
    def test_namespace_is_the_top_level_one(self, workload):
        for argv in _workload_argvs(workload):
            # the '=' form the top-level parser needs for a leading-minus --alpha
            joined = " ".join(argv).replace("--alpha ", "--alpha=").split(" ")
            got, want = (
                [(k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(ns).items()]
                for ns in (parse_args(argv), _top_level_parse_args(joined)))
            # the same values in the same order: config errors list the keys in it
            assert got == want, argv

    BAD = {
        "unknown flag": ["verify", "states", "--lambda", "2", "--alpha", "3,-3", "--bogus", "1"],
        "extra positional": ["verify", "states", "extra", "--lambda", "2", "--alpha", "3,-3"],
        "missing positional": ["verify", "--lambda", "2", "--alpha", "3,-3"],
        "bad choice": ["mandel", "--family", "x", "--lambda", "2", "--alpha", "3,-3"],
        "bad int": ["verify", "states", "--lambda", "x"],
        "nan z": ["state", "--lambda", "2", "--alpha", "3,-3", "--z-re", "nan"],
        "bad grid": ["mandel", "--lambda", "2", "--alpha", "3,-3", "--grid", "1:2"],
        "bad config key": ["verify", "states", "--config", "{dir}/key.cfg"],
        "bad config value": ["verify", "states", "--config", "{dir}/value.cfg"],
        "config and flags": ["verify", "states", "--config", "{dir}/good.cfg", "--mu", "1"],
        "no command": [],
        "unknown command": ["bogus"],
        "help": ["-h"],
        "command help": ["verify", "-h"],
        "version": ["--version"],
        "flag of another command": ["moments", "--lambda", "2", "--alpha", "3,-3", "--k", "12"],
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_output_and_exit_code_are_the_top_level_ones(self, case, tmp_path, monkeypatch):
        (tmp_path / "key.cfg").write_text("lambda = 2\n")
        (tmp_path / "value.cfg").write_text("mu = x\n")
        (tmp_path / "good.cfg").write_text("lam = 2\nalpha_csv = 3,-3\n")
        argv = [tok.format(dir=tmp_path) for tok in self.BAD[case]]

        def captured():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse's usage errors, -h and --version
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        got = captured()
        monkeypatch.setattr(cli, "parse_args", _top_level_parse_args)
        assert got == captured()

    @pytest.mark.parametrize("argv, value", [
        (["squeeze", "--lambda", "2", "--alpha", "1,-1", "--grid"], "-1:1:3"),
        (["figure", "5a", "--grid"], "-3:-0.02:4"),
        (["state", "--lambda", "2", "--alpha", "3,-3", "--z-re"], "-1e-1"),
    ])
    def test_leading_minus_value_needs_no_equals(self, argv, value):
        # any value-taking flag, not only --alpha, reads as its '=' form
        code, out, err = run_cli([*argv, value])
        assert code == 0 and err == "" and out
        assert (code, out, err) == run_cli([*argv[:-1], f"{argv[-1]}={value}"])

    def test_a_flag_is_no_value(self, capsys):
        # '--' or a long flag after a value-taking flag leaves it without a value
        for argv in (["--lambda", "2", "--alpha", "--"], ["--alpha", "--lambda", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "states", *argv])
            assert exc.value.code == 2
            assert "argument --alpha: expected one argument" in capsys.readouterr().err


def test_out_file_holds_the_stdout_bytes(tmp_path):
    argv = ["verify", "states", "--lambda", "3", "--alpha", "3,-3,0"]
    code, out, _ = run_cli(argv)
    path = tmp_path / "op.csv"
    path.write_bytes(b"x" * 10_000)  # a longer file is truncated, not overwritten in place
    assert run_cli([*argv, "--out", str(path)]) == (code, "", "")
    assert path.read_bytes() == out.encode("utf-8")


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


GRID_COMMANDS = [
    ["mandel", "--family", "eigen", "--grid", "0.05:3:40"],
    ["mandel", "--family", "sector", "--cs-alpha", "1", "--grid", "0.05:3:40"],
    ["squeeze", "--family", "eigen", "--kind", "real", "--direction", "im", "--grid", "0.05:3:40"],
    ["squeeze", "--family", "sector", "--grid", "0.05:3:40"],
    ["verify", "observables"],
]


@pytest.mark.parametrize(
    "argv, builds",
    zip(GRID_COMMANDS, [{"eigenstate": 1}, {"cs_alpha_state": 1}, {"eigenstate": 1},
                        {"cs_alpha_state": 1}, {"eigenstate": 1, "cs_alpha_state": 1}]),
)
def test_oracle_builds_each_grid_once(monkeypatch, argv, builds):
    # the oracle column is one state build per grid (per family in verify), not
    # one per point: the builders' coefficient step on the closed column's
    # weights; observables does not even import the public builders
    import clext.observables as obs

    assert not hasattr(obs, "eigenstate") and not hasattr(obs, "cs_alpha_state")
    steps = {"eigenstate": 0, "cs_alpha_state": 0}
    original_step = obs._coefficients

    def counted_step(z, n, *rest):
        # the eigenstate has every level, a sector state every lambda-th
        steps["eigenstate" if n[1] - n[0] == 1 else "cs_alpha_state"] += 1
        return original_step(z, n, *rest)

    monkeypatch.setattr(obs, "_coefficients", counted_step)
    code, out, _ = run_cli([*argv, "--lambda", "3", "--alpha", "3,-3,0"])
    assert code == 0
    assert steps == {"eigenstate": 0, "cs_alpha_state": 0, **builds}


@pytest.mark.parametrize("argv, grids", zip(GRID_COMMANDS, [[40]] * 4 + [[5, 2]]))
def test_one_core_call_per_grid(monkeypatch, argv, grids):
    # both columns of a grid read one Fock-weight core call
    import clext.observables as obs
    import clext.states as states

    sizes = []
    original = states._fock_weights

    def counted(params, z_abs, *args):
        sizes.append(np.size(z_abs))
        return original(params, z_abs, *args)

    monkeypatch.setattr(states, "_fock_weights", counted)
    monkeypatch.setattr(obs, "_fock_weights", counted)
    code, out, _ = run_cli([*argv, "--lambda", "3", "--alpha", "3,-3,0"])
    assert code == 0
    assert sizes == grids


def test_csv_rows_print_what_the_format_spec_prints():
    # one % operation per document: "%.12g" % v and "%.3e" % v are the
    # f-string's text for every double, random bit patterns, specials and
    # subnormals included, and "%d" is str() for the row indices
    from clext.cli import csv_rows

    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64).tolist()
    values = bits + [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -2.2e-308, 1e300]
    ints = list(range(len(values)))
    got = csv_rows("%d,%.12g,%.3e", ints, values, values)
    want = "".join(f"{i},{v:.12g},{v:.3e}\n" for i, v in zip(ints, values))
    assert got == want


# the rows bargmann-check printed before it had Hermiticity rows for the
# vector and eigenstate bases and intertwining rows: they keep their bytes,
# but for the sector Hermiticity residual, quadrature rounding that follows
# the order in which the moment sums add their terms
BARGMANN_ROWS = {
    ("2", "3,-3"): """basis,op_pair,max_residual
eigenstate,[a,adag],0.000e+00
sector(mu=0,alpha=0),[J+,J-],0.000e+00
sector(mu=0,alpha=0),[J0,Jminus],0.000e+00
sector(mu=0,alpha=0),[J0,Jplus],0.000e+00
sector(mu=0,alpha=1),[J+,J-],0.000e+00
sector(mu=0,alpha=1),[J0,Jminus],0.000e+00
sector(mu=0,alpha=1),[J0,Jplus],0.000e+00
sector(mu=1,alpha=0),[J+,J-],0.000e+00
sector(mu=1,alpha=0),[J0,Jminus],0.000e+00
sector(mu=1,alpha=0),[J0,Jplus],0.000e+00
vector_alpha0,[a,adag],0.000e+00
sector(mu=0),J+/J- hermiticity,4.934e-17
""",
    ("3", "3,-3,0"): """basis,op_pair,max_residual
eigenstate,[a,adag],0.000e+00
sector(mu=0,alpha=0),[J+,J-],4.480e-16
sector(mu=0,alpha=0),[J0,Jminus],1.998e-16
sector(mu=0,alpha=0),[J0,Jplus],1.086e-16
sector(mu=0,alpha=1),[J+,J-],3.438e-16
sector(mu=0,alpha=1),[J0,Jminus],6.661e-17
sector(mu=0,alpha=1),[J0,Jplus],9.992e-17
sector(mu=1,alpha=0),[J+,J-],9.504e-16
sector(mu=1,alpha=0),[J0,Jminus],1.615e-16
sector(mu=1,alpha=0),[J0,Jplus],1.190e-16
sector(mu=1,alpha=1),[J+,J-],4.073e-16
sector(mu=1,alpha=1),[J0,Jminus],0.000e+00
sector(mu=1,alpha=1),[J0,Jplus],1.120e-16
sector(mu=2,alpha=0),[J+,J-],1.354e-15
sector(mu=2,alpha=0),[J0,Jminus],2.414e-16
sector(mu=2,alpha=0),[J0,Jplus],1.063e-16
vector_alpha0,[a,adag],7.105e-15
sector(mu=0),J+/J- hermiticity,5.921e-15
""",
}


# one algebra per lambda at which the families (mu, alpha) = (1, 0), (0, 1)
# and (1, 1) all hold a positivity certificate
CERTIFIED = {"3": "3.5,-1,-2.5", "4": "1,-1,-2,2"}
# bargmann-check at lambda = 3, CERTIFIED["3"], (mu, alpha) = (1, 1)
CERTIFIED_DOC = """basis,op_pair,max_residual
eigenstate,[a,adag],0.000e+00
sector(mu=0,alpha=0),[J+,J-],5.404e-16
sector(mu=0,alpha=0),[J0,Jminus],0.000e+00
sector(mu=0,alpha=0),[J0,Jplus],1.074e-16
sector(mu=0,alpha=1),[J+,J-],0.000e+00
sector(mu=0,alpha=1),[J0,Jminus],0.000e+00
sector(mu=0,alpha=1),[J0,Jplus],0.000e+00
sector(mu=1,alpha=0),[J+,J-],3.445e-16
sector(mu=1,alpha=0),[J0,Jminus],0.000e+00
sector(mu=1,alpha=0),[J0,Jplus],1.110e-16
sector(mu=1,alpha=1),[J+,J-],0.000e+00
sector(mu=1,alpha=1),[J0,Jminus],0.000e+00
sector(mu=1,alpha=1),[J0,Jplus],0.000e+00
sector(mu=2,alpha=0),[J+,J-],4.505e-16
sector(mu=2,alpha=0),[J0,Jminus],0.000e+00
sector(mu=2,alpha=0),[J0,Jplus],1.332e-16
vector_alpha0,[a,adag],3.553e-15
sector(mu=1),J+/J- hermiticity,5.220e-15
vector_alpha0,adag/a hermiticity,4.793e-15
eigenstate,adag/a hermiticity,4.944e-15
sector(mu=1,alpha=1),N intertwining,5.551e-17
sector(mu=1,alpha=1),J0 intertwining,1.084e-19
sector(mu=1,alpha=1),Jplus intertwining,1.110e-16
sector(mu=1,alpha=1),Jminus intertwining,8.674e-19
vector_alpha0,a intertwining,1.110e-16
vector_alpha0,adag intertwining,1.251e-17
vector_alpha0,N intertwining,5.551e-17
vector_alpha0,J0 intertwining,3.469e-18
vector_alpha0,Jplus intertwining,1.110e-16
vector_alpha0,Jminus intertwining,1.119e-16
eigenstate,a intertwining,1.110e-16
eigenstate,adag intertwining,1.110e-16
eigenstate,N intertwining,2.711e-20
eigenstate,J0 intertwining,2.776e-17
eigenstate,Jplus intertwining,1.110e-16
eigenstate,Jminus intertwining,1.186e-16
"""


class TestBargmannCheck:
    @pytest.mark.parametrize("lam, alpha", list(BARGMANN_ROWS))
    def test_every_basis_has_each_kind_of_row(self, lam, alpha):
        code, out, err = run_cli(["bargmann-check", "--lambda", lam, "--alpha", alpha])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "basis,op_pair,max_residual"
        # basis label (with its parenthesized sector), op or pair, residual
        parsed = [re.fullmatch(r"(\w+(?:\([^)]*\))?),(.*),([^,]*)", line).groups()
                  for line in lines[1:]]
        for basis in ("sector", "vector_alpha0", "eigenstate"):
            rows = [row for label, row, _ in parsed if label.startswith(basis)]
            assert any(row.startswith("[") for row in rows), basis  # a commutator
            assert any(row.endswith(" hermiticity") for row in rows), basis
            ops = {row.split()[0] for row in rows if row.endswith(" intertwining")}
            assert ops == ({"N", "J0", "Jplus", "Jminus"} if basis == "sector"
                           else {"a", "adag", "N", "J0", "Jplus", "Jminus"}), basis
        assert all(float(res) < 1e-10 for _, _, res in parsed)

    @pytest.mark.parametrize("lam, alpha", list(BARGMANN_ROWS))
    def test_former_rows_keep_their_bytes(self, lam, alpha):
        code, out, _ = run_cli(["bargmann-check", "--lambda", lam, "--alpha", alpha])
        assert code == 0 and out.startswith(BARGMANN_ROWS[lam, alpha])

    @pytest.mark.parametrize("lam, alpha", list(BARGMANN_ROWS))
    def test_unmet_tolerance_exits_one(self, lam, alpha):
        # the Hermiticity rows carry quadrature rounding far above 1e-30
        code, out, _ = run_cli(["bargmann-check", "--lambda", lam, "--alpha", alpha,
                                "--tol", "1e-30"])
        assert code == 1 and out.count(" hermiticity,") == 3

    def test_sector_outside_the_family_is_a_usage_error(self):
        code, out, err = run_cli(["bargmann-check", "--lambda", "3", "--alpha", "3,-3,0",
                                  "--mu", "2", "--cs-alpha", "1"])
        assert code == 2 and out == "" and err == (
            "error: only the trivial solution exists for mu = 2, alpha = 1\n")

    @pytest.mark.parametrize("mu, cs_alpha", [(1, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("lam", list(CERTIFIED))
    def test_certified_families_pass(self, lam, mu, cs_alpha):
        # the vector_alpha0 rows hold at any --cs-alpha: its transform is family 0
        code, out, err = run_cli(["bargmann-check", "--lambda", lam, "--alpha", CERTIFIED[lam],
                                  "--mu", str(mu), "--cs-alpha", str(cs_alpha)])
        assert code == 0 and err == ""
        assert f"sector(mu={mu}),J+/J- hermiticity," in out
        rows = [line.rsplit(",", 1) for line in out.splitlines() if " intertwining," in line]
        assert len(rows) == 16 and all(float(res) < 1e-10 for _, res in rows)

    def test_uncertified_member_names_the_skipped_check(self):
        # (0, 1) of lambda = 2, alpha = (0.5, -0.5) has no positivity certificate:
        # the table has no sector Hermiticity row, and one # line after it says why
        code, out, err = run_cli(["bargmann-check", "--lambda", "2", "--alpha", "0.5,-0.5",
                                  "--mu", "0", "--cs-alpha", "1"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert "J+/J- hermiticity" not in "\n".join(lines[:-1])
        assert [line for line in lines if line.startswith("#")] == [lines[-1]] == [
            "# sector(mu=0),J+/J- hermiticity skipped: no positivity certificate for "
            "(mu, alpha) = (0, 1): no injective assignment a_i > b_j exists"]

    def test_certified_family_keeps_its_bytes(self):
        code, out, _ = run_cli(["bargmann-check", "--lambda", "3", "--alpha", CERTIFIED["3"],
                                "--mu", "1", "--cs-alpha", "1"])
        assert code == 0 and out == CERTIFIED_DOC


# a command -> the check_sector calls it makes: a sector is checked where it
# enters (apply_realization, bargmann_transform, sector_lists, h_moment), and the
# realizations, the moment targets and the order bound read its cached lists
# (21, 81 and 141 when each of those checked again)
SECTOR_CHECKS = [
    (["moments", "--lambda", "3", "--alpha", "3,-3,0", "--mu", "0", "--cs-alpha", "1"], 2),
    (["verify", "bargmann", "--lambda", "4", "--alpha", "1,2,-1,-2"], 27),
    (["bargmann-check", "--lambda", "4", "--alpha", "1,2,-1,-2", "--mu", "0", "--cs-alpha", "1"], 69),
]


@pytest.mark.parametrize("argv, count", SECTOR_CHECKS, ids=[argv[0] for argv, _ in SECTOR_CHECKS])
def test_a_sector_is_checked_where_it_enters(monkeypatch, argv, count):
    calls = []
    check = states.check_sector
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("clext.") and getattr(module, "check_sector", None) is check:
            monkeypatch.setattr(module, "check_sector", lambda *a: calls.append(a) or check(*a))
    code, _, err = run_cli(argv)
    assert code == 0 and err == ""
    assert len(calls) == count
