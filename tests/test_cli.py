import os
import subprocess
import sys

import numpy as np
import pytest

from plap import cli


EXP2 = """\
variant = warped
m = 2
warp.kind = exponential
warp.beta = 1
"""

EUCLID3 = """\
variant = euclidean
m = 3
"""

COSH3 = """\
variant = warped
m = 3
warp.kind = cosh
"""


@pytest.fixture
def euclid3(tmp_path):
    f = tmp_path / "euclid3.cfg"
    f.write_text(EUCLID3)
    return str(f)


@pytest.fixture
def exp2(tmp_path):
    f = tmp_path / "exp2.cfg"
    f.write_text(EXP2)
    return str(f)


def test_solve_writes_solution(tmp_path, euclid3, capsys):
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "3", "--a", "1",
                  "--b", "2", "--nodes", "129", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "energy_p = " in out
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,value,grad_mag,weight"
    assert len(lines) == 130


def test_solve_invalid_p(tmp_path, euclid3):
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "0.5",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID


def test_solve_nonconvergence_exit_code(tmp_path, euclid3):
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "4", "--nodes",
                  "129", "--max-iters", "1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE


def test_unknown_subcommand():
    assert cli.run(["frobnicate"]) == cli.EXIT_INVALID


def test_missing_manifold_file(tmp_path):
    rc = cli.run(["capacity", "--manifold", str(tmp_path / "nope.cfg"),
                  "--p", "2", "--a", "1", "--b", "2"])
    assert rc == cli.EXIT_INVALID


def test_bad_config_line(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("variant euclidean\n")
    rc = cli.run(["classify", "--manifold", str(f), "--p", "2"])
    assert rc == cli.EXIT_INVALID


def test_capacity_oracle(tmp_path, euclid3, capsys):
    rc = cli.run(["capacity", "--manifold", euclid3, "--p", "2",
                  "--a", "1", "--b", "2", "--nodes", "513",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    ana = [ln for ln in out.splitlines() if ln.startswith("analytic")][0]
    assert float(ana.split("=")[1]) == pytest.approx(8 * np.pi)


def test_classify(euclid3, exp2, capsys):
    assert cli.run(["classify", "--manifold", euclid3, "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "Hyperbolic"
    assert cli.run(["classify", "--manifold", euclid3, "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Parabolic"
    assert cli.run(["classify", "--manifold", exp2, "--p", "2",
                    "--direction", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "Parabolic"


def test_barrier_needs_hyperbolic_ends(tmp_path, exp2):
    # the exponential surface is parabolic toward -inf
    rc = cli.run(["barrier", "--manifold", exp2, "--p", "2",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID


def test_barrier_cosh(tmp_path, capsys):
    cfg = tmp_path / "cosh3.cfg"
    cfg.write_text(COSH3)
    rc = cli.run(["barrier", "--manifold", str(cfg), "--p", "2",
                  "--tmin", "-8", "--tmax", "8", "--nodes", "257",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "barrier.csv").exists()


def test_continuation_csv(tmp_path, euclid3):
    rc = cli.run(["continuation", "--manifold", euclid3, "--p", "3",
                  "--nodes", "65", "--steps", "12", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "continuation.csv").read_text().splitlines()
    assert lines[0] == "eps,E_p,E_p_eps,w1p_dist_to_final"
    assert len(lines) == 13


def test_decay_pass_and_fail(tmp_path, exp2):
    ok = cli.run(["decay", "--manifold", exp2, "--p", "2", "--r0", "1",
                  "--lambda-p", "0.25", "--R", "2", "3", "4",
                  "--out", str(tmp_path)])
    assert ok == cli.EXIT_OK
    assert (tmp_path / "decay.csv").read_text().splitlines()[0] == \
        "R,tail,bound,pass"
    # an absurd spectral bound makes the decay requirement fail
    bad = cli.run(["decay", "--manifold", exp2, "--p", "2", "--r0", "1",
                   "--lambda-p", "1000", "--R", "2", "3", "4",
                   "--out", str(tmp_path)])
    assert bad == cli.EXIT_CHECK_FAILED


def test_volume(tmp_path, exp2):
    rc = cli.run(["volume", "--manifold", exp2, "--p", "2",
                  "--lambda-p", "0.25", "--R", "2", "4", "6",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK


def test_volume_infinite_tail_fails(tmp_path, euclid3, capsys):
    # a parabolic end of infinite volume: no bound can hold
    rc = cli.run(["volume", "--manifold", euclid3, "--p", "3.5",
                  "--lambda-p", "0.1", "--R", "1", "2", "4",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK_FAILED
    rows = (tmp_path / "volume.csv").read_text().splitlines()
    assert rows[1:] == ["1,inf,inf,False", "2,inf,inf,False", "4,inf,inf,False"]


def test_solve_cold_start_stall_recovers(tmp_path, exp2, capsys):
    # exited 3 with residual 0.37 before the retry along the decade path
    rc = cli.run(["solve", "--manifold", exp2, "--p", "1.5097", "--eps",
                  "3.49e-7", "--a", "0", "--b", "4", "--nodes", "1025",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    # the failed cold attempt's 50 iterations count too
    assert int(out.split("iterations = ")[1].split()[0]) > 50


def test_verify_kato(tmp_path, capsys):
    rc = cli.run(["verify", "kato", "--gallery", "b", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    body = (tmp_path / "verify_kato.csv").read_text()
    assert body.splitlines()[0] == "check,min,max,threshold,pass"
    assert ",pass" in body.splitlines()[1]


def test_verify_needs_target():
    assert cli.run(["verify", "kato"]) == cli.EXIT_INVALID
    assert cli.run(["verify", "frob"]) == cli.EXIT_INVALID


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_verify_kato_invalid_p(tmp_path, capsys, p):
    # p = 1 used to reach the exponent (p-m)/(p-1) of the power field
    rc = cli.run(["verify", "kato", "--p", p, "--m", "3",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert "p must exceed 1" in capsys.readouterr().err
    assert not (tmp_path / "verify_kato.csv").exists()


def test_verify_monotonicity(tmp_path):
    rc = cli.run(["verify", "monotonicity", "--samples", "2000",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK


def test_verify_regularization(tmp_path):
    rc = cli.run(["verify", "regularization", "--samples", "500",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK


def test_gallery_and_report(tmp_path):
    assert cli.run(["gallery", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "gallery.csv").exists()
    assert cli.run(["report", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "report.txt").read_text().startswith("overall: pass")


def test_outputs_deterministic(tmp_path, euclid3):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        rc = cli.run(["continuation", "--manifold", euclid3, "--p", "3",
                      "--nodes", "65", "--steps", "10", "--out", str(d)])
        assert rc == cli.EXIT_OK
        rc = cli.run(["verify", "kato", "--gallery", "a", "--out", str(d)])
        assert rc == cli.EXIT_OK
    for name in ("continuation.csv", "verify_kato.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_launch_imports_no_interpolate_or_integrate(tmp_path):
    # a fresh interpreter: pytest's warning filters import scipy.integrate
    cfg = tmp_path / "euclid3.cfg"
    cfg.write_text(EUCLID3)
    code = (
        "import sys\n"
        "import plap.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith(\n"
        "    ('scipy.interpolate', 'scipy.integrate')))\n"
        "assert not loaded(), loaded()\n"
        f"assert plap.cli.run(['classify', '--manifold', {str(cfg)!r}, '--p', '2']) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "Hyperbolic"
