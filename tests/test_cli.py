import argparse
import gc

import numpy as np
import pytest

from plap import cli
from plap import solver as sv
from plap import verifiers as vf
from plap.energy import EnergySpec
from plap.errors import InvalidInputError
from plap.geometry import (
    Cosh,
    Exponential,
    PolyEven,
    Power,
    euclidean,
    warped,
)
from plap.grid import Grid1D, dump_csv


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
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "4", "--eps", "1e-2",
                  "--nodes", "129", "--max-iters", "1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE


def test_solve_nonfinite_energy_exit_code(tmp_path, euclid3, capsys):
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "60", "--a", "1",
                  "--b", "1.000001", "--nodes", "65", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("end", [["--b", "inf"], ["--a", "nan"]])
def test_solve_nonfinite_end_exit_code(tmp_path, capsys, end):
    # --b inf exited 3 after RuntimeWarnings from np.linspace
    rc = cli.run(["solve", "--p", "3", *end, "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_unallocatable_grid_exit_code(tmp_path, capsys, monkeypatch):
    # --nodes 100000000000 died in np.linspace with a MemoryError
    # traceback and exit 1, the code of a failed check
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(Grid1D, "uniform", unallocatable)
    rc = cli.run(["solve", "--p", "3", "--nodes", "100000000000",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"
    assert not (tmp_path / "solution.csv").exists()


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


@pytest.fixture
def cosh3(tmp_path):
    f = tmp_path / "cosh3.cfg"
    f.write_text(COSH3)
    return str(f)


def test_capacity_near_p_one(tmp_path, cosh3, capsys):
    # the eps path's last decade left +2.1e-2 here, and the 1% check
    # exited 1; the eps = 0 minimizer is off by its discretization error
    rc = cli.run(["capacity", "--manifold", cosh3, "--p", "1.02", "--a", "-10",
                  "--b", "10", "--nodes", "4097", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rel = capsys.readouterr().out.splitlines()[-1]
    assert float(rel.split("=")[1]) < 1e-5


@pytest.mark.parametrize("argv, message", [
    # a bare OverflowError from Phi^(1-p), and from the tail's D^p
    (["capacity", "--manifold", "{euclid3}", "--p", "60", "--a", "1",
      "--b", "1.000001", "--nodes", "65"], "Phi^(1-p) is out of"),
    (["decay", "--manifold", "{exp2}", "--p", "150", "--lambda-p", "0.25",
      "--R", "2", "3"], "D^p is out of"),
    # R^(-p(p-1)) underflowed to 0: a RuntimeWarning, then NaN bounds
    (["volume", "--manifold", "{exp2}", "--p", "40", "--lambda-p", "0.25",
      "--R", "2", "4"], "no C can be fitted"),
], ids=["capacity", "decay", "volume"])
def test_out_of_range_numbers_exit_code(tmp_path, euclid3, exp2, capsys, argv,
                                        message):
    argv = [a.format(euclid3=euclid3, exp2=exp2) for a in argv]
    rc = cli.run(argv + ["--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


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


@pytest.mark.parametrize("radii, rc", [
    # a repeated R is invalid input: it made a 0/0 slope and exit 1
    (["2", "3", "3", "4"], cli.EXIT_INVALID),
    # tails that underflow to 0 meet the slope bound: log(0) made a NaN
    # slope and exit 1, or warned
    (["2", "800", "900"], cli.EXIT_OK),
    (["2", "800"], cli.EXIT_OK),
])
def test_decay_repeated_and_underflowed_radii(tmp_path, exp2, capsys, radii,
                                              rc):
    assert cli.run(["decay", "--manifold", exp2, "--p", "2",
                    "--lambda-p", "0.25", "--R", *radii,
                    "--out", str(tmp_path)]) == rc
    out = capsys.readouterr()
    if rc == cli.EXIT_INVALID:
        assert "distinct" in out.err
    else:
        assert "slope_ok = True, bound_ok = True" in out.out


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


@pytest.mark.parametrize("name, beta, radii, rc", [
    # a tail that underflowed to 0 at the smallest R fitted a constant of
    # 0, and every row passed 0 <= 0 (exit 0): e^t's energy tail, e^-t's
    # volume tail
    ("decay", "1", ["800", "900"], cli.EXIT_INVALID),
    ("volume", "-1", ["800", "900"], cli.EXIT_INVALID),
    ("volume", "-1", ["2", "4", "6"], cli.EXIT_OK),
])
def test_vanished_tail_at_smallest_radius(tmp_path, capsys, name, beta,
                                          radii, rc):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXP2.replace("beta = 1", "beta = " + beta))
    out = tmp_path / "out"
    assert cli.run([name, "--manifold", str(cfg), "--p", "2",
                    "--lambda-p", "0.25", "--R", *radii,
                    "--out", str(out)]) == rc
    if rc == cli.EXIT_INVALID:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "smallest R is not positive" in err
        assert not list(tmp_path.rglob("*.csv"))
    else:
        assert (out / (name + ".csv")).exists()


@pytest.mark.parametrize("name, beta, p, r0, radii", [
    # R^p of a negative R made complex bounds (exit 0, or a ComplexWarning
    # under -W error), R = 0 a ZeroDivisionError or a fitted C3 of inf
    ("volume", "-1", "2.2", None, ["-5", "2"]),
    ("volume", "1", "2", None, ["0", "2"]),
    ("decay", "1", "2", "-1", ["0", "2"]),
    ("decay", "1", "2.2", "-10", ["-5", "2"]),
])
def test_nonpositive_radius_is_invalid(tmp_path, capsys, name, beta, p, r0,
                                       radii):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXP2.replace("beta = 1", "beta = " + beta))
    r0 = [] if r0 is None else ["--r0", r0]
    assert cli.run([name, "--manifold", str(cfg), "--p", p, *r0,
                    "--lambda-p", "0.25", "--R", *radii,
                    "--out", str(tmp_path / "out")]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: R values must be positive\n"
    assert not list(tmp_path.rglob("*.csv"))


def test_solve_converges_cold(tmp_path, exp2, capsys):
    # exited 3 with residual 0.37 from the linear interpolant; the eps = 0
    # minimizer starts it a few Newton steps away
    rc = cli.run(["solve", "--manifold", exp2, "--p", "1.5097", "--eps",
                  "3.49e-7", "--a", "0", "--b", "4", "--nodes", "1025",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert int(out.split("iterations = ")[1].split()[0]) <= 6


def test_verify_kato(tmp_path, capsys):
    rc = cli.run(["verify", "kato", "--gallery", "b", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    body = (tmp_path / "verify_kato.csv").read_text()
    assert body.splitlines()[0] == "check,min,max,threshold,pass"
    assert ",pass" in body.splitlines()[1]


def test_verify_needs_target():
    assert cli.run(["verify", "kato"]) == cli.EXIT_INVALID
    assert cli.run(["verify", "frob"]) == cli.EXIT_INVALID


def _verify_row(tmp_path, argv):
    """The (min, max) row that ``verify`` wrote for argv, which must pass."""
    out = tmp_path / "_".join(argv)
    assert cli.run(["verify", *argv, "--out", str(out)]) == cli.EXIT_OK
    row = (out / ("verify_%s.csv" % argv[0])).read_text().splitlines()[1]
    return [float(v) for v in row.split(",")[1:3]]


@pytest.mark.parametrize("p, m", [(3.2, 4), (3, 3)])
def test_verify_kato_radial_field(tmp_path, p, m):
    # the benchmark's launch; at p = m the field is log t
    exact = 1 + (p - 1) ** 2 / (m - 1)
    for v in _verify_row(tmp_path, ["kato", "--p", str(p), "--m", str(m)]):
        assert abs(v - exact) <= 1e-3 * exact


@pytest.mark.parametrize("p, m", [(3, 5), (3, 3)])
@pytest.mark.parametrize("name, check", [
    ("strong_form", lambda f, p: vf.strong_form_residual(f, p)),
    ("bochner", lambda f, p: vf.bochner_residual(f, p, 1e-3)),
    ("bochner_s", lambda f, p: vf.bochner_s_residual(f, p, p - 2.0, 1e-3)),
], ids=["strong_form", "bochner", "bochner_s"])
def test_verify_identity_on_the_radial_field(tmp_path, name, check, p, m):
    # --m was ignored: these checks read gallery b (m = 4) at --p
    f = vf.power_radial_field(p=p, m=m) if p != m else vf.log_radial_field(m=m)
    rep = check(f, p)
    got = _verify_row(tmp_path, [name, "--p", str(p), "--m", str(m)])
    assert got == [float(cli.FMT % rep.minimum), float(cli.FMT % rep.maximum)]
    assert got != _verify_row(tmp_path, [name, "--p", str(p)])


@pytest.mark.parametrize("name", ["kato", "strong_form", "bochner",
                                  "bochner_s"])
def test_verify_m_needs_p(tmp_path, capsys, name):
    rc = cli.run(["verify", name, "--m", "4", "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: --m needs --p\n"
    assert not list(tmp_path.rglob("*.csv"))


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
    # it used to write nothing, --out or not
    rows = (tmp_path / "verify_monotonicity.csv").read_text().splitlines()
    assert rows[0] == "check,min,max,threshold,pass"
    assert [r.split(",")[0] for r in rows[1:]] == [
        "monotonicity_p1.5", "monotonicity_p2", "monotonicity_p3",
        "monotonicity_p4"]
    assert all(r.endswith(",0,pass") for r in rows[1:])


def test_verify_regularization(tmp_path, capsys):
    rc = cli.run(["verify", "regularization", "--samples", "500",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = (tmp_path / "verify_regularization.csv").read_text().splitlines()
    assert rows[0] == "check,min,max,threshold,pass"
    assert len(rows) == 2 and rows[1].startswith("regularization_gap,")
    assert rows[1].endswith(",0,pass")
    assert capsys.readouterr().out.splitlines()[-1].startswith("wrote ")


@pytest.mark.parametrize("name", ["strong_form", "bochner"])
def test_verify_identity_fails_at_a_wrong_p(tmp_path, name):
    # gallery b is the p = 3 power field; at p = 5 both checks exited 0
    out = tmp_path / "wrong"
    rc = cli.run(["verify", name, "--gallery", "b", "--p", "5",
                  "--out", str(out)])
    assert rc == cli.EXIT_CHECK_FAILED
    row = (out / ("verify_%s.csv" % name)).read_text().splitlines()[1]
    assert row.endswith(",FAIL") and row.split(",")[3] != "0"
    for tag in ("a", "b", "d"):
        rc = cli.run(["verify", name, "--gallery", tag, "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK, tag


def test_field_csv_is_the_table_in_twelve_digits(tmp_path, euclid3):
    # solve's CSV goes through the one writer: dump_csv's table in FMT
    rc = cli.run(["solve", "--manifold", euclid3, "--p", "3", "--nodes", "65",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    grid = Grid1D.uniform(1.0, 2.0, 65, manifold=cli.load_manifold(euclid3))
    f, _ = sv.solve_dirichlet(EnergySpec(3.0, 1e-6), grid, (1.0, 0.0))
    header, rows = dump_csv(f)
    want = "".join(",".join("%.12g" % v for v in r) + "\n" for r in rows)
    assert (tmp_path / "solution.csv").read_text() == header + "\n" + want


@pytest.mark.parametrize("argv", [
    ["verify", "kato", "--gallery", "a"],
    ["verify", "monotonicity", "--samples", "10"],
    ["solve", "--manifold", "{cfg}", "--p", "3", "--nodes", "65"],
    ["barrier", "--manifold", "{cosh}", "--p", "2", "--tmin", "-8", "--tmax",
     "8", "--nodes", "129"],
    ["decay", "--manifold", "{cfg}", "--p", "2", "--lambda-p", "0.25",
     "--R", "2", "4"],
])
def test_unwritable_out_prints_nothing(tmp_path, exp2, capsys, argv):
    # the CSV is written before anything is printed
    taken = tmp_path / "taken"
    taken.write_text("")
    cosh = tmp_path / "cosh3.cfg"
    cosh.write_text(COSH3)
    argv = [a.format(cfg=exp2, cosh=cosh) for a in argv]
    assert cli.run(argv + ["--out", str(taken)]) == cli.EXIT_INVALID
    assert capsys.readouterr().out == ""


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


def test_launch_imports_no_interpolate_or_integrate(tmp_path, fresh):
    # a fresh interpreter: pytest's warning filters import scipy.integrate.
    # LAPACK is scipy.linalg._flapack alone, without the scipy package,
    # whose __init__ costs about 10 ms, or scipy.linalg's, which more than
    # doubled a launch's import time; the first subcommand that solves
    # loads it, and a later import of the package shares that module
    cfg = tmp_path / "euclid3.cfg"
    cfg.write_text(EUCLID3)
    code = (
        "import sys\n"
        "import plap.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if (m == 'scipy'\n"
        "    or m.startswith('scipy.')) and m != 'scipy.linalg._flapack')\n"
        "has_lapack = lambda: 'scipy.linalg._flapack' in sys.modules\n"
        "assert not loaded(), loaded()\n"
        "assert not has_lapack()\n"
        f"assert plap.cli.run(['classify', '--manifold', {str(cfg)!r}, '--p', '2']) == 0\n"
        "assert not loaded(), loaded()\n"
        f"assert plap.cli.run(['gallery', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert not has_lapack()\n"
        f"assert plap.cli.run(['solve', '--manifold', {str(cfg)!r}, '--p', '3',\n"
        f"    '--a', '1', '--b', '2', '--nodes', '65', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert not loaded(), loaded()\n"
        "assert has_lapack()\n"
        "import scipy.linalg.lapack as lapack\n"
        "import plap.solver as sv\n"
        "assert sv.dgtsv is lapack.dgtsv and sv.dpbsv is lapack.dpbsv\n"
    )
    out = fresh(code, tmp_path)
    assert out[0] == "Hyperbolic"
    assert "iterations = 0" not in out


def test_launch_imports_errors_and_geometry(tmp_path, fresh):
    # what load_manifold, run and the parser need: no solver, no LAPACK
    code = (
        "import sys\n"
        "import plap.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m == 'scipy'\n"
        "      or m.startswith(('plap.', 'scipy.')))))\n"
    )
    assert fresh(code, tmp_path) == ["plap.cli plap.errors plap.geometry"]


# the plap modules a launch loads besides plap, by subcommand
_CLASSIFY = {"errors", "geometry"}
_SOLVE = _CLASSIFY | {"energy", "grid", "solver"}
_CAPACITY = _SOLVE | {"capacity"}
_VERIFY = _CLASSIFY | {"energy", "grid", "verifiers"}


@pytest.mark.parametrize("argv, modules", [
    (["classify", "--manifold", "{euclid3}", "--p", "2"], _CLASSIFY),
    (["solve", "--p", "3", "--nodes", "65"], _SOLVE),
    (["continuation", "--p", "3", "--nodes", "65", "--steps", "3"], _SOLVE),
    (["barrier", "--manifold", "{cosh3}", "--p", "3", "--nodes", "65"],
     _SOLVE),
    (["capacity", "--manifold", "{euclid3}", "--p", "3", "--a", "1",
      "--b", "2"], _CAPACITY),
    (["decay", "--manifold", "{exp2}", "--p", "2", "--lambda-p", "0.25",
      "--R", "2", "3", "4"], _CAPACITY),
    (["volume", "--manifold", "{exp2}", "--p", "2", "--lambda-p", "0.25",
      "--R", "2", "4"], _CAPACITY),
    (["verify", "kato", "--p", "3.2", "--m", "4"], _VERIFY),
    (["gallery"], _VERIFY),
    (["report"], _CAPACITY | _VERIFY),
], ids=["classify", "solve", "continuation", "barrier", "capacity", "decay",
        "volume", "verify", "gallery", "report"])
def test_launch_imports_only_its_subcommands_modules(tmp_path, euclid3, exp2,
                                                     fresh, argv, modules):
    # python -m plap.cli: each command imports its modules as it runs,
    # LAPACK with the solver
    cosh3 = tmp_path / "cosh3.cfg"
    cosh3.write_text(COSH3)
    argv = [a.format(euclid3=euclid3, exp2=exp2, cosh3=cosh3) for a in argv]
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(' '.join(sorted(\n"
        "    m for m in sys.modules if m.startswith('plap.')))))\n"
        "atexit.register(lambda: print('scipy.linalg._flapack' in sys.modules))\n"
        f"sys.argv = ['plap'] + {argv + ['--out', str(tmp_path)]!r}\n"
        "runpy.run_module('plap.cli', run_name='__main__', alter_sys=True)\n"
    )
    # atexit runs its handlers last in, first out
    lapack, loaded = fresh(code, tmp_path)[-2:]
    assert set(loaded.split()) == {"plap." + m for m in modules}
    assert lapack == str("solver" in modules)


def test_lapack_fallback_imports_scipy(tmp_path, fresh):
    # where the direct load raises ImportError (a Windows wheel sets up
    # its DLL directory in scipy/__init__), scipy is imported and the
    # extension loaded once more
    code = (
        "import sys\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "create, seen = ExtensionFileLoader.create_module, []\n"
        "def flaky(self, spec):\n"
        "    if spec.name == 'scipy.linalg._flapack':\n"
        "        seen.append('scipy' in sys.modules)\n"
        "        if len(seen) == 1:\n"
        "            raise ImportError('DLL load failed')\n"
        "    return create(self, spec)\n"
        "ExtensionFileLoader.create_module = flaky\n"
        "import numpy as np\n"
        "import plap.solver as sv\n"
        "assert seen == [False, True], seen\n"
        "_, _, _, x, info = sv.dgtsv(np.ones(2), np.full(3, 4.0), np.ones(2),\n"
        "                            np.array([5.0, 6.0, 5.0]))\n"
        "assert info == 0 and np.allclose(x, 1.0), x\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert sv.dgtsv is lapack.dgtsv\n"
    )
    fresh(code, tmp_path)


def test_main_freezes_the_import_heap(tmp_path, euclid3, fresh):
    # python -m plap.cli: the objects made by import are frozen before
    # the run, so no collection walks them, at shutdown neither
    code = (
        "import atexit, gc, runpy, sys\n"
        "print(gc.get_freeze_count())\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        f"sys.argv = ['plap', 'classify', '--manifold', {euclid3!r}, '--p', '2']\n"
        "runpy.run_module('plap.cli', run_name='__main__', alter_sys=True)\n"
    )
    before, verdict, frozen = fresh(code, tmp_path)
    assert (before, verdict) == ("0", "Hyperbolic")
    assert int(frozen) > 0


def test_run_freezes_nothing(euclid3, capsys):
    # a library caller's heap is collected as before
    before = gc.get_freeze_count()
    assert cli.run(["classify", "--manifold", euclid3, "--p", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_solver_lapack_is_scipys():
    # here scipy.linalg was imported first: the loaded extension is reused
    import scipy.linalg
    import scipy.linalg.lapack
    import scipy.sparse.linalg

    assert sv.dgtsv is scipy.linalg.lapack.dgtsv
    assert sv.dpbsv is scipy.linalg.lapack.dpbsv
    assert sv.LinAlgError is scipy.linalg.LinAlgError
    # the benchmark's tracer wraps these three by name; no solve calls them
    assert sv.solve_banded is scipy.linalg.solve_banded
    assert sv.spsolve is scipy.sparse.linalg.spsolve
    assert sv.cg is scipy.sparse.linalg.cg
    with pytest.raises(AttributeError):
        sv.no_such_name


def test_volume_negative_lambda_is_invalid(tmp_path, exp2, capsys):
    # -0.1 wrote complex bounds and exited 0 before; nan passed the check
    # and wrote NaN rows (exit 1), in decay as in volume
    for name, extra in (("volume", []), ("decay", ["--r0", "1"])):
        for lam in ("-0.1", "nan"):
            rc = cli.run([name, "--manifold", exp2, "--p", "2", *extra,
                          "--lambda-p", lam, "--R", "2", "4",
                          "--out", str(tmp_path)])
            assert rc == cli.EXIT_INVALID
            assert "lambda_p" in capsys.readouterr().err
            assert not (tmp_path / (name + ".csv")).exists()


@pytest.mark.parametrize("option", [["--eps", "nan"], ["--s", "nan"]])
def test_verify_bochner_s_rejects_nan(tmp_path, capsys, option):
    # both ran and wrote a CSV of NaN residuals (exit 1) before
    rc = cli.run(["verify", "bochner_s", *option, "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "verify_bochner_s.csv").exists()


def test_infinite_lambda_and_eps_are_invalid(tmp_path, exp2, capsys):
    # each wrote a CSV of inf/NaN rows and exited 1, a failed check
    runs = [("decay", ["decay", "--manifold", exp2, "--p", "2", "--r0", "1",
                       "--lambda-p", "inf", "--R", "2", "4"]),
            ("volume", ["volume", "--manifold", exp2, "--p", "2",
                        "--lambda-p", "inf", "--R", "2", "4"]),
            ("verify_bochner_s", ["verify", "bochner_s", "--eps", "inf"])]
    for name, argv in runs:
        rc = cli.run([*argv, "--out", str(tmp_path)])
        assert rc == cli.EXIT_INVALID, name
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / (name + ".csv")).exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--manifold", "CFG", "--p", "2"],
    ["verify", "kato", "--p", "2.5", "--m", "400"],
])
def test_huge_euclidean_dimension_is_invalid(tmp_path, capsys, argv):
    # Gamma(m/2) overflowed in sphere_area: a traceback and exit 1
    cfg = tmp_path / "e400.cfg"
    cfg.write_text("variant = euclidean\nm = 400\n")
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    assert cli.run([*argv, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    assert "m = 400 is too large" in capsys.readouterr().err


def test_config_without_warp_parameter(tmp_path, capsys):
    cfg = tmp_path / "polyeven.cfg"
    cfg.write_text("variant = warped\nm = 3\nwarp.kind = polyeven\n")
    rc = cli.run(["classify", "--manifold", str(cfg), "--p", "2"])
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "warp.alpha" in err


@pytest.mark.parametrize("body, rc, out", [
    # any variant but euclidean built a warped product, and "Euclidean"
    # read as unknown warp.kind ''
    ("variant = hyperbolic\nm = 3\nwarp.kind = cosh\n", cli.EXIT_INVALID,
     "error: unknown variant 'hyperbolic'\n"),
    ("variant = Euclidean\nm = 3\n", cli.EXIT_OK, "Hyperbolic\n"),
], ids=["hyperbolic", "Euclidean"])
def test_config_variant(tmp_path, capsys, body, rc, out):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(body)
    assert cli.run(["classify", "--manifold", str(cfg), "--p", "2"]) == rc
    got = capsys.readouterr()
    assert (got.out if rc == cli.EXIT_OK else got.err) == out


@pytest.mark.parametrize("body, key, reader", [
    # each loaded as something else, exit 0
    ("variant = euclidean\nmm = 4\n", "mm", "variant = euclidean"),
    ("variant = euclidean\nm = 3\nwarp.kind = nonsense\n", "warp.kind",
     "variant = euclidean"),
    ("variant = euclidean\nm = 3\nricci_N_lower = 1\n", "ricci_N_lower",
     "variant = euclidean"),
    (COSH3 + "warp.beta = 2\n", "warp.beta", "warp.kind = cosh"),
], ids=["misspelt", "euclidean-warp", "euclidean-ricci", "cosh-beta"])
def test_config_key_not_read(tmp_path, capsys, body, key, reader):
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(body)
    rc = cli.run(["classify", "--manifold", str(cfg), "--p", "2"])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == \
        "error: config key %r is not read by %s\n" % (key, reader)


POWER = "variant = warped\nm = 3\nwarp.kind = power\nwarp.alpha = {}\n"


def test_config_power_warp_barrier(tmp_path):
    # sigma = 1 is the polyeven warp: the same barrier, byte for byte
    bodies = {"power": POWER.format(2) + "warp.sigma = 1\n",
              "polyeven": POWER.format(2).replace("power", "polyeven")}
    csvs = []
    for name, body in bodies.items():
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text(body)
        rc = cli.run(["barrier", "--manifold", str(cfg), "--p", "3",
                      "--tmin", "-8", "--tmax", "8", "--nodes", "129",
                      "--out", str(tmp_path / name)])
        assert rc == cli.EXIT_OK
        csvs.append((tmp_path / name / "barrier.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_config_power_warp_domain(tmp_path, capsys):
    # without sigma the warp is singular at t = 0, unless the domain
    # excludes it: t on [1, inf) with m = 3 is Euclidean R^3 off a ball
    cfg = tmp_path / "power.cfg"
    cfg.write_text(POWER.format(2))
    assert cli.run(["classify", "--manifold", str(cfg), "--p", "2"]) == \
        cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma=0 is singular" in err
    cfg.write_text(POWER.format(1) + "domain = 1 inf\n")
    for p, kind in (("2", "Hyperbolic"), ("4", "Parabolic")):
        assert cli.run(["classify", "--manifold", str(cfg), "--p", p]) == 0
        assert capsys.readouterr().out == kind + "\n"


@pytest.mark.parametrize("body, manifold", [
    (POWER.format(2) + "warp.sigma = 0.5\n",
     lambda: warped(3, Power(2.0, 0.5))),
    (POWER.format(1) + "domain = 1 inf\n",
     lambda: warped(3, Power(1.0, domain=(1.0, np.inf)),
                    domain=(1.0, np.inf))),
    (POWER.format(2) + "warp.sigma = 1\ndomain = -1 2\n",
     lambda: warped(3, Power(2.0, 1.0, domain=(-1.0, 2.0)),
                    domain=(-1.0, 2.0))),
    (EXP2, lambda: warped(2, Exponential(1.0))),
    (EXP2 + "domain = -inf 0\nricci_N_lower = 0.5\n",
     lambda: warped(2, Exponential(1.0, domain=(-np.inf, 0.0)),
                    ricci_N_lower=0.5, domain=(-np.inf, 0.0))),
    (COSH3, lambda: warped(3, Cosh())),
    (COSH3 + "domain = 0 inf\n",
     lambda: warped(3, Cosh(domain=(0.0, np.inf)), domain=(0.0, np.inf))),
    (POWER.format(2).replace("power", "polyeven"),
     lambda: warped(3, PolyEven(2.0))),
    (POWER.format(2).replace("power", "polyeven") + "domain = -3 3\n",
     lambda: warped(3, PolyEven(2.0, domain=(-3.0, 3.0)),
                    domain=(-3.0, 3.0))),
    (EUCLID3, lambda: euclidean(3)),
    (EUCLID3 + "domain = 1 inf\n",
     lambda: euclidean(3, domain=(1.0, np.inf))),
], ids=["power-sigma", "power-domain", "power-sigma-domain", "exponential",
        "exponential-domain", "cosh", "cosh-domain", "polyeven",
        "polyeven-domain", "euclidean", "euclidean-domain"])
def test_config_is_the_direct_construction(tmp_path, body, manifold):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(body)
    assert cli.load_manifold(str(cfg)) == manifold()


@pytest.mark.parametrize("argv, body, message", [
    # Parabolic, exit 0
    (["classify", "--p", "2"], EXP2.replace("= 1", "= nan"),
     "warp.beta = nan must be finite"),
    # a ZeroDivisionError traceback, exit 1
    (["capacity", "--p", "3", "--a", "1", "--b", "2"],
     EXP2.replace("= 1", "= inf"), "warp.beta = inf must be finite"),
    # a RuntimeWarning under -W error, exit 1
    (["barrier", "--p", "3"],
     POWER.format("inf").replace("power", "polyeven"),
     "warp.alpha = inf must be finite"),
    (["capacity", "--p", "3", "--a", "1", "--b", "2"],
     COSH3 + "ricci_N_lower = -inf\n", "ricci_N_lower = -inf must be finite"),
], ids=["beta-nan", "beta-inf", "alpha-inf", "ricci-inf"])
def test_config_non_finite_number(tmp_path, capsys, argv, body, message):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(body)
    out = tmp_path / "out"
    rc = cli.run([*argv, "--manifold", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("name", ["kato", "strong_form", "bochner", "bochner_s"])
@pytest.mark.parametrize("p", ["0", "0.5"])
def test_verify_checks_given_p(tmp_path, capsys, name, p):
    # p = 0 was replaced by the gallery's p; p = 0.5 ran and passed
    rc = cli.run(["verify", name, "--gallery", "b", "--p", p,
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert "p must exceed 1" in capsys.readouterr().err
    assert not (tmp_path / ("verify_%s.csv" % name)).exists()


@pytest.mark.parametrize("name", ["kato", "strong_form", "bochner", "bochner_s"])
def test_verify_gallery_with_m(tmp_path, capsys, name):
    # --m was dropped: --gallery b --p 3 --m 5 checked gallery b
    rc = cli.run(["verify", name, "--gallery", "b", "--p", "3", "--m", "5",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == \
        "error: --gallery and --m name different fields\n"
    assert not (tmp_path / ("verify_%s.csv" % name)).exists()


@pytest.mark.parametrize("argv", [
    ["gallery", "--seed", "1"],
    ["verify", "kato", "--gallery", "a", "--manifold", "m.cfg"],
    ["report", "--manifold", "m.cfg"],
])
def test_unused_options_are_not_registered(tmp_path, argv):
    assert cli.run(argv + ["--out", str(tmp_path)]) == cli.EXIT_INVALID


# every subcommand's options as first released:
# flag -> (dest, default, required, choices)
OPTION_TABLE = {
    "solve": {
        "--manifold": ("manifold", None, False, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--eps": ("eps", 1e-06, False, None),
        "--a": ("a", 1.0, False, None),
        "--b": ("b", 2.0, False, None),
        "--ua": ("ua", 1.0, False, None),
        "--ub": ("ub", 0.0, False, None),
        "--nodes": ("nodes", 513, False, None),
        "--max-iters": ("max_iters", 50, False, None),
    },
    "continuation": {
        "--manifold": ("manifold", None, False, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--a": ("a", 1.0, False, None),
        "--b": ("b", 2.0, False, None),
        "--ua": ("ua", 1.0, False, None),
        "--ub": ("ub", 0.0, False, None),
        "--nodes": ("nodes", 513, False, None),
        "--eps0": ("eps0", 1.0, False, None),
        "--steps": ("steps", 20, False, None),
    },
    "capacity": {
        "--manifold": ("manifold", None, True, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--a": ("a", None, True, None),
        "--b": ("b", None, True, None),
        "--nodes": ("nodes", 1025, False, None),
    },
    "classify": {
        "--manifold": ("manifold", None, True, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--direction": ("direction", 1, False, (-1, 1)),
    },
    "barrier": {
        "--manifold": ("manifold", None, True, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--tmin": ("tmin", -20.0, False, None),
        "--tmax": ("tmax", 20.0, False, None),
        "--nodes": ("nodes", 1025, False, None),
    },
    "decay": {
        "--manifold": ("manifold", None, True, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--r0": ("r0", 1.0, False, None),
        "--lambda-p": ("lambda_p", None, True, None),
        "--R": ("R", None, True, None),
    },
    "volume": {
        "--manifold": ("manifold", None, True, None),
        "--out": ("out", None, False, None),
        "--p": ("p", None, True, None),
        "--lambda-p": ("lambda_p", None, True, None),
        "--R": ("R", None, True, None),
    },
    "verify": {
        "--out": ("out", None, False, None),
        "--seed": ("seed", 0, False, None),
        "name": ("name", None, True, None),
        "--gallery": ("gallery", None, False, None),
        "--p": ("p", None, False, None),
        "--m": ("m", None, False, None),
        "--s": ("s", None, False, None),
        "--eps": ("eps", 0.001, False, None),
        "--samples": ("samples", 10000, False, None),
    },
    "gallery": {
        "--out": ("out", None, False, None),
    },
    "report": {
        "--out": ("out", None, False, None),
        "--seed": ("seed", 0, False, None),
    },
}


def test_option_table_is_unchanged():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {(a.option_strings or [a.dest])[0]:
                  (a.dest, a.default, a.required, a.choices)
                  for a in sp._actions if a.dest != "help"}
           for name, sp in sub.choices.items()}
    assert got == OPTION_TABLE


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["continuation"],
    ["capacity", "--manifold", "{cfg}", "--a", "1", "--b", "2"],
    ["classify", "--manifold", "{cfg}"],
    ["barrier", "--manifold", "{cfg}"],
    ["decay", "--manifold", "{cfg}", "--lambda-p", "0.25", "--R", "2", "3"],
    ["volume", "--manifold", "{cfg}", "--lambda-p", "0.25", "--R", "2", "3"],
])
@pytest.mark.parametrize("p", ["1", "nan"])
def test_p_is_checked_as_parsed(tmp_path, euclid3, capsys, argv, p):
    argv = [a.format(cfg=euclid3) for a in argv]
    rc = cli.run(argv + ["--p", p, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: p must exceed 1\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    # an infinite p ran: solve and capacity exited 3, classify printed
    # Parabolic, verify kato passed
    (["solve", "--p", "inf"], "p must be finite"),
    (["capacity", "--manifold", "{euclid3}", "--p", "inf", "--a", "1",
      "--b", "2"], "p must be finite"),
    (["classify", "--manifold", "{euclid3}", "--p", "inf"],
     "p must be finite"),
    (["verify", "kato", "--gallery", "d", "--p", "inf"], "p must be finite"),
    # the cold retry's decade_schedule(inf) raised OverflowError
    (["solve", "--p", "3", "--eps", "inf"], "p and eps must be finite"),
    # a RuntimeWarning came first: inf - inf in the schedule's np.diff,
    # 0 * inf in the bound's shape; decay said "need a < b"
    (["continuation", "--p", "3", "--eps0", "inf"],
     "eps schedule must be non-empty, finite, strictly decreasing, positive"),
    (["volume", "--manifold", "{exp2}", "--p", "2", "--lambda-p", "0.25",
      "--R", "2", "inf"], "R values must be finite"),
    (["decay", "--manifold", "{exp2}", "--p", "2", "--lambda-p", "0.25",
      "--R", "2", "inf"], "R values must be finite"),
], ids=["solve-p", "capacity-p", "classify-p", "verify-p", "solve-eps",
        "continuation-eps0", "volume-R", "decay-R"])
def test_infinite_inputs_exit_code(tmp_path, euclid3, exp2, capsys, argv,
                                   message):
    argv = [a.format(euclid3=euclid3, exp2=exp2) for a in argv]
    rc = cli.run(argv + ["--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("body, message", [
    ("variant = euclidean\nm = abc\n",
     "invalid literal for int() with base 10: 'abc'"),
    ("variant = warped\nm = 3\nwarp.kind = polyeven\nwarp.alpha = x\n",
     "could not convert string to float: 'x'"),
    # echoed as written
    ("variant = euclidean\nm = 3\ndomain = 1 ABC\n",
     "could not convert string to float: 'ABC'"),
])
def test_malformed_config_number(tmp_path, capsys, body, message):
    # argparse would reword a ValueError raised while loading --manifold
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    rc = cli.run(["classify", "--manifold", str(cfg), "--p", "2"])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("ends", ["1", "1 2 3", ""],
                         ids=["one", "three", "none"])
def test_config_domain_needs_two_ends(tmp_path, capsys, ends):
    # "domain = 1 2 3" exited 2 with "too many values to unpack"
    cfg = tmp_path / "domain.cfg"
    cfg.write_text("variant = euclidean\nm = 3\ndomain = %s\n" % ends)
    with pytest.raises(InvalidInputError, match="expected domain = lo hi"):
        cli.load_manifold(str(cfg))
    rc = cli.run(["classify", "--manifold", str(cfg), "--p", "2"])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: bad domain {ends!r}: expected domain = lo hi\n")


@pytest.mark.parametrize("body, domain", [
    ("variant = euclidean\nm = 3\ndomain = 0 INF\n", (0.0, np.inf)),
    ("variant = warped\nm = 2\nwarp.kind = exponential\nwarp.beta = 1\n"
     "domain = -Inf 0\n", (-np.inf, 0.0)),
])
def test_config_infinite_domain_end(tmp_path, body, domain):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(body)
    assert tuple(cli.load_manifold(str(cfg)).domain) == domain


def test_undecodable_config(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfe\x00")
    rc = cli.run(["classify", "--manifold", str(cfg), "--p", "2"])
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["monotonicity", "regularization"])
def test_verify_samples_at_least_one(tmp_path, capsys, name):
    # --samples 1 exited 1 with a traceback; --samples 0 passed vacuously
    # (regularization) or failed inside numpy (monotonicity)
    rc = cli.run(["verify", name, "--samples", "0", "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: samples must be at least 1\n"
    rc = cli.run(["verify", name, "--samples", "1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK


# each subcommand's required options, to parse one more option after
REQUIRED = {
    "solve": ["--p", "3"],
    "continuation": ["--p", "3"],
    "capacity": ["--manifold", "{cfg}", "--p", "3", "--a", "1", "--b", "2"],
    "barrier": ["--manifold", "{cfg}", "--p", "3"],
    "decay": ["--manifold", "{cfg}", "--p", "2", "--lambda-p", "0.25",
              "--R", "2", "3"],
    "volume": ["--manifold", "{cfg}", "--p", "2", "--lambda-p", "0.25",
               "--R", "2", "3"],
    "verify": ["kato"],
}



def _float_options():
    """(subcommand, flag, dest) of every option read as a float."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0], a.dest)
            for name, sp in sub.choices.items()
            for a in sp._actions if a.type is float]


FLOAT_OPTIONS = _float_options()


@pytest.mark.parametrize("value, number", [
    ("-1e1", -10.0), ("-2.5E-3", -0.0025), ("-inf", -np.inf),
])
@pytest.mark.parametrize("name, flag, dest", FLOAT_OPTIONS,
                         ids=["%s%s" % o[:2] for o in FLOAT_OPTIONS])
def test_negative_option_values_are_values(euclid3, name, flag, dest, value,
                                           number):
    # argparse took "-1e1" or "-inf" for an option flag: "expected one
    # argument"; only "-5" and "-.5" were read as numbers
    argv = [a.format(cfg=euclid3) for a in REQUIRED[name]]
    args = cli.build_parser().parse_args([name] + argv + [flag, value])
    got = getattr(args, dest)
    assert got == ([number] if flag == "--R" else number)


def test_negative_option_values_are_checked(tmp_path, exp2, capsys):
    # --r0 -inf was refused as a flag with no argument, not as R0;
    # --p -1e1 as "p must exceed 1", like --p -10
    rc = cli.run(["decay", "--manifold", exp2, "--p", "2", "--lambda-p",
                  "0.25", "--R", "2", "4", "--r0", "-inf",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: R0 must be finite\n"
    rc = cli.run(["solve", "--p", "-1e1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: p must exceed 1\n"
    assert not list(tmp_path.rglob("*.csv"))


def test_negative_option_values_run(tmp_path, capsys):
    cfg = tmp_path / "cosh3.cfg"
    cfg.write_text(COSH3)
    rc = cli.run(["barrier", "--manifold", str(cfg), "--p", "3", "--tmin",
                  "-8e0", "--tmax", "8", "--nodes", "65", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = (tmp_path / "barrier.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == -8.0


@pytest.mark.parametrize("argv, err", [
    (["barrier", "--tmin", "--tmax", "3"],
     "error: argument --tmin: expected one argument\n"),
    (["solve", "--p", "3", "--ua", "-x"],
     "error: argument --ua: expected one argument\n"),
    (["solve", "--p", "3", "-1e1"], "error: unrecognized arguments: -1e1\n"),
])
def test_negative_option_values_leave_flags_alone(argv, err, capsys):
    # a missing value and a stray token are refused as before
    assert cli.run(argv) == cli.EXIT_INVALID
    assert capsys.readouterr().err.endswith(err)


def test_negative_option_values_leave_help_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["barrier", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: plap barrier")
