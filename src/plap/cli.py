"""Batch command line front end.

Exit codes: 0 success / all checks pass, 1 a check failed (reports still
written), 2 invalid input, 3 solver non-convergence.  All numeric output
uses 12 significant digits so golden files are meaningful.

Options are checked and loaded as they are parsed: ``--p`` must exceed 1,
``--samples`` must be at least 1, and ``--manifold`` is read into a
ModelManifold, so a subcommand only runs on valid inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import capacity as cap
from . import solver as sv
from . import verifiers as vf
from .energy import EnergySpec
from .errors import NonConvergenceError, PlapError, InvalidInputError
from .geometry import (
    Cosh,
    Exponential,
    ModelManifold,
    PolyEven,
    Power,
    euclidean,
    warped,
)
from .grid import Grid1D, dump_csv

FMT = "%.12g"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _num(s: str) -> float:
    s = s.strip().lower()
    if s in ("inf", "+inf"):
        return np.inf
    if s == "-inf":
        return -np.inf
    return float(s)


def load_manifold(path: str) -> ModelManifold:
    """key = value config: variant, m, warp.kind, warp.<param>, domain,
    ricci_N_lower.  The ``--manifold`` type: argparse would reword a
    ValueError (a malformed number, an undecodable file), so it is raised
    as InvalidInputError with its text."""
    kv = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError(f"bad config line: {line!r}")
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
        kind = kv.get("warp.kind", "").lower()
        variant = kv.get("variant", "euclidean")
        m = int(kv.get("m", "3"))
        domain = None
        if "domain" in kv:
            lo, hi = kv["domain"].split()
            domain = (_num(lo), _num(hi))
        if variant == "euclidean":
            return euclidean(m, domain=domain or (0.0, np.inf))
        if kind == "power":
            w = Power(alpha=float(kv["warp.alpha"]),
                      sigma=float(kv.get("warp.sigma", "0")),
                      domain=domain or (-np.inf, np.inf))
        elif kind == "exponential":
            w = Exponential(beta=float(kv["warp.beta"]))
        elif kind == "cosh":
            w = Cosh()
        elif kind == "polyeven":
            w = PolyEven(alpha=float(kv["warp.alpha"]))
        else:
            raise InvalidInputError(f"unknown warp.kind {kind!r}")
        return warped(m, w, ricci_N_lower=float(kv.get("ricci_N_lower", "0")),
                      domain=domain)
    except KeyError as exc:
        raise InvalidInputError(f"warp.kind = {kind} needs {exc}") from None
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None


def _outdir(args) -> str:
    d = args.out or os.environ.get("PLAP_OUT", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                (FMT % v) if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _checked(kind, ok, message):
    """An argparse type: kind(s), refused with InvalidInputError(message)
    unless ok.  argparse passes a PlapError through unchanged, so stderr
    reads "error: <message>" with no usage line."""
    def parse(s: str):
        value = kind(s)
        if not ok(value):
            raise InvalidInputError(message)
        return value
    # a string kind(s) rejects is reported as "invalid float value: 's'"
    parse.__name__ = kind.__name__
    return parse


_p_value = _checked(float, lambda p: p > 1, "p must exceed 1")
_sample_count = _checked(int, lambda n: n >= 1, "samples must be at least 1")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    grid = Grid1D.uniform(args.a, args.b, args.nodes, manifold=args.manifold)
    cfg = sv.SolveConfig(max_newton_iters=args.max_iters)
    f, rep = sv.solve_dirichlet(EnergySpec(args.p, args.eps), grid,
                                (args.ua, args.ub), cfg=cfg)
    out = os.path.join(_outdir(args), "solution.csv")
    dump_csv(f, out)
    step = rep.steps[-1]
    print("energy_eps = " + FMT % step["energy_eps"])
    print("energy_p = " + FMT % step["energy_p"])
    # a cold solve retried along the eps path reports every step
    print("iterations = %d" % sum(s["iterations"] for s in rep.steps))
    print("wrote " + out)
    return EXIT_OK


def cmd_continuation(args) -> int:
    grid = Grid1D.uniform(args.a, args.b, args.nodes, manifold=args.manifold)
    cfg = sv.SolveConfig(eps_schedule=sv.default_schedule(args.eps0, args.steps))
    fields, rep = sv.epsilon_continuation(args.p, grid, (args.ua, args.ub), cfg)
    rows = [(s["eps"], s["energy_p"], s["energy_eps"], d)
            for s, d in zip(rep.steps, rep.distances_to_final)]
    out = os.path.join(_outdir(args), "continuation.csv")
    _write_csv(out, "eps,E_p,E_p_eps,w1p_dist_to_final", rows)
    ok = all(s["pass"] for s in rep.sandwich)
    print("final E_p = " + FMT % rep.steps[-1]["energy_p"])
    print("sandwich = " + ("pass" if ok else "FAIL"))
    print("wrote " + out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_capacity(args) -> int:
    M = args.manifold
    ana = cap.capacity_analytic(M, args.p, args.a, args.b)
    grid = Grid1D.uniform(args.a, args.b, args.nodes, manifold=M)
    pad = 1e-9 * (args.b - args.a)
    cond = cap.Condenser(inner=(args.a - pad, args.a + pad),
                         outer=(args.b - pad, args.b + pad))
    num = cap.capacity_numeric(grid, args.p, cond)
    print("analytic = " + FMT % ana.value)
    print("numeric = " + FMT % num.value)
    rel = abs(num.value - ana.value) / ana.value
    print("relative_difference = " + FMT % rel)
    return EXIT_OK if rel <= 0.01 else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    print(args.manifold.classify_end(args.p, args.direction))
    return EXIT_OK


def cmd_barrier(args) -> int:
    f, meta = sv.two_end_barrier(args.manifold, args.p, args.tmin, args.tmax,
                                 n=args.nodes)
    out = os.path.join(_outdir(args), "barrier.csv")
    dump_csv(f, out)
    for k in ("sup", "inf", "E_p"):
        print(k + " = " + FMT % meta[k])
    print("wrote " + out)
    return EXIT_OK


def cmd_decay(args) -> int:
    res = cap.tail_energy_profile(args.manifold, args.p, args.r0,
                                  args.lambda_p, args.R)
    out = os.path.join(_outdir(args), "decay.csv")
    _write_csv(out, "R,tail,bound,pass",
               [(r["R"], r["tail"], r["bound"], r["pass"]) for r in res["rows"]])
    print("C3 = " + FMT % res["C3"])
    print("slope_ok = %s, bound_ok = %s" % (res["slope_ok"], res["bound_ok"]))
    print("wrote " + out)
    return EXIT_OK if res["ok"] else EXIT_CHECK_FAILED


def cmd_volume(args) -> int:
    res = cap.volume_growth_check(args.manifold, args.p, args.lambda_p, args.R)
    out = os.path.join(_outdir(args), "volume.csv")
    _write_csv(out, "R,measured,bound,pass",
               [(r["R"], r["measured"], r["bound"], r["pass"])
                for r in res["rows"]])
    print("kind = " + res["kind"])
    print("wrote " + out)
    return EXIT_OK if res["ok"] else EXIT_CHECK_FAILED


# the items of ``verifiers.example_gallery`` that ``--gallery`` names
_GALLERY_TAGS = {"a": "log_annulus_m2", "b": "power_p3_m4", "d": "arctan_warped"}


def _gallery_item(tag: str) -> dict:
    if tag not in _GALLERY_TAGS:
        raise InvalidInputError(f"unknown gallery tag {tag!r}")
    return next(item for item in vf.example_gallery()
                if item["name"] == _GALLERY_TAGS[tag])


def _gallery_field(tag: str, p=None):
    """The gallery field ``tag`` and p: the given one, or the field's own."""
    item = _gallery_item(tag)
    return item["field"], (item["p"] if p is None else p)


def cmd_verify(args) -> int:
    name = args.name
    reports = []
    if name == "kato":
        if args.gallery:
            f, p = _gallery_field(args.gallery, args.p)
        elif args.p is not None and args.m is not None:
            f = vf.power_radial_field(p=args.p, m=args.m) \
                if args.p != args.m else vf.log_radial_field(m=args.m)
            p = args.p
        else:
            raise InvalidInputError("verify kato needs --gallery or --p/--m")
        reports.append(vf.kato_ratio(f, p))
    elif name == "strong_form":
        f, p = _gallery_field(args.gallery or "b", args.p)
        reports.append(vf.strong_form_residual(f, p))
    elif name == "bochner":
        f, p = _gallery_field(args.gallery or "b", args.p)
        reports.append(vf.bochner_residual(f, p, args.eps))
    elif name == "bochner_s":
        f, p = _gallery_field(args.gallery or "b", args.p)
        reports.append(vf.bochner_s_residual(f, p, args.s if args.s is not None
                                             else p - 2.0, args.eps))
    elif name == "monotonicity":
        res = vf.monotonicity_suite(seed=args.seed, n=args.samples)
        print("monotonicity = " + ("pass" if res["ok"] else "FAIL"))
        return EXIT_OK if res["ok"] else EXIT_CHECK_FAILED
    elif name == "regularization":
        rng = np.random.default_rng(args.seed)
        bad = 0
        for _ in range(args.samples):
            p = rng.uniform(1.0, 6.0)
            X = rng.normal(size=3)
            Y = rng.normal(size=3)
            if np.linalg.norm(X) < np.linalg.norm(Y):
                X, Y = Y, X
            rep = vf.regularization_gap(X, Y, rng.uniform(0, 1),
                                        p, rng.uniform(0.1, 2.0))
            bad += not rep.passed
        print("regularization violations = %d / %d" % (bad, args.samples))
        return EXIT_OK if bad == 0 else EXIT_CHECK_FAILED
    else:
        raise InvalidInputError(f"unknown verifier {name!r}")
    out = os.path.join(_outdir(args), "verify_%s.csv" % name)
    _write_csv(out, "check,min,max,threshold,pass",
               [(r.name, r.minimum, r.maximum, r.threshold,
                 "pass" if r.passed else "FAIL") for r in reports])
    ok = all(r.passed for r in reports)
    for r in reports:
        print("%s: min=%s max=%s threshold=%s %s" % (
            r.name, FMT % r.minimum, FMT % r.maximum, FMT % r.threshold,
            "pass" if r.passed else "FAIL"))
    print("wrote " + out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_gallery(args) -> int:
    rows = []
    for item in vf.example_gallery():
        exp = item["expected"]
        rows.append((item["name"], item["p"],
                     float(exp.get("kato_ratio", np.nan)),
                     float(exp.get("residual", np.nan))))
        print("%s: p=%s expected=%s" % (item["name"], FMT % item["p"], exp))
    out = os.path.join(_outdir(args), "gallery.csv")
    _write_csv(out, "name,p,expected_kato_ratio,expected_residual", rows)
    print("wrote " + out)
    return EXIT_OK


def cmd_report(args) -> int:
    """Small battery: capacity oracle, Kato ratios, monotonicity sample."""
    lines = []
    ok = True

    M = euclidean(3)
    ana = cap.capacity_analytic(M, 2.0, 1.0, 2.0).value
    grid = Grid1D.uniform(1.0, 2.0, 513, manifold=M)
    cond = cap.Condenser(inner=(1.0, 1.0), outer=(2.0, 2.0))
    num = cap.capacity_numeric(grid, 2.0, cond).value
    good = abs(num - ana) / ana < 0.01
    ok &= good
    lines.append("capacity_oracle,%s,%s,%s" % (FMT % num, FMT % ana,
                                               "pass" if good else "FAIL"))

    for tag in ("a", "b"):
        item = _gallery_item(tag)
        expect = item["expected"]["kato_ratio"]
        rep = vf.kato_ratio(item["field"], item["p"])
        good = abs(rep.mean - expect) < 1e-3 and rep.passed
        ok &= good
        lines.append("kato_%s,%s,%s,%s" % (tag, FMT % rep.mean, FMT % expect,
                                           "pass" if good else "FAIL"))

    mono = vf.monotonicity_suite(n=2000, seed=args.seed)
    ok &= mono["ok"]
    lines.append("monotonicity,%d,%d,%s" % (
        sum(mono[p]["violations"] for p in (1.5, 2.0, 3.0, 4.0)), 0,
        "pass" if mono["ok"] else "FAIL"))

    d = _outdir(args)
    out = os.path.join(d, "report.csv")
    with open(out, "w") as fh:
        fh.write("check,measured,expected,pass\n")
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(d, "report.txt"), "w") as fh:
        fh.write("overall: %s\n" % ("pass" if ok else "FAIL"))
        for ln in lines:
            fh.write(ln.replace(",", "  ") + "\n")
    print("overall: %s" % ("pass" if ok else "FAIL"))
    print("wrote " + out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def build_parser() -> _Parser:
    ap = _Parser(prog="plap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, manifold=None, p=None, seed=False):
        # manifold and p: None (no option), False (optional), True (required)
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if manifold is not None:
            sp.add_argument("--manifold", type=load_manifold, required=manifold)
        sp.add_argument("--out", default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if p is not None:
            sp.add_argument("--p", type=_p_value, required=p)
        return sp

    solve = command("solve", cmd_solve, manifold=False, p=True)
    solve.add_argument("--eps", type=float, default=1e-6)
    cont = command("continuation", cmd_continuation, manifold=False, p=True)
    # the Dirichlet problem on [a, b] with u(a) = ua, u(b) = ub
    for sp in (solve, cont):
        for opt, default in (("--a", 1.0), ("--b", 2.0), ("--ua", 1.0),
                             ("--ub", 0.0)):
            sp.add_argument(opt, type=float, default=default)
        sp.add_argument("--nodes", type=int, default=513)
    solve.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    cont.add_argument("--eps0", type=float, default=1.0)
    cont.add_argument("--steps", type=int, default=20)

    sp = command("capacity", cmd_capacity, manifold=True, p=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--nodes", type=int, default=1025)

    sp = command("classify", cmd_classify, manifold=True, p=True)
    sp.add_argument("--direction", type=int, default=1, choices=(-1, 1))

    sp = command("barrier", cmd_barrier, manifold=True, p=True)
    sp.add_argument("--tmin", type=float, default=-20.0)
    sp.add_argument("--tmax", type=float, default=20.0)
    sp.add_argument("--nodes", type=int, default=1025)

    decay = command("decay", cmd_decay, manifold=True, p=True)
    decay.add_argument("--r0", type=float, default=1.0)
    for sp in (decay, command("volume", cmd_volume, manifold=True, p=True)):
        sp.add_argument("--lambda-p", dest="lambda_p", type=float, required=True)
        sp.add_argument("--R", type=float, nargs="+", required=True)

    sp = command("verify", cmd_verify, p=False, seed=True)
    sp.add_argument("name")
    sp.add_argument("--gallery", default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--samples", type=_sample_count, default=10_000)

    command("gallery", cmd_gallery)
    command("report", cmd_report, seed=True)
    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except NonConvergenceError as exc:
        print("non-convergence: %s" % exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (PlapError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
