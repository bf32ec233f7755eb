"""Batch command line front end.

Exit codes: 0 success / all checks pass, 1 a check failed (reports still
written), 2 invalid input (a grid too large to allocate included), 3
solver non-convergence.  All numeric output uses 12 significant digits
so golden files are meaningful.

Options are checked and loaded as they are parsed: ``--p`` must be finite
and exceed 1, ``--samples`` must be at least 1, and ``--manifold`` is read
into a ModelManifold, so a subcommand only runs on valid inputs.

``verify <name>`` (kato, strong_form, bochner, bochner_s, monotonicity,
regularization) writes its report rows to ``verify_<name>.csv`` and
prints them.  Every CSV, the field tables of ``solve`` and ``barrier``
included, goes through one writer in the number format ``FMT``, and is
written before anything is printed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING

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
    warp_parameters,
)
from .grid import Grid1D, dump_csv

FMT = "%.12g"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


# the warp.kind values; each reads its class's parameters as warp.<param>
_WARPS = {"power": Power, "exponential": Exponential, "cosh": Cosh,
          "polyeven": PolyEven}


def load_manifold(path: str) -> ModelManifold:
    """key = value config: variant, m, domain; a warped variant also
    warp.kind, ricci_N_lower and warp.<param> for each of the kind's
    ``warp_parameters`` (required if it has no default), the warp built
    on the domain too.  A key the chosen variant and warp do not read is
    invalid, and so is a non-finite number.  The ``--manifold`` type:
    argparse would reword a ValueError (a malformed number, an
    undecodable file), so it is raised as InvalidInputError with its
    text."""
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
        variant = kv.get("variant", "euclidean").lower()
        if variant not in ("euclidean", "warped"):
            raise InvalidInputError(f"unknown variant {variant!r}")
        read, reader = {"variant", "m", "domain"}, "variant = euclidean"
        if variant == "warped":
            if kind not in _WARPS:
                raise InvalidInputError(f"unknown warp.kind {kind!r}")
            params = {"warp." + f.name: f
                      for f in warp_parameters(_WARPS[kind])}
            read |= {"warp.kind", "ricci_N_lower", *params}
            reader = f"warp.kind = {kind}"
        for key in kv:
            if key not in read:
                raise InvalidInputError(f"config key {key!r} is not read "
                                        f"by {reader}")
        m = int(kv.get("m", "3"))
        given = {}  # the manifold's fields the config gives
        if "domain" in kv:
            lo, hi = kv["domain"].split()
            given["domain"] = (float(lo), float(hi))
        if variant == "warped":
            values = {f.name: float(kv[key]) for key, f in params.items()
                      if key in kv or f.default is MISSING}
            given["warp"] = _WARPS[kind](**values, **given)
            if "ricci_N_lower" in kv:
                given["ricci_N_lower"] = float(kv["ricci_N_lower"])
        return ModelManifold(variant, m, **given)
    except KeyError as exc:
        raise InvalidInputError(f"warp.kind = {kind} needs {exc}") from None
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None


def _outdir(args) -> str:
    d = args.out or os.environ.get("PLAP_OUT", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _verdict(ok) -> str:
    return "pass" if ok else "FAIL"


def _line(row, sep: str) -> str:
    return sep.join((FMT % v) if isinstance(v, float) else str(v) for v in row)


def _finish(args, name, header, rows, lines=(), ok=True) -> int:
    """Write ``<out>/<name>.csv``, then print ``lines`` and where the CSV
    went: an unwritable ``--out`` exits 2 before anything is printed."""
    out = os.path.join(_outdir(args), name + ".csv")
    with open(out, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(_line(row, ",") + "\n" for row in rows)
    for ln in lines:
        print(ln)
    print("wrote " + out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _checked(kind, *checks):
    """An argparse type: kind(s), refused with InvalidInputError(message)
    at the first (ok, message) check it fails.  argparse passes a PlapError
    through unchanged, so stderr reads "error: <message>", no usage line."""
    def parse(s: str):
        value = kind(s)
        for ok, message in checks:
            if not ok(value):
                raise InvalidInputError(message)
        return value
    # a string kind(s) rejects is reported as "invalid float value: 's'"
    parse.__name__ = kind.__name__
    return parse


_p_value = _checked(float, (lambda p: p > 1, "p must exceed 1"),
                    (np.isfinite, "p must be finite"))
_sample_count = _checked(int, (lambda n: n >= 1, "samples must be at least 1"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    grid = Grid1D.uniform(args.a, args.b, args.nodes, manifold=args.manifold)
    cfg = sv.SolveConfig(max_newton_iters=args.max_iters)
    f, rep = sv.solve_dirichlet(EnergySpec(args.p, args.eps), grid,
                                (args.ua, args.ub), cfg=cfg)
    step = rep.steps[-1]
    return _finish(args, "solution", *dump_csv(f),
                   ["energy_eps = " + FMT % step["energy_eps"],
                    "energy_p = " + FMT % step["energy_p"],
                    "iterations = %d" % step["iterations"]])


def cmd_continuation(args) -> int:
    grid = Grid1D.uniform(args.a, args.b, args.nodes, manifold=args.manifold)
    cfg = sv.SolveConfig(eps_schedule=sv.default_schedule(args.eps0, args.steps))
    fields, rep = sv.epsilon_continuation(args.p, grid, (args.ua, args.ub), cfg)
    rows = [(s["eps"], s["energy_p"], s["energy_eps"], d)
            for s, d in zip(rep.steps, rep.distances_to_final)]
    ok = all(s["pass"] for s in rep.sandwich)
    return _finish(args, "continuation", "eps,E_p,E_p_eps,w1p_dist_to_final",
                   rows, ["final E_p = " + FMT % rep.steps[-1]["energy_p"],
                          "sandwich = " + _verdict(ok)], ok)


def _capacities(M, p, a, b, nodes):
    """(analytic, numeric) p-capacity of the condenser [a, b] on M, the
    numeric one with its plates on the end nodes of a uniform grid."""
    ana = cap.capacity_analytic(M, p, a, b).value
    grid = Grid1D.uniform(a, b, nodes, manifold=M)
    pad = 1e-9 * (b - a)
    cond = cap.Condenser(inner=(a - pad, a + pad), outer=(b - pad, b + pad))
    return ana, cap.capacity_numeric(grid, p, cond).value


def cmd_capacity(args) -> int:
    ana, num = _capacities(args.manifold, args.p, args.a, args.b, args.nodes)
    print("analytic = " + FMT % ana)
    print("numeric = " + FMT % num)
    rel = abs(num - ana) / ana
    print("relative_difference = " + FMT % rel)
    return EXIT_OK if rel <= 0.01 else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    print(args.manifold.classify_end(args.p, args.direction))
    return EXIT_OK


def cmd_barrier(args) -> int:
    f, meta = sv.two_end_barrier(args.manifold, args.p, args.tmin, args.tmax,
                                 n=args.nodes)
    return _finish(args, "barrier", *dump_csv(f),
                   [k + " = " + FMT % meta[k] for k in ("sup", "inf", "E_p")])


def cmd_decay(args) -> int:
    res = cap.tail_energy_profile(args.manifold, args.p, args.r0,
                                  args.lambda_p, args.R)
    return _finish(args, "decay", "R,tail,bound,pass",
                   [(r["R"], r["tail"], r["bound"], r["pass"])
                    for r in res["rows"]],
                   ["C3 = " + FMT % res["C3"], "slope_ok = %s, bound_ok = %s"
                    % (res["slope_ok"], res["bound_ok"])], res["ok"])


def cmd_volume(args) -> int:
    res = cap.volume_growth_check(args.manifold, args.p, args.lambda_p, args.R)
    return _finish(args, "volume", "R,measured,bound,pass",
                   [(r["R"], r["measured"], r["bound"], r["pass"])
                    for r in res["rows"]], ["kind = " + res["kind"]], res["ok"])


# the items of ``verifiers.example_gallery`` that ``--gallery`` names
_GALLERY_TAGS = {"a": "log_annulus_m2", "b": "power_p3_m4", "d": "arctan_warped"}


def _gallery_item(tag: str) -> dict:
    if tag not in _GALLERY_TAGS:
        raise InvalidInputError(f"unknown gallery tag {tag!r}")
    return next(item for item in vf.example_gallery()
                if item["name"] == _GALLERY_TAGS[tag])


def _target(args, default_tag):
    """(field, p) for a field verifier: the ``--gallery`` field, at
    ``--p`` or its own p; else the radial field ``--p``/``--m`` name (the
    power field, the log field at p = m); without ``--m``, the field of
    ``default_tag`` (``kato`` has none).  ``--m`` needs ``--p``, and
    names another field than ``--gallery``."""
    if args.m is not None and args.p is None:
        raise InvalidInputError("--m needs --p")
    if args.m is not None and args.gallery is not None:
        raise InvalidInputError("--gallery and --m name different fields")
    tag = args.gallery or (default_tag if args.m is None else None)
    if tag is not None:
        item = _gallery_item(tag)
        return item["field"], (item["p"] if args.p is None else args.p)
    if args.m is None:
        raise InvalidInputError("verify kato needs --gallery or --p/--m")
    f = vf.power_radial_field(p=args.p, m=args.m) \
        if args.p != args.m else vf.log_radial_field(m=args.m)
    return f, args.p


def _bochner_s(args):
    f, p = _target(args, "b")
    return [vf.bochner_s_residual(f, p, p - 2.0 if args.s is None else args.s,
                                  args.eps)]


def _monotonicity(args):
    """One report per p: C_emp as both bounds, passing with that p's sweep."""
    res = vf.monotonicity_suite(seed=args.seed, n=args.samples)
    return [vf.VerifierReport(name="monotonicity_p%g" % p, minimum=r["C_emp"],
                              maximum=r["C_emp"], mean=r["C_emp"],
                              threshold=0.0, passed=r["ok"], details=r)
            for p, r in res.items() if p != "ok"]


# verify's checks: name -> function of the parsed options returning a list
# of VerifierReport.  Each looks ``vf.<verifier>`` up as it runs, so a
# verifier wrapped in the module after import is the one called.
_VERIFIERS = {
    "kato": lambda a: [vf.kato_ratio(*_target(a, None))],
    "strong_form": lambda a: [vf.strong_form_residual(*_target(a, "b"))],
    "bochner": lambda a: [vf.bochner_residual(*_target(a, "b"), a.eps)],
    "bochner_s": _bochner_s,
    "monotonicity": _monotonicity,
    "regularization": lambda a: [vf.regularization_suite(a.samples, a.seed)],
}


def cmd_verify(args) -> int:
    if args.name not in _VERIFIERS:
        raise InvalidInputError(f"unknown verifier {args.name!r}")
    reports = _VERIFIERS[args.name](args)
    rows = [(r.name, r.minimum, r.maximum, r.threshold, _verdict(r.passed))
            for r in reports]
    return _finish(args, "verify_" + args.name, "check,min,max,threshold,pass",
                   rows, ["%s: min=%s max=%s threshold=%s %s"
                          % (name, FMT % lo, FMT % hi, FMT % thr, verdict)
                          for name, lo, hi, thr, verdict in rows],
                   all(r.passed for r in reports))


def cmd_gallery(args) -> int:
    rows, lines = [], []
    for item in vf.example_gallery():
        exp = item["expected"]
        rows.append((item["name"], item["p"],
                     float(exp.get("kato_ratio", np.nan)),
                     float(exp.get("residual", np.nan))))
        lines.append("%s: p=%s expected=%s" % (item["name"], FMT % item["p"], exp))
    return _finish(args, "gallery", "name,p,expected_kato_ratio,expected_residual",
                   rows, lines)


def cmd_report(args) -> int:
    """Small battery: capacity oracle, Kato ratios, monotonicity sample.
    Each row ends in its verdict; report.txt holds the same rows."""
    ana, num = _capacities(euclidean(3), 2.0, 1.0, 2.0, 513)
    rows = [("capacity_oracle", num, ana, abs(num - ana) / ana < 0.01)]
    for tag in ("a", "b"):
        item = _gallery_item(tag)
        expect = item["expected"]["kato_ratio"]
        rep = vf.kato_ratio(item["field"], item["p"])
        rows.append(("kato_" + tag, rep.mean, expect,
                     abs(rep.mean - expect) < 1e-3 and rep.passed))
    mono = vf.monotonicity_suite(n=2000, seed=args.seed)
    rows.append(("monotonicity", sum(r["violations"] for p, r in mono.items()
                                     if p != "ok"), 0, mono["ok"]))
    ok = all(row[-1] for row in rows)
    rows = [row[:-1] + (_verdict(row[-1]),) for row in rows]
    with open(os.path.join(_outdir(args), "report.txt"), "w") as fh:
        fh.write("overall: %s\n" % _verdict(ok))
        fh.writelines(_line(row, "  ") + "\n" for row in rows)
    return _finish(args, "report", "check,measured,expected,pass", rows,
                   ["overall: " + _verdict(ok)], ok)


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
    except (PlapError, OSError, ValueError, MemoryError) as exc:
        # MemoryError: a grid too large to allocate is invalid input
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
