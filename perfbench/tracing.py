"""Outside-in tracing of plap.

``Tracer.install`` replaces public functions and methods of the plap
modules with wrappers that record spans (name, start, end, parent, job)
or, for the hot scalar ``ModelManifold.area``, only count calls.  Nothing
under ``src/`` is changed; the wrappers live for the life of the process.
``Tracer.summary`` reduces the spans to per-layer sums, and ``derive``
turns summed summaries into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method
SPANS = (
    ("geometry.phi_integral", "plap.geometry", "ModelManifold.phi_integral"),
    ("geometry.volume_between", "plap.geometry", "ModelManifold.volume_between"),
    ("grid.wp_distance", "plap.grid", "wp_distance"),
    ("energy.energy", "plap.energy", "energy"),
    ("energy.weak_residual", "plap.energy", "weak_residual"),
    ("energy.linearized_action", "plap.energy", "linearized_action"),
    ("energy.residual_scale", "plap.energy", "residual_scale"),
    ("energy.hessian_diagonal", "plap.energy", "hessian_diagonal"),
    ("energy.q_energy", "plap.energy", "q_energy"),
    ("solver.solve_dirichlet", "plap.solver", "solve_dirichlet"),
    ("solver.linear_solve", "plap.solver", "solve_banded"),
    ("solver.linear_solve", "plap.solver", "spsolve"),
    ("solver.linear_solve", "plap.solver", "cg"),
    ("solver.sandwich_check", "plap.solver", "sandwich_check"),
    ("solver.radial_p_harmonic", "plap.solver", "radial_p_harmonic"),
    ("solver.two_end_barrier", "plap.solver", "two_end_barrier"),
    ("capacity.capacity_numeric", "plap.capacity", "capacity_numeric"),
    ("capacity.capacity_analytic", "plap.capacity", "capacity_analytic"),
    ("capacity.end_barrier_sweep", "plap.capacity", "end_barrier_sweep"),
    ("capacity.tail_energy_profile", "plap.capacity", "tail_energy_profile"),
    ("capacity.volume_growth_check", "plap.capacity", "volume_growth_check"),
    ("verifiers.kato_ratio", "plap.verifiers", "kato_ratio"),
    ("verifiers.strong_form_residual", "plap.verifiers", "strong_form_residual"),
    ("verifiers.bochner_residual", "plap.verifiers", "bochner_residual"),
    ("verifiers.monotonicity_suite", "plap.verifiers", "monotonicity_suite"),
    ("cli.run", "plap.cli", "run"),
)
COUNTERS = (
    ("geometry.area", "plap.geometry", "ModelManifold.area"),
    ("grid.DiscreteField", "plap.grid", "DiscreteField.__init__"),
)
SOLVE = "solver.solve_dirichlet"
# time the tracer spends inspecting a finished solve; it is recorded as a
# span so that no plap layer is charged with it
OBSERVE = "trace.observe"


def _replace(module, attr, make):
    """Wrap module.attr (or Class.method) wherever plap refers to it;
    a module the process has not imported is left alone."""
    mod = sys.modules.get(module)
    if mod is None:
        return
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    orig = getattr(mod, attr)
    wrapper = make(orig)
    for name, other in list(sys.modules.items()):
        if other is not None and (name == "plap" or name.startswith("plap.")):
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapper)


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job]
        self.stack = []
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.solver = {"newton_iters": 0, "guard_exits": 0, "nonconvergence": 0}
        self.job = None

    def install(self):
        """Wrap plap's layers; plap must already be imported, and
        plap.cli too where the CLI is to be traced."""
        import plap.energy
        import plap.solver
        self._plap = plap
        self._residual_scale = plap.energy.residual_scale
        for name, module, attr in COUNTERS:
            _replace(module, attr, functools.partial(self._counter, name))
        for name, module, attr in SPANS:
            _replace(module, attr, functools.partial(self._span, name))

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = self._observe_solve if name == SOLVE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc)
                    spans.append([OBSERVE, span[2], perf_counter(), parent, self.job])
        return wrapper

    def _observe_solve(self, args, kwargs, result, exc):
        """Newton iterations, guard exits and non-convergence of a solve,
        read from its arguments, returned field and report."""
        plap = self._plap
        if exc is not None:
            if isinstance(exc, plap.NonConvergenceError):
                self.solver["nonconvergence"] += 1
                if exc.report is not None and exc.report.steps:
                    self.solver["newton_iters"] += exc.report.steps[-1]["iterations"]
            return
        field, report = result
        step = report.steps[-1]
        self.solver["newton_iters"] += step["iterations"]
        spec = args[0] if args else kwargs["spec"]
        cfg = (args[3] if len(args) > 3 else kwargs.get("cfg")) or plap.SolveConfig()
        spec = plap.EnergySpec(spec.p, max(spec.eps, plap.solver.EPS_FLOOR))
        tol = cfg.residual_tol * (1.0 + self._residual_scale(spec, field))
        if step["residual"] > tol:
            self.solver["guard_exits"] += 1

    def summary(self):
        """Per-layer sums over every span and count recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name, _, _ in SPANS:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        ls_energy = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == OBSERVE:
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[i]
            if (name == "energy.energy" and parent >= 0
                    and spans[parent][0] == SOLVE):
                ls_energy += 1
        for name, count in self.counts.items():
            out[name + ".calls"] = count
        for key, value in self.solver.items():
            out["solver." + key] = value
        out["solver.linesearch.energy_calls"] = ls_energy
        return out


def add(total, summary):
    """Sum two summaries key by key."""
    return {k: total.get(k, 0) + v for k, v in summary.items()}


def derive(summary):
    """Per-layer metrics of a (summed) summary: the sums plus the solver
    ratios, which are 0 where their base is 0."""
    out = dict(summary)
    iters = summary["solver.newton_iters"]
    evals = summary["solver.linesearch.energy_calls"]
    out["solver.cg_iters_per_newton"] = (
        summary["energy.linearized_action.calls"] / iters if iters else 0.0)
    out["solver.linesearch.accept_ratio"] = iters / evals if evals else 0.0
    return out
