"""Traced mode: spans around nlfrac's public functions, from outside.

Each wrapped function is rebound under the name its *calling* module
imported, so nlfrac's own internal calls go through the wrapper without
any edit to ``src/``.  A span records name, start, end, parent span and
request id; spans are kept in memory and written out when the run ends.
Only calls made while a request is being timed are recorded, so data
generation and warm-up leave no trace.

Self time of a span is its duration minus the durations of its direct
children (calls here are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (calling module, imported name, span name); modules that imported the
# same function share one wrapper, and several functions may share a span
# name (validate, require_valid and reduce_spec all count as validation)
WRAPPED = (
    ("mlf", "eval_ml_many", "mlf.eval_ml_many"),
    ("relax", "evaluate_solution_many", "relax.evaluate_solution_many"),
    ("fitting", "evaluate_solution_many", "relax.evaluate_solution_many"),
    ("relax", "validate", "specparams.validate"),
    ("relax", "require_valid", "specparams.validate"),
    ("relax", "reduce_spec", "specparams.validate"),
    ("fitting", "validate", "specparams.validate"),
    ("fitting", "reduce_spec", "specparams.validate"),
    ("fitting", "model_values", "fitting.model_values"),
    ("fitting", "fit_relaxation", "fitting.fit_relaxation"),
    ("volterra", "quadrature_matrix", "gridops.quadrature_matrix"),
    ("volterra", "picard_solve", "volterra.picard_solve"),
)


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_s, end_s, parent, request]
        self.stack: list[int] = []
        self.request: int | None = None
        self.t0 = time.perf_counter()
        self.requests = 0
        self.ml_points = 0
        self.ab_seen: set = set()
        self.ab_calls = 0
        self.ab_repeats = 0
        self.q_seen: set = set()
        self.q_calls = 0
        self.q_repeats = 0
        self.q_entries = 0
        self.simplex_iterations = 0
        self.picard_iterations = 0
        self.matvec_flops = 0
        self._restore: list = []

    # -- request boundaries -------------------------------------------------

    def begin_request(self, rid: int) -> None:
        self.request = rid
        self.requests += 1
        self._open("request")

    def end_request(self) -> None:
        self._close()
        self.request = None

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter() - self.t0, None, parent, self.request])
        self.stack.append(sid)
        return sid

    def _close(self) -> None:
        sid = self.stack.pop()
        self.spans[sid][3] = time.perf_counter() - self.t0

    # -- counters -----------------------------------------------------------

    def _count(self, name, args, kwargs, result) -> None:
        if name == "mlf.eval_ml_many":
            alpha, beta, z = args[:3]
            key = (float(alpha), float(beta))
            self.ab_calls += 1
            self.ab_repeats += key in self.ab_seen
            self.ab_seen.add(key)
            self.ml_points += len(z) if hasattr(z, "__len__") else 1
        elif name == "gridops.quadrature_matrix":
            order, grid = args[:2]
            exponent = kwargs.get("singular_exponent", args[2] if len(args) > 2 else None)
            key = (float(order), grid.x_max, grid.m, grid.r, exponent)
            self.q_calls += 1
            self.q_repeats += key in self.q_seen
            self.q_seen.add(key)
            self.q_entries += grid.m * grid.m
        elif name == "fitting.fit_relaxation":
            self.simplex_iterations += result.iterations
        elif name == "volterra.picard_solve":
            m = result.solution.grid.m
            self.picard_iterations += result.iterations
            # one W @ f per iteration plus the residual evaluation
            self.matvec_flops += 2 * m * m * (result.iterations + 1)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self, nf) -> "Tracer":
        wrappers: dict[tuple, object] = {}
        for mod_name, attr, span in WRAPPED:
            mod = getattr(nf, mod_name)
            original = getattr(mod, attr)
            key = (span, original)
            if key not in wrappers:
                wrappers[key] = self._wrap(span, original)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, wrappers[key])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (number of spans, summed self time in s)."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        return calls, self_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per timed request."""
        calls, self_s = self.self_times()
        per = 1.0 / max(self.requests, 1)

        def share(num, den):
            return num / den if den else 0.0

        return {
            "mlf.eval_ml_many.calls": (calls["mlf.eval_ml_many"] * per, "count/req"),
            "mlf.eval_ml_many.points": (self.ml_points * per, "count/req"),
            "mlf.eval_ml_many.self_s": (self_s["mlf.eval_ml_many"] * per, "s/req"),
            "mlf.alpha_beta_reuse": (share(self.ab_repeats, self.ab_calls), "fraction"),
            "relax.evaluate_solution_many.self_s": (self_s["relax.evaluate_solution_many"] * per, "s/req"),
            "specparams.validate.calls": (calls["specparams.validate"] * per, "count/req"),
            "specparams.validate.self_s": (self_s["specparams.validate"] * per, "s/req"),
            "fitting.model_values.calls": (calls["fitting.model_values"] * per, "count/req"),
            "fitting.model_values.self_s": (self_s["fitting.model_values"] * per, "s/req"),
            "fitting.simplex_iterations": (self.simplex_iterations * per, "count/req"),
            "fitting.fit_relaxation.self_s": (self_s["fitting.fit_relaxation"] * per, "s/req"),
            "gridops.quadrature_matrix.calls": (calls["gridops.quadrature_matrix"] * per, "count/req"),
            "gridops.quadrature_matrix.self_s": (self_s["gridops.quadrature_matrix"] * per, "s/req"),
            "gridops.quadrature_matrix.key_reuse": (share(self.q_repeats, self.q_calls), "fraction"),
            "gridops.quadrature_matrix.entries_computed": (self.q_entries * per, "count/req"),
            "gridops.quadrature_matrix.bytes": (8 * self.q_entries * per, "B/req"),
            "volterra.picard_solve.self_s": (self_s["volterra.picard_solve"] * per, "s/req"),
            "volterra.iterations": (self.picard_iterations * per, "count/req"),
            "volterra.matvec_flops": (self.matvec_flops * per, "flop/req"),
        }
