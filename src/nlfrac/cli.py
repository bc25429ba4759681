"""Command-line front end.

Subcommands map one-to-one onto library modules: mlf (special
function values), classify (operator taxonomy), solve (closed-form
relaxation curves), picard (integral-equation iteration), fit
(parameter recovery), verify (seeded property suites).

Exit codes are a contract for scripting: 0 success, 1 validation
problems (bad parameters, malformed input, failed suites), 2 numeric
breakdowns (non-convergence, undefined evaluation).  Every output file
is written whole via a temp file and rename; a failing run leaves no
partial artifacts.  For a fixed argv and seed the bytes written are
identical run to run.

Each verify suite is one trial function run by one loop.  A trial draws
its case from the seeded generator and returns (draw, check): draw is
the JSON record that replays the case, and check() returns None or the
fields of its failure.  A check that raises an NlfracError, non-
convergence included, is a failed trial with an "error" field; the
report is still written, and verify exits 1 whenever a trial failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .errors import (
    EvaluationAtZeroUndefinedError,
    NlfracError,
    NonConvergenceError,
)
from .fitting import FitProblem, fit_relaxation, fit_report_tail, model_values, parameter_names
from .gridops import GradedGrid, csv_text, default_grading_exponent, read_xy
from .mlf import MLQuery, eval_ml_info
from .powerlaw import PowerSum, nth_level_derivative, projector_apply, rl_integral
from .relax import (
    RelaxationProblem,
    asymptotic_form,
    cm_numeric_check,
    cm_verdict,
    evaluate_solution_many,
    laplace_verify,
    solve_relaxation,
)
from .specparams import DerivativeSpec, classify, reduce_spec, validate
from .volterra import VolterraProblem, make_rhs, picard_solve

__all__ = ["main", "run", "verify_suite", "SUITE_NAMES"]


class _Parser(argparse.ArgumentParser):
    """argparse variant keeping usage failures on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_code_on_error(message))

    def exit_code_on_error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".nlfrac-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(path: str | None, text: str) -> None:
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise NlfracError(f"{flag} expects a comma-separated number list, got {text!r}")


def _load_spec(args) -> DerivativeSpec:
    inline = args.alpha is not None or args.gamma is not None
    if args.spec and inline:
        raise NlfracError("give either --spec or inline --alpha/--gamma, not both")
    if args.spec:
        with open(args.spec) as fh:
            return DerivativeSpec.from_dict(json.load(fh))
    if args.alpha is None or args.gamma is None:
        raise NlfracError("spec requires --spec FILE or both --alpha and --gamma")
    gamma = _parse_floats(args.gamma, "--gamma")
    return DerivativeSpec(len(gamma), args.alpha, gamma)


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a spec JSON {n, alpha, gamma}")
    p.add_argument("--alpha", type=float, help="order, inline alternative to --spec")
    p.add_argument("--gamma", help="comma-separated type vector, inline alternative")


def _sidecar_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root + ".json" if ext != ".json" else root + "_meta.json"


def _grid(args, terminal: DerivativeSpec) -> GradedGrid:
    grading = args.grading if args.grading else default_grading_exponent(terminal)
    return GradedGrid(args.xmax, args.points, grading)


def _emit_curve(args, grid: GradedGrid, values, sigma, meta: dict) -> None:
    """JSON payload of meta plus x and y, or CSV with meta in a sidecar."""
    if args.format == "json":
        xy = {"x": [float(v) for v in grid.nodes], "y": [float(v) for v in values]}
        _emit(args.out, _json_text({**meta, **xy}))
        return
    _emit(args.out, csv_text(grid.nodes, values, sigma))
    if args.out:
        _atomic_write(_sidecar_path(args.out), _json_text(meta))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_mlf(args) -> int:
    value, regime = eval_ml_info(MLQuery(args.alpha, args.beta, args.z))
    if args.format == "json":
        text = _json_text(
            {"alpha": args.alpha, "beta": args.beta, "z": args.z,
             "value": value, "regime": regime}
        )
    else:
        text = f"{value:.17g} regime={regime}\n"
    _emit(args.out, text)
    return 0


def _cmd_classify(args) -> int:
    spec = _load_spec(args)
    cls = classify(spec)
    if args.format == "json":
        payload = cls.to_dict()
        payload["validation"] = validate(spec).to_dict()
        text = _json_text(payload)
    else:
        text = cls.label + "\n"
    _emit(args.out, text)
    return 0


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    prob = RelaxationProblem(spec, getattr(args, "lambda"), _parse_floats(args.init, "--init"))
    sol = solve_relaxation(prob)
    grid = _grid(args, prob.terminal)
    values = evaluate_solution_many(sol, grid.nodes)
    verdict = cm_verdict(prob)
    tail = asymptotic_form(prob)
    meta = {
        "spec": spec.to_dict(),
        "terminal_spec": prob.terminal.to_dict(),
        "lambda": prob.lam,
        "solution": sol.to_dict(),
        "sigma": list(prob.terminal.sigma),
        "cm_admissible": verdict.admissible_by_theorem,
        "cm_notes": list(verdict.notes),
        "asymptotic_terms": [list(t) for t in tail.terms],
    }
    lead = min(prob.terminal.sigma)
    _emit_curve(args, grid, values, lead if lead <= 0.0 else None, meta)
    return 0


def _parse_rhs(text: str):
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "linear":
        (c,) = _parse_floats(rest, "--rhs linear") if rest else (-1.0,)
        return make_rhs("linear", {"c": c}), {"name": "linear", "c": c}
    if name == "logistic":
        vals = _parse_floats(rest, "--rhs logistic")
        if len(vals) != 2:
            raise NlfracError("--rhs logistic needs two parameters a,b")
        a, b = vals
        return make_rhs("logistic", {"a": a, "b": b}), {"name": "logistic", "a": a, "b": b}
    raise NlfracError(f"unknown right-hand side {name!r}; known: linear, logistic")


def _cmd_picard(args) -> int:
    spec = _load_spec(args)
    rhs, rhs_info = _parse_rhs(args.rhs)
    grid = _grid(args, reduce_spec(spec))
    prob = VolterraProblem(
        spec, rhs, _parse_floats(args.init, "--init"), grid,
        tol=args.tol, max_iter=args.max_iter,
    )
    res = picard_solve(prob)
    meta = {
        "spec": spec.to_dict(),
        "rhs": rhs_info,
        "iterations": res.iterations,
        "residual": res.residual,
        "converged": res.converged,
        "tol": prob.tol,
        "max_iter": prob.max_iter,
    }
    _emit_curve(args, grid, res.solution.values, res.solution.singular_exponent, meta)
    return 0 if res.converged else 2


_DEFAULT_BOUNDS = {
    "alpha": (0.01, 1.0),
    "gamma": (0.0, 0.999999),
    "lambda": (1e-6, 1e3),
    "y": (-1e3, 1e3),
}


def _fit_bounds(names, path):
    loaded = {}
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
    out = []
    for name in names:
        if name in loaded:
            lo, hi = loaded[name]
        elif name.startswith("gamma_"):
            lo, hi = loaded.get("gamma", _DEFAULT_BOUNDS["gamma"])
        elif name.startswith("y_"):
            lo, hi = loaded.get("y", _DEFAULT_BOUNDS["y"])
        else:
            lo, hi = _DEFAULT_BOUNDS[name]
        out.append((float(lo), float(hi)))
    return tuple(out)


def _cmd_fit(args) -> int:
    x, y, _ = read_xy(args.data)
    names = parameter_names(args.n)
    # tolerate the underscore-free spellings y1, gamma2 and the word lam
    aliases = {nm.replace("_", ""): nm for nm in names}
    aliases["lam"] = "lambda"
    free_names = []
    for raw in (s.strip() for s in args.free.split(",") if s.strip()):
        nm = raw if raw in names else aliases.get(raw)
        if nm is None:
            raise NlfracError(f"unknown free parameter {raw!r}; expected from {names}")
        free_names.append(nm)
    mask = tuple(nm in free_names for nm in names)
    guess = _parse_floats(args.guess, "--guess")
    prob = FitProblem(
        x, y, args.n, mask, _fit_bounds(names, args.bounds), guess,
        downweight_origin=args.downweight_origin,
    )
    result = fit_relaxation(prob, seed=args.seed)
    tail = fit_report_tail(result, args.n)
    payload = result.to_dict()
    payload["seed"] = args.seed
    payload["free"] = list(free_names)
    payload["asymptotic_terms"] = [list(t) for t in tail.terms]
    _emit(args.out, _json_text(payload))
    if args.out:
        fitted = model_values([result.parameters[k] for k in names], args.n, prob.x)
        _atomic_write(os.path.splitext(args.out)[0] + "_curve.csv", csv_text(prob.x, fitted))
    return 0 if result.converged else 2


# ---------------------------------------------------------------------------
# verify suites: one trial function each, run by verify_suite

def _draw_valid_spec(rng, n: int) -> DerivativeSpec:
    alpha = float(rng.uniform(0.05, 1.0))
    gamma = []
    s = 0.0
    for k in range(1, n + 1):
        hi = min(1.6, k - alpha - s)
        g = float(rng.uniform(0.0, max(hi, 0.0)))
        gamma.append(g)
        s += g
    return DerivativeSpec(n, alpha, tuple(gamma))


def _draw_truly_spec(rng, n: int, alpha_lo=0.05, alpha_hi=None) -> DerivativeSpec:
    margin = 1e-3
    if alpha_hi is None:
        alpha_hi = 1.0 - margin
    alpha = float(rng.uniform(alpha_lo, alpha_hi))
    gamma = [float(rng.uniform(0.0, 1.0 - alpha))]
    s = gamma[0]
    # gamma_k in (k - 1 - alpha - s_{k-1}, 1) keeps alpha + s_k inside
    # (k - 1, k]; draws keep margin of the interval's width from its ends,
    # so the interval is never empty
    for k in range(2, n + 1):
        lo = max(0.0, k - 1.0 - alpha - s)
        g = float(lo + (1.0 - lo) * rng.uniform(margin, 1.0 - margin))
        gamma.append(g)
        s += g
    return DerivativeSpec(n, alpha, tuple(gamma))


def _draw_monomial_exponent(rng, spec: DerivativeSpec, lo=-0.5, hi=3.0,
                            direct=False) -> float:
    # stage k of the derivative chain differentiates an exponent of
    # mu - sigma_k (direct) or mu + alpha - sigma_k (after an order-
    # alpha integral); values landing in (-1, 0) there leave the
    # algebra, so draws stay above every such band
    floor = max(spec.sigma) + 1e-6
    if not direct:
        floor -= spec.alpha
    return float(rng.uniform(max(lo, floor), hi))


def _coeff_dev(got: PowerSum, want: PowerSum) -> float:
    diff = got - want
    scale = max((abs(c) for c, _ in want.terms), default=1.0)
    return max((abs(c) for c, _ in diff.terms), default=0.0) / scale


def _deviation(dev: float, tol: float):
    return None if dev <= tol else {"deviation": dev}


def _problem_draw(prob: RelaxationProblem) -> dict:
    return {"spec": prob.spec.to_dict(), "lambda": prob.lam, "y": list(prob.y)}


def _trial_ftfc(rng, tol):
    spec = _draw_valid_spec(rng, int(rng.integers(1, 5)))
    mu = _draw_monomial_exponent(rng, spec)
    c = float(rng.uniform(0.5, 2.0))

    def check():
        f = PowerSum.monomial(c, mu)
        back = nth_level_derivative(spec, rl_integral(f, spec.alpha))
        return _deviation(_coeff_dev(back, f), tol)

    return {"spec": spec.to_dict(), "mu": mu, "c": c}, check


def _trial_projector(rng, tol):
    spec = _draw_truly_spec(rng, int(rng.integers(1, 4)))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        terms.append(
            (float(rng.uniform(-2, 2)),
             _draw_monomial_exponent(rng, spec, direct=True))
        )
    if rng.random() < 0.5:
        k = int(rng.integers(0, spec.n))
        terms.append((float(rng.uniform(-2, 2)), spec.sigma[k]))
    f = PowerSum(tuple(terms))

    def check():
        df = nth_level_derivative(spec, f)
        proj = projector_apply(spec, f)
        recon = rl_integral(df, spec.alpha) + PowerSum(tuple(zip(proj.p, proj.sigma)))
        return _deviation(_coeff_dev(recon, f), tol)

    return {"spec": spec.to_dict(), "terms": f.to_pairs()}, check


def _trial_kernel(rng, tol):
    spec = _draw_truly_spec(rng, int(rng.integers(1, 5)))

    def check():
        worst = 0.0
        for sig in spec.sigma:
            out = nth_level_derivative(spec, PowerSum.monomial(1.0, sig))
            worst = max(worst, max((abs(c) for c, _ in out.terms), default=0.0))
        return _deviation(worst, tol)

    return {"spec": spec.to_dict()}, check


def _trial_laplace(rng, tol):
    spec = _draw_truly_spec(rng, int(rng.integers(1, 3)))
    lam = float(rng.uniform(0.3, 3.0))
    prob = RelaxationProblem(spec, lam, tuple(float(v) for v in rng.uniform(0.2, 2.0, spec.n)))

    def check():
        return _deviation(laplace_verify(prob, (1.0, 2.0, 5.0), m=2048).max_rel_dev, tol)

    return _problem_draw(prob), check


def _trial_picard(rng, tol):
    # rates stay at 1.1 or below for the grid's quadrature error, not for
    # the solver: on 2048 nodes over [0, 5] the discrete solution is off
    # the closed form by 1.2e-5 at alpha = 0.46, n = 2, rate 1.95, and by
    # 1.8e-5 at alpha = 0.475, n = 2, rate 1.68, both converged, and the
    # same with the block march and with sweeps of the whole map
    spec = _draw_truly_spec(rng, int(rng.integers(1, 3)), alpha_lo=0.3, alpha_hi=0.95)
    lam = float(rng.uniform(0.3, 1.1))
    prob = RelaxationProblem(spec, lam, tuple(float(v) for v in rng.uniform(0.2, 2.0, spec.n)))

    def check():
        grid = GradedGrid(5.0, 2048, default_grading_exponent(prob.terminal))
        res = picard_solve(VolterraProblem(
            prob.spec, make_rhs("linear", {"c": -prob.lam}), prob.y, grid,
            tol=1e-9, max_iter=500,
        ))
        ref = evaluate_solution_many(solve_relaxation(prob), grid.nodes)
        mask = grid.nodes >= 0.1
        got = np.asarray(res.solution.values)
        scale = float(np.max(np.abs(ref[mask])))
        dev = float(np.max(np.abs(got[mask] - ref[mask]))) / scale
        if dev <= tol and res.converged:
            return None
        return {"deviation": dev, "converged": res.converged}

    return _problem_draw(prob), check


def _draw_cm_admissible(rng):
    # drawn through the partial sums: admissibility wants s_k >= k - 1,
    # validity wants alpha + s_k <= k, and staying truly at level n
    # wants each increment gamma_k (k >= 2) below 1
    # the floor above k - 1 shrinks with k so every interval stays
    # nonempty even when the previous draw lands on its own floor
    n = 2 if rng.random() < 0.7 else 3
    m = 1e-2
    alpha = float(rng.uniform(0.05, 0.94))
    s = [float(rng.uniform(5 * m, 1.0 - alpha))]
    for k in range(2, n + 1):
        lo = (k - 1) + (5 - k) * m
        hi = min(s[-1] + 1.0 - m, k - alpha - m)
        s.append(float(rng.uniform(lo, hi)))
    gamma = [s[0]] + [b - a for a, b in zip(s, s[1:])]
    spec = DerivativeSpec(n, alpha, tuple(gamma))
    lam = float(rng.uniform(0.3, 3.0))
    y = tuple(float(v) for v in rng.uniform(0.0, 2.0, n))
    return RelaxationProblem(spec, lam, y)


def _trial_cm(rng, tol):
    prob = _draw_cm_admissible(rng)

    def check():
        verdict = cm_verdict(prob)
        if not verdict.admissible_by_theorem:
            return {"error": "draw not admissible", "notes": list(verdict.notes)}
        rep = cm_numeric_check(solve_relaxation(prob), 1e-2, 1e3, max_order=6, tau=tol)
        if not rep.violations:
            return None
        return {"violations": [[m, x, v] for m, x, v in rep.violations[:5]],
                "count": len(rep.violations)}

    return _problem_draw(prob), check


# data abscissae of the fit suite in u = lam^(1/alpha) x, from early
# times to about eight relaxation times (the benchmark's fit grid)
_FIT_U = np.geomspace(0.02, 8.5, 60)


def _trial_fit(rng, tol):
    # noiseless data from a truly level-1 or level-2 spec, fitted from
    # 10 to 30 percent off the truth with lambda and every y_k free, and
    # alpha too in one trial of three.  alpha's box is the interval that
    # keeps the drawn gamma valid and truly at level n; a draw whose alpha
    # start falls outside it is drawn again
    n = int(rng.integers(1, 3))
    names = parameter_names(n)
    free = (("alpha",) if rng.random() < 1.0 / 3.0 else ()) + names[n + 1 :]
    while True:
        spec = _draw_truly_spec(rng, n, alpha_lo=0.3, alpha_hi=0.95)
        lam = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        y = tuple(float(v) for v in rng.uniform(0.3, 1.5, n))
        off = rng.uniform(0.1, 0.3, len(free)) * rng.choice((-1.0, 1.0), len(free))
        off = dict(zip(free, off))
        truth = dict(zip(names, (spec.alpha, *spec.gamma, lam, *y)))
        guess = [float(truth[nm] * (1.0 + off.get(nm, 0.0))) for nm in names]
        s = spec.s
        alpha_box = (max(0.01, n - 1.0 - s[-1] + 1e-9),
                     min([1.0] + [k - sk for k, sk in enumerate(s, start=1)]))
        if alpha_box[0] <= guess[0] <= alpha_box[1]:
            break
    prob = RelaxationProblem(spec, lam, y)
    draw = {**_problem_draw(prob), "free": list(free), "guess": guess,
            "alpha_box": list(alpha_box)}

    def check():
        x = _FIT_U * lam ** (-1.0 / spec.alpha)
        data = evaluate_solution_many(solve_relaxation(prob), x)
        mask = tuple(nm in free for nm in names)
        bounds = (alpha_box,) + _fit_bounds(names, None)[1:]
        res = fit_relaxation(FitProblem(x, data, n, mask, bounds, guess))
        dev = max(abs(res.parameters[nm] / truth[nm] - 1.0) for nm in free)
        if dev <= tol and res.converged:
            return None
        return {"deviation": dev, "converged": res.converged}

    return draw, check


# name: (trial, default trial count, default tolerance)
_SUITES = {
    "ftfc": (_trial_ftfc, 100, 1e-10),
    "projector": (_trial_projector, 100, 1e-10),
    "kernel": (_trial_kernel, 50, 1e-12),
    "laplace": (_trial_laplace, 5, 1e-4),
    "picard": (_trial_picard, 3, 1e-5),
    "cm": (_trial_cm, 25, 1e-7),
    "fit": (_trial_fit, 50, 1e-6),
}
SUITE_NAMES = tuple(_SUITES)


def verify_suite(name: str, trials: int | None = None, seed: int = 0,
                 tol: float | None = None) -> dict:
    """Run one property suite and return its JSON-ready report."""
    if name not in _SUITES:
        raise NlfracError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    trial, default_trials, default_tol = _SUITES[name]
    trials = default_trials if trials is None else trials
    if trials < 1:
        raise NlfracError("--trials must be >= 1")
    tol = default_tol if tol is None else tol
    rng = np.random.default_rng(seed)
    draws, failures = [], []
    for i in range(trials):
        draw, check = trial(rng, tol)
        draws.append(draw)
        try:
            fields = check()
        except NlfracError as exc:
            fields = {"error": str(exc)}
        if fields is not None:
            failures.append({"trial": i, **fields, "draw": draw})
    return {
        "suite": name,
        "trials": trials,
        "seed": seed,
        "tolerance": tol,
        "failures": failures,
        "draws": draws,
    }


def _cmd_verify(args) -> int:
    report = verify_suite(args.suite, args.trials, args.seed, args.tol)
    _emit(args.out, _json_text(report))
    return 0 if not report["failures"] else 1


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="nlfrac", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, fmt_default="text"):
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=("text", "csv", "json"), default=fmt_default)

    sp = sub.add_parser("mlf", help="evaluate the two-parameter Mittag-Leffler function")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--z", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_mlf)

    sp = sub.add_parser("classify", help="name the operator family of a spec")
    _add_spec_flags(sp)
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("solve", help="closed-form relaxation solution curve")
    _add_spec_flags(sp)
    sp.add_argument("--lambda", type=float, required=True, dest="lambda")
    sp.add_argument("--init", required=True, help="comma-separated initial values")
    sp.add_argument("--xmax", type=float, default=5.0)
    sp.add_argument("--points", type=int, default=2048)
    sp.add_argument("--grading", type=float, default=None)
    common(sp, fmt_default="csv")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("picard", help="iterate the integral form of the equation")
    _add_spec_flags(sp)
    sp.add_argument("--rhs", required=True, help="forcing, e.g. linear:-1.0 or logistic:1.0,0.5")
    sp.add_argument("--init", required=True)
    sp.add_argument("--xmax", type=float, default=5.0)
    sp.add_argument("--points", type=int, default=2048)
    sp.add_argument("--grading", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=200,
                    help="sweeps allowed per block of the march")
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp, fmt_default="csv")
    sp.set_defaults(fn=_cmd_picard)

    sp = sub.add_parser("fit", help="recover relaxation parameters from x,y data")
    sp.add_argument("--data", required=True, help="CSV with x,y header")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--free", required=True, help="comma list, e.g. alpha,lambda,y_1")
    sp.add_argument("--bounds", help="JSON file of {name: [lo, hi]} overrides")
    sp.add_argument("--guess", required=True, help="full start vector, comma-separated")
    sp.add_argument("--downweight-origin", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    common(sp, fmt_default="json")
    sp.set_defaults(fn=_cmd_fit)

    sp = sub.add_parser("verify", help="run a seeded property suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    common(sp, fmt_default="json")
    sp.set_defaults(fn=_cmd_verify)

    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (NonConvergenceError, EvaluationAtZeroUndefinedError) as exc:
        print(f"nlfrac {args.subcommand}: numeric failure: {exc}", file=sys.stderr)
        return 2
    except NlfracError as exc:
        print(f"nlfrac {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"nlfrac {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
