"""The three workloads: input plans, requests and the records kept for checking.

Every workload is a single-client closed loop over *rounds*: a round is
a fixed composition of request kinds, and a run always ends on a round
boundary, so the mix of inputs (and the share of any failures) is the
same in every run whatever its length.  Inputs come only from the seed
(and, for ``curves`` and ``picard``, from the stored pools whose
reference values ``refs.py`` regenerates; for ``fit``, from an operator
panel drawn with a fixed generator seed); nlfrac receives nothing but
the generated arguments.

This module is imported by both the timed worker and the checking
parent, so it imports nlfrac only inside the functions that run
requests.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# curves: the request abscissae and the subset checked against the oracle
CURVES_GRID = np.geomspace(1e-3, 1e3, 2000)
CURVES_CHECK_IDX = tuple(int(i) for i in np.linspace(0, CURVES_GRID.size - 1, 12).round())
CURVES_LAM_CELLS = 8
CURVES_PASSES = 2

# fit: 60 abscissae spanning u = lam^(1/alpha) x in [0.02, 8.5], i.e. from
# early times to about eight relaxation times of the drawn model
FIT_POINTS = 60
FIT_U = np.geomspace(0.02, 8.5, FIT_POINTS)
FIT_NAMES = ("alpha", "gamma_1", "gamma_2", "lambda", "y_1", "y_2")
FIT_FREE = ("lambda", "y_1", "y_2")
FIT_BOUNDS = ((0.01, 1.0), (0.0, 0.999), (0.0, 0.999), (1e-3, 1e2), (-1e2, 1e2), (-1e2, 1e2))
FIT_ALPHA_STRATA = ((0.3, 0.4), (0.4, 0.5), (0.5, 0.6), (0.6, 0.7), (0.7, 0.8), (0.8, 0.95))
FIT_PANEL_SEED = 7112020

# picard: every stored spec per round, each swept by two linear and two
# logistic forcings on its fixed graded grid.  The iteration count grows
# with the rate (21 at 0.5, 106 at 2.5 for the alpha = 0.49 spec), so
# each spec gets one rate from either band; past about 2.8 that spec
# needs more than picard_solve's default 200 iterations.
PICARD_LINEAR_RATE_BANDS = ((0.5, 1.0), (1.0, 2.5))
PICARD_LOGISTIC_PER_SPEC = 2
PICARD_CHECK_X_MIN = 0.1


def draw_truly_gamma(rng: np.random.Generator, n: int, alpha: float, margin: float = 0.02):
    """Type vector of a truly level-n spec of order alpha.

    gamma_1 in [0, 1 - alpha] keeps alpha + s_1 <= 1; for k >= 2,
    gamma_k in (k - 1 - alpha - s_{k-1}, 1) keeps alpha + s_k inside
    (k - 1, k], which is what truly level-n needs at k = n and what
    keeps the next interval non-empty.  Draws stay ``margin`` of each
    interval's width away from its ends, where validation slack rather
    than the parameters would decide the class.
    """
    gam = [float(rng.uniform(0.0, 1.0 - alpha))]
    s = gam[0]
    for k in range(2, n + 1):
        lo = max(0.0, k - 1.0 - alpha - s)
        gam.append(float(lo + (1.0 - lo) * rng.uniform(margin, 1.0 - margin)))
        s += gam[-1]
    return tuple(gam)


def sigmas(n: int, alpha: float, gamma) -> tuple[float, ...]:
    """Kernel exponents sigma_k = alpha + s_k - k of a truly level-n spec."""
    out = []
    s = 0.0
    for k, g in enumerate(gamma, start=1):
        s += g
        out.append(alpha + s - k)
    return tuple(out)


def load_pool(name: str) -> dict:
    with open(os.path.join(DATA, f"{name}_pool.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# curves

class Curves:
    """solve_relaxation + evaluate_solution_many on 2000 log-spaced points."""

    name = "curves"

    def __init__(self):
        self.pool = load_pool("curves")
        self.entries = self.pool["entries"]
        strata: dict[str, list[int]] = {}
        for i, e in enumerate(self.entries):
            strata.setdefault(e["stratum"], []).append(i)
        # a cell is one stratum's entries at one lambda octile
        self.cells = []
        for key in sorted(strata):
            by_lam = sorted(strata[key], key=lambda i: self.entries[i]["lam"])
            size = len(by_lam) // CURVES_LAM_CELLS
            self.cells += [by_lam[k * size:(k + 1) * size] for k in range(CURVES_LAM_CELLS)]

    def rounds(self, seed: int):
        """Two passes over the cells per round, each in a seed-shuffled order.

        A curve's cost is set mostly by its level, alpha band and rate,
        so every round has the same make-up and the seed only picks where
        each cell's walk starts (every pass takes the next entry).  That
        keeps a run's throughput from hanging on which rates the seed
        happened to draw.  Two passes, about 45 s at the reference speed,
        average over more of the host's speed swings than one.
        """
        rng = np.random.default_rng(seed)
        start = [int(rng.integers(len(c))) for c in self.cells]
        p = 0
        while True:
            batch = []
            for _ in range(CURVES_PASSES):
                batch += [{"pool": int(self.cells[c][(start[c] + p) % len(self.cells[c])])}
                          for c in rng.permutation(len(self.cells))]
                p += 1
            yield batch

    def warmup_request(self):
        return {"spec": (2, 0.6, (0.3, 0.6)), "lam": 1.0, "y": (1.0, 1.0)}

    def prepare(self, nf, req):
        if "pool" in req:
            e = self.entries[req["pool"]]
            spec, lam, y = (e["n"], e["alpha"], tuple(e["gamma"])), e["lam"], tuple(e["y"])
        else:
            spec, lam, y = req["spec"], req["lam"], req["y"]
        return spec, lam, y

    def execute(self, nf, prepared):
        (n, alpha, gamma), lam, y = prepared
        prob = nf.relax.RelaxationProblem(nf.specparams.DerivativeSpec(n, alpha, gamma), lam, y)
        sol = nf.relax.solve_relaxation(prob)
        return nf.relax.evaluate_solution_many(sol, CURVES_GRID)

    def record(self, req, out):
        return {
            "pool": req["pool"],
            "finite": bool(np.all(np.isfinite(out))),
            "values": [float(out[i]) for i in CURVES_CHECK_IDX],
        }


# ---------------------------------------------------------------------------
# fit

class Fit:
    """fit_relaxation on noiseless data from a drawn truly level-2 spec."""

    name = "fit"

    def __init__(self):
        # one operator (alpha, gamma) per alpha band, drawn once
        rng = np.random.default_rng(FIT_PANEL_SEED)
        self.panel = []
        for band in FIT_ALPHA_STRATA:
            alpha = float(rng.uniform(*band))
            self.panel.append((alpha, draw_truly_gamma(rng, 2, alpha)))

    def rounds(self, seed: int):
        """Every panel operator once per round, in seed order, each with a
        fresh rate, initial values, starting point and jitter seed.

        The data abscissae scale with lam^(-1/alpha), so the Mittag-Leffler
        arguments depend on alpha and gamma but not on the rate or the
        initial values.  A model evaluation costs 10 to 28 ms depending on
        how many of its points the scalar integral route takes (7 to 14 of
        120, erratic in beta), so an operator drawn per request would leave
        a run's throughput to chance; the panel fixes the operator mix.
        """
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            batch = []
            for s in rng.permutation(len(self.panel)):
                batch.append(self._draw(rng, *self.panel[s], k))
                k += 1
            yield batch

    @staticmethod
    def _draw(rng, alpha, gamma, k):
        lam = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        y = tuple(float(v) for v in rng.uniform(0.3, 1.5, 2))
        # start 10 to 30 percent off the truth, either side, per free entry
        off = rng.uniform(0.1, 0.3, len(FIT_FREE)) * rng.choice((-1.0, 1.0), len(FIT_FREE))
        return {"alpha": alpha, "gamma": gamma, "lam": lam, "y": y, "free": FIT_FREE,
                "offsets": tuple(float(o) for o in off), "fit_seed": k}

    def warmup_request(self):
        # the same code path at a fraction of the cost: only the rate free
        return {"alpha": 0.8, "gamma": (0.1, 0.5), "lam": 1.0, "y": (1.0, 0.5),
                "free": ("lambda",), "offsets": (0.2,), "fit_seed": 0}

    @staticmethod
    def truth(req) -> dict[str, float]:
        vals = (req["alpha"],) + tuple(req["gamma"]) + (req["lam"],) + tuple(req["y"])
        return dict(zip(FIT_NAMES, map(float, vals)))

    def prepare(self, nf, req):
        """Noiseless data: the model itself at the truth.

        The fit's stopping rule (fatol 1e-24 on the residual sum) is met
        only when the data agree with the model to about 1e-12, which an
        independent evaluator does not reach.
        """
        alpha, lam = req["alpha"], req["lam"]
        x = FIT_U * lam ** (-1.0 / alpha)
        spec = nf.specparams.DerivativeSpec(2, alpha, tuple(req["gamma"]))
        prob = nf.relax.RelaxationProblem(spec, lam, tuple(req["y"]))
        y = nf.relax.evaluate_solution_many(nf.relax.solve_relaxation(prob), x)
        truth = self.truth(req)
        off = dict(zip(req["free"], req["offsets"]))
        guess = tuple(truth[nm] * (1.0 + off.get(nm, 0.0)) for nm in FIT_NAMES)
        mask = tuple(nm in off for nm in FIT_NAMES)
        return x, y, mask, guess, req["fit_seed"]

    def execute(self, nf, prepared):
        x, y, mask, guess, fit_seed = prepared
        prob = nf.fitting.FitProblem(x, y, 2, mask, FIT_BOUNDS, guess)
        return nf.fitting.fit_relaxation(prob, seed=fit_seed)

    def record(self, req, out):
        return {
            "params": {nm: out.parameters[nm] for nm in req["free"]},
            "converged": bool(out.converged),
        }


# ---------------------------------------------------------------------------
# picard

class Picard:
    """picard_solve on a 2048-node graded grid, specs swept under forcings."""

    name = "picard"

    def __init__(self):
        self.pool = load_pool("picard")
        self.specs = self.pool["specs"]

    def rounds(self, seed: int):
        """Every spec once per round, in a seed-shuffled order, each under
        two linear forcings at fresh rates, one per band, and then its
        next two stored logistic ones.  A spec's requests are consecutive,
        so the (order, grid, exponent) key repeats within a round."""
        rng = np.random.default_rng(seed)
        perms = [list(rng.permutation(len(spec["logistic"]))) for spec in self.specs]
        used = [0] * len(self.specs)
        while True:
            batch = []
            for i in (int(j) for j in rng.permutation(len(self.specs))):
                batch += [
                    {"spec": i, "rhs": "linear",
                     "lam": float(math.exp(rng.uniform(math.log(lo), math.log(hi))))}
                    for lo, hi in PICARD_LINEAR_RATE_BANDS
                ]
                for _ in range(PICARD_LOGISTIC_PER_SPEC):
                    p = perms[i]
                    batch.append({"spec": i, "rhs": "logistic", "k": int(p[used[i] % len(p)])})
                    used[i] += 1
            yield batch

    def warmup_request(self):
        return {"spec": -1, "rhs": "linear", "lam": 1.0}

    def problem_data(self, req):
        """(n, alpha, gamma), y, rhs name, rhs params for a request."""
        if req["spec"] < 0:
            spec = {"n": 2, "alpha": 0.6, "gamma": [0.3, 0.6], "y": [1.0, 1.0]}
        else:
            spec = self.specs[req["spec"]]
        if req["rhs"] == "linear":
            params = {"c": -req["lam"]}
        else:
            f = spec["logistic"][req["k"]]
            params = {"a": f["a"], "b": f["b"]}
        return (spec["n"], spec["alpha"], tuple(spec["gamma"])), tuple(spec["y"]), req["rhs"], params

    def prepare(self, nf, req):
        return self.problem_data(req)

    def execute(self, nf, prepared):
        (n, alpha, gamma), y, rhs, params = prepared
        spec = nf.specparams.DerivativeSpec(n, alpha, gamma)
        r = nf.gridops.default_grading_exponent(nf.specparams.reduce_spec(spec))
        grid = nf.gridops.GradedGrid(self.pool["x_max"], self.pool["m"], r)
        prob = nf.volterra.VolterraProblem(spec, nf.volterra.make_rhs(rhs, params), y, grid)
        return nf.volterra.picard_solve(prob)

    def record(self, req, out):
        vals = np.asarray(out.solution.values)
        nodes = np.asarray(out.solution.grid.nodes)
        if req["rhs"] == "linear":
            idx = np.flatnonzero(nodes >= PICARD_CHECK_X_MIN)
        else:
            idx = np.asarray(self.specs[req["spec"]]["check_idx"], dtype=int)
        return {
            "converged": bool(out.converged),
            "idx": [int(i) for i in idx],
            "values": [float(v) for v in vals[idx]],
        }


WORKLOADS = {"curves": Curves, "fit": Fit, "picard": Picard}
