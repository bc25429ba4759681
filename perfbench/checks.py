"""Output checks, run in the parent after the timed worker has exited.

* curves: the 12 stored abscissae of every request against the mpmath
  oracle values in ``data/curves_pool.json``, each within
  ``CURVES_TOL`` of the sum of the terms' magnitudes there.
* fit: ``converged`` and every free parameter within 1 percent of the
  truth the data were drawn from.
* picard: ``converged``; linear forcings against the closed-form
  relaxation solution on every node with x >= 0.1 at 1e-5 of its
  largest magnitude (the repository's acceptance criterion for
  iteration against closed form).  Logistic forcings against the stored
  4096-node refinement reference, at four times the deviation the
  2048-node solve showed from it when the pool was built, and never
  tighter than 1e-5: the quadrature's accuracy for y^2 forcing depends
  on the spec, and four times leaves room for the reference's own error
  should a later change make the 2048-node solve more accurate.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from workloads import Fit

CURVES_TOL = 1e-9
FIT_REL_TOL = 0.01
PICARD_REL_TOL = 1e-5
PICARD_REFINE_FACTOR = 4.0


def check_curves(pool: dict, rec: dict) -> bool:
    entry = pool["entries"][rec["req"]["pool"]]
    if not rec["finite"]:
        return False
    return all(
        abs(v - r) <= CURVES_TOL * s + 1e-300
        for v, r, s in zip(rec["values"], entry["ref"], entry["scale"], strict=True)
    )


def check_fit(rec: dict) -> bool:
    truth = Fit.truth(rec["req"])
    if not rec["converged"] or set(rec["params"]) != set(rec["req"]["free"]):
        return False
    return all(
        abs(v - truth[nm]) <= FIT_REL_TOL * abs(truth[nm]) for nm, v in rec["params"].items()
    )


class PicardChecker:
    """Closed forms come from nlfrac's relax module in this (parent) process."""

    def __init__(self, picard):
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        import nlfrac

        self.nf = nlfrac
        self.picard = picard

    def reference(self, rec: dict) -> tuple[np.ndarray, float]:
        """Reference values at the recorded nodes and the relative tolerance."""
        req = rec["req"]
        if req["rhs"] == "logistic":
            entry = self.picard.specs[req["spec"]]["logistic"][req["k"]]
            tol = max(PICARD_REL_TOL, PICARD_REFINE_FACTOR * entry["refine_dev"])
            return np.asarray(entry["ref"]), tol
        nf = self.nf
        (n, alpha, gamma), y, _, _ = self.picard.problem_data(req)
        spec = nf.DerivativeSpec(n, alpha, gamma)
        grid = nf.GradedGrid(self.picard.pool["x_max"], self.picard.pool["m"],
                             nf.default_grading_exponent(nf.reduce_spec(spec)))
        sol = nf.solve_relaxation(nf.RelaxationProblem(spec, req["lam"], y))
        return nf.evaluate_solution_many(sol, grid.nodes[np.asarray(rec["idx"], dtype=int)]), PICARD_REL_TOL

    def __call__(self, rec: dict) -> bool:
        if not rec["converged"]:
            return False
        ref, tol = self.reference(rec)
        got = np.asarray(rec["values"])
        if got.shape != ref.shape or not np.all(np.isfinite(got)):
            return False
        return float(np.max(np.abs(got - ref))) <= tol * float(np.max(np.abs(ref)))


def checker(workload):
    """The per-record check for a workload instance."""
    if workload.name == "curves":
        return lambda rec: check_curves(workload.pool, rec)
    if workload.name == "fit":
        return check_fit
    return PicardChecker(workload)
