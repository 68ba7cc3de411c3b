#!/usr/bin/env python3
"""Biased-coin experiment: Fisher information, Cramer-Rao bound, and the
saturating +-1/2 estimator across a sweep of base points."""
import argparse

import numpy as np

import cencov_ncp as c
from cencov_ncp.gns import build_gns


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=9, help="sweep size")
    ap.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    args = ap.parse_args()

    print(f"{'s0':>8} {'G_F':>12} {'closed 1/(1/4-s^2)':>20} {'bound':>12} {'slack':>12}")
    for s0 in np.linspace(-0.35, 0.35, args.points):
        M = c.coin_model(float(s0), half_width=0.1)
        S = build_gns(M.at(M.s0))
        gf = c.fisher_metric(M, S, h=args.h)
        closed = 1.0 / (0.25 - s0 * s0)
        bound = c.cramer_rao_bound(M, S, h=args.h)
        A = c.Estimator(c.element_from_dict(M.groupoid, {"1_1": 0.5, "1_2": -0.5}))
        audit = c.cramer_rao_audit(M, A, bound)
        print(f"{s0:8.3f} {gf:12.6f} {closed:20.6f} {bound:12.6f} {audit.slack:12.3e}")


if __name__ == "__main__":
    main()
