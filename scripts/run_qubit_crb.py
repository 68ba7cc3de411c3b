#!/usr/bin/env python3
"""Qubit sigma_z family: Fisher metric against the closed form 1/(1-s^2),
plus estimator audits for sigma_z (saturating) and sigma_z + sigma_x."""
import argparse

import numpy as np

import cencov_ncp as c
from cencov_ncp.gns import build_gns


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=7, help="sweep size")
    ap.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    args = ap.parse_args()

    sz = np.diag([1.0, -1.0])
    sz_sx = np.array([[1.0, 1.0], [1.0, -1.0]])

    print(f"{'s0':>6} {'G_F':>12} {'1/(1-s^2)':>12} {'bound':>10} "
          f"{'slack(sz)':>12} {'slack(sz+sx)':>13}")
    for s0 in np.linspace(-0.6, 0.6, args.points):
        M = c.qubit_z_model(float(s0), half_width=0.2)
        S = build_gns(M.at(M.s0))
        gf = c.fisher_metric(M, S, h=args.h)
        bound = c.cramer_rao_bound(M, S, h=args.h)
        a1 = c.Estimator(c.element_from_matrix(M.groupoid, sz))
        a2 = c.Estimator(c.element_from_matrix(M.groupoid, sz_sx))
        s1 = c.cramer_rao_audit(M, a1, bound).slack
        s2 = c.cramer_rao_audit(M, a2, bound).slack
        print(f"{s0:6.2f} {gf:12.6f} {1.0 / (1.0 - s0 * s0):12.6f} "
              f"{bound:10.6f} {s1:12.3e} {s2:13.6f}")


if __name__ == "__main__":
    main()
