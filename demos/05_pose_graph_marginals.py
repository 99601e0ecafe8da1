"""From a solved pose graph to a correlated relative-pose belief.

Pipeline: build (or load) a planar pose graph, solve it with on-manifold
Gauss-Newton, pull the joint twist-space covariance of any two poses out of
the information matrix, and hand that straight to between().  The pair
covariance carries the cross block, which is exactly what the independence
assumption throws away.

Run:  python3 demos/05_pose_graph_marginals.py
"""

import numpy as np

import corrpose as cp

np.set_printoptions(precision=4, suppress=True)

g = cp.generate_grid_world(200, seed=1)  # swap in cp.load_graph("file.g2o")
print(f"graph: {g.n_vertices} vertices, {g.n_edges} edges")

solved, report = cp.solve(g)
print(f"solved in {report.iterations} iterations, "
      f"chi2 {report.initial_chi2:.1f} -> {report.final_chi2:.1f}")

marg = cp.Marginals(solved)  # one factorization, many queries
pair = marg.pair_belief(40, 60)
corr = pair.cross[2, 2] / np.sqrt(pair.sigma1[2, 2] * pair.sigma2[2, 2])
print(f"\npair (40, 60): heading correlation coefficient {corr:.3f}")

aware = cp.between(pair)
naive = cp.between_ignoring_correlation(pair)
print("relative pose:", aware.mean.t, "|",
      np.degrees(np.arctan2(aware.mean.R[1, 0], aware.mean.R[0, 0])), "deg")
print("covariance trace, correlation-aware:", np.trace(aware.cov))
print("covariance trace, independence     :", np.trace(naive.cov))

mc = cp.mc_relative_cov(pair, M=5000, seed=11)
print("\nFrobenius error vs Monte-Carlo resampling of the pair belief:")
print("  correlation-aware:", cp.cov_error(aware.cov, mc))
print("  independence     :", cp.cov_error(naive.cov, mc))

print("\nbatch version over many offsets: corrpose slam-relpose --out results/")
