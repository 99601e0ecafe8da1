"""Compose, invert and take relative poses of *correlated* uncertain poses.

The running example is the 45-degree pair: two poses estimated off a common
frame whose twist perturbations are positively correlated.  Dropping the
correlation overestimates the relative-pose covariance by a factor of four
here; a Monte-Carlo simulation arbitrates.

Run:  python3 demos/02_correlated_operations.py
"""

import numpy as np

import corrpose as cp

np.set_printoptions(precision=5, suppress=True)

T_g1 = cp.Pose.from_matrix(np.array([
    [0.707107, -0.707107, 0.0, 3.0],
    [0.707107, 0.707107, 0.0, 3.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
]))
T_g2 = cp.Pose.from_matrix(np.array([
    [0.707107, -0.707107, 0.0, 4.5],
    [0.707107, 0.707107, 0.0, 4.5],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
]))
sigma = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.006])
cross = np.diag([0.0005, 0.0005, 0.0, 0.0, 0.0, 0.005])

pair = cp.PosePairBelief.from_blocks(T_g1, T_g2, sigma, sigma, cross)

# between(): relative pose of the two frames, correlation-aware.
aware = cp.between(pair)
naive = cp.between_ignoring_correlation(pair)
print("relative-pose mean translation:", aware.mean.t)
print("trace of covariance, correlation-aware :", np.trace(aware.cov))
print("trace of covariance, ignoring cross    :", np.trace(naive.cov))

mc = cp.mc_relative_cov(pair, M=10_000, seed=42)
print("\nFrobenius error vs 10k-sample Monte-Carlo:")
print("  correlation-aware:", cp.cov_error(aware.cov, mc))
print("  ignoring cross   :", cp.cov_error(naive.cov, mc))

# compose(): head-to-tail of a chained pair; positive correlation *grows*
# the result (the same cross terms enter with plus signs).
step = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
chained = cp.PosePairBelief.from_blocks(step, step, sigma, sigma, 0.4 * sigma)
print("\ncompose: trace with cross:", np.trace(cp.compose(chained).cov))
ind = cp.PosePairBelief.from_blocks(step, step, sigma, sigma)
print("compose: trace without   :", np.trace(cp.compose(ind).cov))

# inverse(): frame flip; the covariance rides along through the adjoint.
u = pair.marginal(0)
print("\ninverse twice returns the original trace:",
      np.trace(cp.inverse(cp.inverse(u)).cov), "vs", np.trace(u.cov))

# Long chains keep every lag-1 correlation via one joint belief.
joint = cp.chain_joint(step, sigma, n_steps=10, rho=0.4)
print("\n10-step chain mean translation:", cp.compose_chain(joint).mean.t)
