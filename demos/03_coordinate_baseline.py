"""Twist-space propagation vs the classical Euler-coordinate compounding.

Ten noisy unit steps with lag-1 correlated noise are compounded end to end.
Each method claims a 99.9% covariance ellipsoid for the final pose; counting
how many of 10000 sampled trajectories actually land inside is the
scoreboard.  Coordinates lose: the Euler parameterization cannot follow the
banana-shaped distribution that rotation noise produces.

Run:  python3 demos/03_coordinate_baseline.py
"""

import numpy as np

import corrpose as cp
from corrpose.experiments import lie_to_ssc
from corrpose.liegroup import log_many_masked
from corrpose.ssc import SscBelief, head_to_tail, param_residuals, pose_to_ssc

step_mean = cp.Pose(np.eye(3), [1.0, 0.0, 0.0])
step_cov = np.diag([3e-3, 3e-5, 1e-5, 1e-5, 1e-5, 9e-3])  # sigma_t = sigma_r = 3
N, RHO, M, P = 10, 0.4, 10_000, 0.999

joint = cp.build_chain_joint(cp.ChainNoiseSpec(step_mean, step_cov, N, RHO))
aware = cp.compose_chain(joint)
independent = cp.compose_chain(
    cp.build_chain_joint(cp.ChainNoiseSpec(step_mean, step_cov, N, 0.0))
)

# coordinate baseline: convert the step belief once, then fold N times
step_ssc = lie_to_ssc(cp.UncertainPose(step_mean, step_cov))
acc = step_ssc
for _ in range(N - 1):
    acc = head_to_tail(SscBelief.pair(acc, step_ssc))

# simulate the true trajectories
batch = cp.sample_joint(joint, M, seed=7)
final = batch.pose_matrices(0)
for k in range(1, N):
    final = final @ batch.pose_matrices(k)
xis, ok = log_many_masked(final @ aware.mean.inverse().matrix())
params = param_residuals(final[ok], pose_to_ssc(aware.mean))

print(f"claimed 99.9% ellipsoid, fraction of {M} samples contained:")
print("  twist space, correlation-aware :",
      cp.containment_fraction(xis[ok], aware.cov, P))
print("  twist space, independence      :",
      cp.containment_fraction(xis[ok], independent.cov, P))
print("  Euler coordinates              :",
      cp.containment_fraction(params, acc.cov, P))

print("\nsame story over a full sweep: corrpose compose-sweep --out results/")
