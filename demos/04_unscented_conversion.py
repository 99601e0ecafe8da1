"""Converting a coordinate-space belief into twist space with sigma points.

An estimator that reports Euler-parameter Gaussians has already flattened
the true distribution; the unscented conversion recovers a twist-space
Gaussian from it without differentiating anything.  The round trip
true -> coordinate fit -> converted makes the information loss visible: the
converted 95% position ellipse encloses more than its share of the true
samples.

Run:  python3 demos/04_unscented_conversion.py
"""

import numpy as np

import corrpose as cp
from corrpose.liegroup import log_many_masked
from corrpose.ssc import SscBelief, param_residuals, ssc_to_pose

mean_params = np.array([3.0, 3.0, 0.0, 0.0, 0.0, np.pi / 4])
yaw_heavy = np.diag([0.005, 0.005, 1e-5, 1e-5, 1e-5, 0.09])

# ground truth: a twist-space Gaussian around the mean pose
T_bar = ssc_to_pose(mean_params)
true = cp.UncertainPose(T_bar, yaw_heavy)
mats = cp.sample_joint(true, 20_000, seed=3).pose_matrices(0)

# fit the coordinate representation (what an Euler-based estimator reports)
res = param_residuals(mats, mean_params)
coord = SscBelief(mean_params, res.T @ res / res.shape[0])

# unscented conversion back to twist space: 12n+1 sigma points, each run
# through log(f(x) f(x_hat)^-1)
converted = cp.ut_convert(coord, cp.UtConfig(kappa=0.0))
print("converted twist covariance diagonal:", np.diag(converted.cov).round(4))

# compare against what the true twist covariance actually is
ells, ok = log_many_masked(mats @ T_bar.inverse().matrix())
true_cov = ells[ok].T @ ells[ok] / ok.sum()
print("true twist covariance diagonal     :", np.diag(true_cov).round(4))
print("relative Frobenius gap             :",
      cp.cov_error(converted.cov, true_cov) / np.linalg.norm(true_cov))

print("\nThe gap is the price of the coordinate detour, not of the UT:")
direct = SscBelief(mean_params, np.diag([1e-9] * 6))
print("zero-spread conversion is exact:",
      not cp.ut_convert(SscBelief(mean_params, np.zeros((6, 6)))).cov.any())

print("\nfull demo with ellipse CSVs + plot script:")
print("  corrpose convert-demo --out results/ && python3 results/plot_ellipses.py results")
