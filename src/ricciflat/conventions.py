"""Single source of truth for the complex-analytic conventions.

Every module calibrates against these choices; closed-form comparisons go
through ``closed_form.calibrate`` instead of inserting ad-hoc factors.

* Complex coordinates: z_i = x_i + i*y_i, so
      d/dz_i    = (d/dx_i - i*d/dy_i) / 2,
      d/dzbar_i = (d/dx_i + i*d/dy_i) / 2.
* ``mixed_hessian`` returns  H_ij(f) = 4 * d^2 f / dz_i dzbar_j,
  which on the diagonal equals the real Laplacian f_{x_i x_i} + f_{y_i y_i}.
* The defining flow of the construction is implemented verbatim as
      H(u) + c * d(g_ij)/dt = 0,
  i.e. the factor 4 lives inside ``mixed_hessian`` and nowhere else.
* The Ricci coefficient matrix is
      ricci_ij = - d^2(log det g) / dz_i dzbar_j      (no factor 4),
  so for the flow above  d(g_ij)/dt|_{t=0} = (4/c) * ricci_ij(h).
* The curvature 2-form is assembled verbatim as
      F = -( (i/2)(g_ij)_t dz_i^dzbar_j + i w_{z_i} dt^dz_i - i w_{zbar_j} dt^dzbar_j ).
  For topological integrals it is renormalized by the factor 2/kappa, where
  kappa = 4/c is derived from the flow above (g^(1) = kappa * ricci(h)) and
  checked by ``closed_form.calibrate``.  This makes the t = 0 slice equal to
  minus the Ricci form of the base and the integral an integer multiple of
  2*pi.  See docs/conventions.md for the derivation.
"""

# Scalar applied by mixed_hessian on top of d^2/dz dzbar.
MIXED_HESSIAN_FACTOR = 4.0

CALIBRATION_CANDIDATES = (1.0, 2.0, 4.0, 0.5, 0.25)  # old kappa set; only perfbench reads it

CONVENTIONS = {
    "dz": "(d/dx - i d/dy)/2",
    "mixed_hessian": "4 d^2/dz_i dzbar_j (diagonal = real Laplacian)",
    "ricci": "-d^2(log det g)/dz_i dzbar_j, no factor 4",
    "flow": "mixed_hessian(u) + c * dg/dt = 0",
    "curvature_class_normalization": "2/kappa with kappa from calibrate",
}
