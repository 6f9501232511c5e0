import json
import math
import warnings

import numpy as np
import pytest
import sympy as sp

from conftest import polydisc_sample
from ricciflat import geometry as geo
from ricciflat.closed_form import (
    RationalT,
    RicciSpectrum,
    calibrate,
    characteristic_coefficients,
    p_of_t,
    ricci_spectrum_of,
    w_inv_closed,
)
from ricciflat.cli import main
from ricciflat.errors import InvalidInputError
from ricciflat.geometry import HermitianJetMatrix, jet_det, ricci_form
from ricciflat.jets import TJet, jet_eval_many, max_abs_coeff, max_coeff_diff
from ricciflat.solver import SolverConfig, solve


# -- volume polynomial ------------------------------------------------------------


def test_p_flat_spectrum():
    assert np.allclose(p_of_t(RicciSpectrum(2, (0.0, 0.0))), [1.0])


def test_p_two_distinct_eigenvalues():
    P = p_of_t(RicciSpectrum(2, (1.0, 2.0)))
    assert np.allclose(P, [1.0, 3.0, 2.0])


def test_p_einstein_repeated_root():
    lam, n = 0.7, 3
    P = p_of_t(RicciSpectrum(n, (lam,) * n))
    t = sp.Symbol("t")
    want = sp.Poly(sp.expand((1 + lam * t) ** n), t).all_coeffs()[::-1]
    assert np.allclose(P, [float(c) for c in want])


# -- closed-form fiber weight ------------------------------------------------------


def test_w_inv_flat_is_t():
    w = w_inv_closed(np.array([1.0]))
    assert np.allclose(w.series(5), [0, 1, 0, 0, 0, 0])


def test_w_inv_single_positive_eigenvalue():
    # (t + t^2/2) / (1 + t), checked against symbolic integration
    w = w_inv_closed(np.array([1.0, 1.0]))
    t = sp.Symbol("t")
    target = sp.integrate(1 + t, (t, 0, t)) / (1 + t)
    series = sp.series(target, t, 0, 8).removeO()
    got = w.series(7)
    for k in range(8):
        assert got[k] == pytest.approx(float(series.coeff(t, k)), abs=1e-12)
    assert w(1.0) == pytest.approx(0.75)


def test_w_inv_derivative_identity_cross_multiplied():
    # d/dt (w_inv * P) = P exactly as polynomials: numerator is the integral
    P = np.array([1.0, 3.0, 2.0])
    w = w_inv_closed(P)
    num = np.array(w.numerator)
    deriv = num[1:] * np.arange(1, len(num))
    assert np.allclose(deriv, P)
    assert np.allclose(w.numerator, [0.0, 1.0, 1.5, 2.0 / 3.0])


def test_w_inv_requires_unit_constant():
    with pytest.raises(InvalidInputError):
        w_inv_closed(np.array([2.0, 1.0]))


def test_w_inv_leading_behavior_and_positivity():
    # nonnegative eigenvalues keep P positive for t >= 0, so w_inv stays finite
    w = w_inv_closed(p_of_t(RicciSpectrum(2, (0.5, 2.0))))
    s = w.series(3)
    assert s[0] == 0.0 and s[1] == pytest.approx(1.0)
    for t in np.linspace(0.0, 10.0, 25):
        val = np.polyval(w.denominator[::-1], t)
        assert val > 0
        assert np.isfinite(w(t))


def test_rational_requires_nonzero_denominator_at_origin():
    with pytest.raises(InvalidInputError):
        RationalT((0.0, 1.0), (0.0, 1.0))


# -- affine metric family ----------------------------------------------------------


def omega_of_t(Phi, rho, t_order):
    """Affine family g(t) = Phi + t*rho as a t-series matrix, plus det g(t).

    det g(t) equals P(t) * det Phi whenever rho has constant eigenvalues
    relative to Phi.
    """
    n = Phi.n
    zeros = [Phi.entries[0][0].ctx.zero() for _ in range(max(t_order - 1, 0))]
    g = HermitianJetMatrix(
        [[TJet([Phi.entries[i][j], rho.entries[i][j]] + zeros) for j in range(n)] for i in range(n)]
    )
    return g, jet_det(g)


def test_omega_constant_when_ricci_flat():
    init = geo.flat(2, 8)
    rho = ricci_form(init.h)
    g, det = omega_of_t(init.h, rho, 4)
    for m in range(1, 5):
        for i in range(2):
            for j in range(2):
                assert g.entries[i][j].coeffs[m].effective_degree == -1


def test_omega_determinant_matches_volume_polynomial():
    init = geo.fubini_study_chart(1, 1.0, 10)
    rho = ricci_form(init.h)
    spectrum, variation = ricci_spectrum_of(init, rho)
    assert variation == 0.0
    assert spectrum.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)

    g, det = omega_of_t(init.h, rho, 3)
    P = p_of_t(spectrum)
    det_phi = init.h[0, 0]
    for m in range(det.order + 1):
        want = det_phi * float(P[m]) if m < len(P) else det_phi.ctx.zero()
        scale = max(1.0, max_abs_coeff(det.coeffs[m], det.coeffs[m].valid_degree - 2))
        assert (
            max_coeff_diff(det.coeffs[m], want, det.coeffs[m].valid_degree - 2)
            < 1e-9 * scale
        )


@pytest.mark.parametrize(
    "name, params, cap",
    [
        ("fubini_study_chart", [1, 1.0], 10),
        ("fubini_study_chart", [2, 1.0], 10),
        ("fubini_study_chart", [3, 1.0], 8),
        ("perturbed_flat", [2, 0.1, 0, 2], 10),
    ],
)
def test_variation_bounds_each_coefficient(name, params, cap):
    """The spectrum is the base point's, and the variation bounds how far each
    characteristic polynomial coefficient moves on the polydisc."""
    initial = geo.builtin_metric(name, params, cap)
    rho = ricci_form(initial.h)
    spectrum, variation = ricci_spectrum_of(initial, rho)
    n, nvars = initial.n, initial.ctx.nvars

    def at(mat, pts):  # shape (P, n, n)
        values = [[jet_eval_many(e, pts) for e in row] for row in mat.entries]
        return np.array(values).transpose(2, 0, 1)

    h0, r0 = at(initial.h, np.zeros((1, nvars)))[0], at(rho, np.zeros((1, nvars)))[0]
    want = np.sort(np.linalg.eigvals(np.linalg.solve(h0, r0)).real)
    assert [float(e).hex() for e in spectrum.eigenvalues] == [float(e).hex() for e in want]

    r = 0.05 * min(1.0, initial.polydisc_radius)
    pts = polydisc_sample(nvars, r, np.random.default_rng(20240817), count=24)
    # the q_k are the characteristic polynomial of h^-1 rho, up to the
    # truncation error of h and rho (about 1e-8 relative for n = 3 at D = 8)
    pairs = zip(at(initial.h, pts), at(rho, pts))
    charpoly = np.array([np.poly(np.linalg.solve(hx, rx)) for hx, rx in pairs])
    qs = characteristic_coefficients(initial, rho)
    assert len(qs) == n
    for k, q in enumerate(qs):
        values = jet_eval_many(q, pts)
        assert np.allclose(values, charpoly[:, n - k], rtol=1e-6, atol=0.0)
        # the variation bounds every coefficient's change over the polydisc
        assert np.all(np.abs(values - q.constant_term) <= variation * (1.0 + 1e-12))


@pytest.mark.parametrize("n, cap", [(1, 12), (2, 10), (3, 8), (4, 6)])
def test_fubini_study_characteristic_polynomial_is_exactly_constant(n, cap):
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        initial = geo.fubini_study_chart(n, scale, cap)
        rho = ricci_form(initial.h)
        spectrum, variation = ricci_spectrum_of(initial, rho)
        assert variation == 0.0
        # (s - lam)^n with lam = (n + 1) / scale: n = 4 at scale 1 gives 625, -500, 150, -20
        lam = (n + 1) / scale
        assert spectrum.eigenvalues == (lam,) * n
        qs = characteristic_coefficients(initial, rho)
        assert [q.constant_term for q in qs] == [math.comb(n, k) * (-lam) ** (n - k) for k in range(n)]
    # 1 / 0.3 is no double: the coefficients carry rounding, far below the 1e-6 bound
    initial = geo.fubini_study_chart(n, 0.3, cap)
    assert ricci_spectrum_of(initial, ricci_form(initial.h))[1] <= 1e-11


def test_spectrum_refuses_coefficients_trusted_only_at_the_base_point():
    # at D = 4 the n = 4 perturbed metric is trusted to degree 2, its Ricci form to 0
    initial = geo.perturbed_flat(4, 0.1, 0, 2, 4)
    with pytest.raises(InvalidInputError, match="s\\^0 coefficient has valid_degree 0"):
        ricci_spectrum_of(initial, ricci_form(initial.h))


def test_synthetic_einstein_block_determinant():
    init = geo.flat(2, 6)
    lam = 0.5
    rho = init.h.map(lambda e: e * lam)
    g, det = omega_of_t(init.h, rho, 3)
    want = np.polynomial.polynomial.polypow([1.0, lam], 2)
    for m in range(3):
        assert det.coeffs[m].constant_term == pytest.approx(want[m] if m < len(want) else 0.0)


# -- calibration against the solver ------------------------------------------------


def test_calibrate_projective_chart(fs_solution):
    rep = calibrate(fs_solution)
    assert rep.matched
    assert rep.kappa == 4.0
    assert rep.max_deviation <= 1e-9
    assert rep.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)


def test_calibrate_flat_matches_trivially(flat_solutions):
    rep = calibrate(flat_solutions[1])
    assert rep.matched
    assert rep.max_deviation <= 1e-12


def test_calibrate_scale_changes_eigenvalue_not_kappa():
    init = geo.fubini_study_chart(1, 2.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(init, SolverConfig(c=1.0, t_order=6, space_degree=12))
    rep = calibrate(sol)
    assert rep.matched and rep.kappa == 4.0
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_calibrate_product_constant_but_not_einstein():
    parts = [geo.fubini_study_chart(1, 1.0, 10), geo.flat(1, 10)]
    init = geo.product(parts, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=10))
    rep = calibrate(sol)
    assert rep.matched and rep.kappa == 4.0
    assert sorted(rep.eigenvalues) == pytest.approx([0.0, 2.0], abs=1e-9)


def test_calibrate_rejects_non_constant_curvature():
    init = geo.perturbed_flat(1, 0.1, 1, 2, 12)
    sol = solve(init, SolverConfig(c=1.0, t_order=4, space_degree=12))
    with pytest.raises(InvalidInputError):
        calibrate(sol)


def test_calibrate_refuses_every_perturbed_corpus_member(corpus_solutions):
    for sol in corpus_solutions.values():
        with pytest.raises(InvalidInputError, match="not constant"):
            calibrate(sol)


def test_cli_compare_matches_fubini_study_in_four_dimensions(tmp_path):
    # the sampled eigenvalue drift (1.4e-5, truncation error) refused this exact oracle
    argv = ["compare", "--metric", "fubini_study_chart:4,1", "--M", "2", "--D", "6"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--no-timestamp", "--out", str(tmp_path)]) == 0
    calibration = json.loads((tmp_path / "report.json").read_text())["calibration"]
    assert calibration["kappa"] == 4.0
    assert calibration["spectrum_variation"] == 0.0
    assert calibration["eigenvalues"] == [5.0] * 4


def test_cli_compare_refuses_a_base_trusted_only_at_the_base_point(tmp_path, capsys):
    argv = ["compare", "--metric", "perturbed_flat:4,0.1,0,2", "--M", "1", "--D", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--no-timestamp", "--out", str(tmp_path / "out")]) == 2
    assert "valid_degree 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
