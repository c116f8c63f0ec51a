"""Tests for symbol classes: growth, ellipticity, square roots, Sylvester bound."""

import warnings

import numpy as np
import pytest

from epdifflab import symbols
from epdifflab.symbols import (
    ClassCertificate,
    MatrixSymbol,
    check_ellipticity,
    check_normal_ellipticity,
    check_order_estimate,
    check_strong_ellipticity,
    hermitian_sqrt,
    scalar_symbol,
    shear_laplacian_symbol,
    sobolev_symbol,
    sobolev_weight,
    sqrt_symbol,
    sylvester_solve,
    _check_flags,
    _eigvalsh,
    _hermitian_diagonal,
    _min_real_eigenvalue,
    _radial_points,
    _triangular_diagonal,
    _unit_directions,
)

FOUR_PI_SQ = 4 * np.pi**2


def logistic_order_symbol(r: float) -> MatrixSymbol:
    """Bounded smooth prefactor with liminf 0 at -infinity: right order, not elliptic."""

    def fn(xi):
        x = np.asarray(xi)[..., 0]
        return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500))) * sobolev_weight(r, xi)

    return scalar_symbol(fn, order=r, dim=1, name="logistic_growth")


def random_hpd_symbol(order: float, dim: int, seed: int = 0) -> MatrixSymbol:
    """Smooth Hermitian positive definite symbol of the given order."""
    rng = np.random.default_rng(seed)
    c1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    c2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m1 = c1 @ np.conj(c1.T) + np.eye(dim)
    m2 = c2 @ np.conj(c2.T) + np.eye(dim)

    def fn(xi):
        w_hi = sobolev_weight(order, xi)
        w_lo = sobolev_weight(max(order - 2, 0), xi)
        return w_hi[..., None, None] * m1 + w_lo[..., None, None] * m2

    return MatrixSymbol(dim=dim, order=order, eval_fn=fn, hermitian=True,
                        positive_definite=True, name=f"hpd{seed}")


class TestSobolevSymbol:
    def test_s_zero_is_identity(self):
        a = sobolev_symbol(0.0, 2)
        pts = np.array([[0.0, 0.0], [3.0, -4.0], [100.0, 5.0]])
        assert np.abs(a(pts) - np.eye(2)).max() < 1e-14

    def test_value_at_origin(self):
        a = sobolev_symbol(1.0, 1)
        assert a(np.array([[0.0]]))[0, 0, 0] == pytest.approx(1.0)

    def test_camassa_holm_weight(self):
        # order 2s symbol evaluated at xi=1 is (1 + 4 pi^2)^s
        a = sobolev_symbol(1.0, 1)
        val = a(np.array([[1.0]]))[0, 0, 0].real
        assert val == pytest.approx(1 + FOUR_PI_SQ, rel=1e-14)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            sobolev_symbol(-0.5, 1)


class TestOrderEstimate:
    def test_sobolev_passes_with_unit_ratio(self):
        cert = check_order_estimate(sobolev_symbol(1.5, 1), max_alpha=2)
        assert cert.verdict
        assert cert.details["alpha_0"].startswith("sup=1")

    def test_superpolynomial_fails(self):
        def fn(xi):
            with np.errstate(over="ignore"):
                return np.exp(np.minimum(FOUR_PI_SQ * np.sum(np.asarray(xi) ** 2, axis=-1), 700))

        a = scalar_symbol(fn, order=2.0, dim=1, name="exp_growth")
        with np.errstate(over="ignore"):
            cert = check_order_estimate(a, max_alpha=1, xi_max=100.0)
        assert not cert.verdict

    def test_logistic_passes_order_but_fails_ellipticity(self):
        a = logistic_order_symbol(2.0)
        assert check_order_estimate(a, max_alpha=1).verdict
        with np.errstate(over="ignore"):  # 1/f overflows where f underflows
            assert not check_ellipticity(a).verdict

    def test_depth_limit(self):
        with pytest.raises(ValueError):
            check_order_estimate(sobolev_symbol(1.0, 1), max_alpha=4)

    def test_2d_sobolev(self):
        cert = check_order_estimate(sobolev_symbol(1.0, 2), max_alpha=2, n_radii=24)
        assert cert.verdict


class TestEllipticity:
    def test_sobolev_passes(self):
        for s in (0.5, 1.0, 2.0):
            assert check_ellipticity(sobolev_symbol(s, 1)).verdict

    def test_mixed_order_diagonal_fails(self):
        def fn(xi):
            out = np.zeros(np.asarray(xi).shape[:-1] + (2, 2), dtype=complex)
            out[..., 0, 0] = sobolev_weight(2.0, xi)
            out[..., 1, 1] = sobolev_weight(1.0, xi)
            return out

        a = MatrixSymbol(dim=2, order=2.0, eval_fn=fn, name="diag_mixed")
        assert not check_ellipticity(a).verdict

    def test_singular_sample_reported(self):
        def fn(xi):
            base = np.ones((2, 2), dtype=complex)
            return np.broadcast_to(base, np.asarray(xi).shape[:-1] + (2, 2)).copy()

        a = MatrixSymbol(dim=2, order=0.0, eval_fn=fn, name="rank1")
        cert = check_ellipticity(a)
        assert not cert.verdict
        assert "singular_at" in cert.details

    def test_bare_laplacian_fails_at_origin(self):
        lap = scalar_symbol(
            lambda xi: FOUR_PI_SQ * np.sum(np.asarray(xi) ** 2, axis=-1), order=2.0, dim=1
        )
        cert = check_ellipticity(lap)
        assert not cert.verdict


class TestPrincipalPositivity:
    def test_sobolev_principal_normal(self):
        s = 1.5
        cert = check_normal_ellipticity(sobolev_symbol(s, 2), sphere_samples=512)
        assert cert.verdict
        assert cert.measured_constant == pytest.approx(FOUR_PI_SQ**s, rel=1e-10)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 100.0])
    def test_shear_family_always_normally_elliptic(self, t):
        assert check_normal_ellipticity(shear_laplacian_symbol(t), sphere_samples=512).verdict

    def test_sign_flip_fails(self):
        base = sobolev_symbol(1.0, 2)
        neg = MatrixSymbol(
            dim=2, order=2.0, eval_fn=lambda xi: -base.principal(xi),
            principal=lambda xi: -base.principal(xi), name="-laplacian",
        )
        assert not check_normal_ellipticity(neg, sphere_samples=256).verdict

    def test_homogeneity_violation_detected(self):
        a = sobolev_symbol(1.0, 1)
        fake = MatrixSymbol(dim=1, order=2.0, eval_fn=a.eval_fn, principal=a.eval_fn,
                            name="inhomogeneous")
        cert = check_normal_ellipticity(fake, sphere_samples=64)
        assert not cert.verdict
        assert "homogeneity_violation" in cert.details

    @pytest.mark.parametrize("check", [check_normal_ellipticity, check_strong_ellipticity])
    def test_overflowing_principal_fails_without_warning(self, check):
        # lam**degree overflowed on Python floats: once an OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = check(sobolev_symbol(400, 2), 100)
        assert cert.verdict is False
        assert not np.isfinite(float(cert.details["homogeneity_violation"]))

    def test_strong_ellipticity_boundary(self):
        passing = check_strong_ellipticity(shear_laplacian_symbol(1.9), sphere_samples=512)
        failing = check_strong_ellipticity(shear_laplacian_symbol(2.1), sphere_samples=512)
        assert passing.verdict and not failing.verdict
        assert passing.measured_constant / FOUR_PI_SQ == pytest.approx(0.05, abs=1e-12)
        assert failing.measured_constant / FOUR_PI_SQ == pytest.approx(-0.05, abs=1e-12)

    def test_strong_constant_matches_brute_force_eta_sampling(self):
        # independent oracle: minimize Re(a(xi) eta . conj(eta)) over random unit eta
        t = 1.9
        sym = shear_laplacian_symbol(t)
        xi = np.array([[1.0, 0.0]])
        mat = sym.principal(xi)[0]
        rng = np.random.default_rng(42)
        eta = rng.standard_normal((200_000, 2)) + 1j * rng.standard_normal((200_000, 2))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        vals = np.einsum("ni,ij,nj->n", np.conj(eta), mat, eta).real
        brute = vals.min()
        cert = check_strong_ellipticity(sym, sphere_samples=128)
        assert cert.measured_constant == pytest.approx(brute, rel=2e-3)

    def test_scalar_laplacian_strongly_elliptic(self):
        cert = check_strong_ellipticity(sobolev_symbol(1.0, 2), sphere_samples=256)
        assert cert.verdict
        assert cert.measured_constant == pytest.approx(FOUR_PI_SQ, rel=1e-10)

    def test_strong_implies_normal(self):
        for t in (0.0, 0.5, 1.9):
            sym = shear_laplacian_symbol(t)
            if check_strong_ellipticity(sym, sphere_samples=512).verdict:
                assert check_normal_ellipticity(sym, sphere_samples=512).verdict


class TestSylvester:
    def test_identity_b(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = sylvester_solve(np.eye(3), a)
        assert np.abs(x - a / 2).max() < 1e-14
        bound = np.sqrt(3 / 2) * np.linalg.norm(np.eye(3)) * np.linalg.norm(a)
        assert np.linalg.norm(x) <= bound

    def test_diagonal_example(self):
        b = np.diag([1.0, 2.0])
        a = np.array([[0.0, 3.0], [3.0, 0.0]])
        x = sylvester_solve(b, a)
        assert np.abs(x - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_residual_and_bound(self, d):
        rng = np.random.default_rng(d)
        for _ in range(100):
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = c @ np.conj(c.T) + 0.1 * np.eye(d)
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = sylvester_solve(b, a)
            res = np.linalg.norm(b @ x + x @ b - a)
            assert res <= 1e-12 * np.linalg.norm(a)
            bound = np.sqrt(d / 2) * np.linalg.norm(np.linalg.inv(b)) * np.linalg.norm(a)
            assert np.linalg.norm(x) <= bound * (1 + 1e-12)

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            sylvester_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(ValueError):
            sylvester_solve(-np.eye(2), np.eye(2))


class TestSqrtSymbol:
    def test_scalar_power(self):
        s = 0.75
        b = sqrt_symbol(sobolev_symbol(2 * s, 1))
        target = sobolev_symbol(s, 1)
        pts = np.linspace(-50, 50, 101)[:, None]
        assert np.abs(b(pts) - target(pts)).max() < 1e-12 * np.abs(target(pts)).max()
        assert b.order == pytest.approx(target.order)

    def test_diagonal_example(self):
        s = 1.0

        def fn(xi):
            return sobolev_weight(2 * s, xi)[..., None, None] * np.diag([4.0, 9.0]).astype(complex)

        a = MatrixSymbol(dim=2, order=2 * s, eval_fn=fn, hermitian=True, positive_definite=True)
        b = sqrt_symbol(a)
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [30.0, -4.0]])
        expected = sobolev_weight(s, pts)[..., None, None] * np.diag([2.0, 3.0])
        assert np.abs(b(pts) - expected).max() < 1e-12 * np.abs(expected).max()

    def test_random_hpd_order3(self):
        a = random_hpd_symbol(order=3.0, dim=2, seed=5)
        b = sqrt_symbol(a)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-100, 100, size=(500, 2))
        bb = b(pts)
        residual = np.abs(bb @ bb - a(pts)).max() / np.abs(a(pts)).max()
        assert residual < 1e-12
        assert b.order == pytest.approx(1.5)
        assert check_order_estimate(b, max_alpha=2).verdict
        assert check_ellipticity(b).verdict

    def test_rejects_unflagged(self):
        sym = shear_laplacian_symbol(1.0)
        with pytest.raises(ValueError):
            sqrt_symbol(sym)

    def test_rejects_dishonest_flag(self):
        def fn(xi):
            out = np.zeros(np.asarray(xi).shape[:-1] + (2, 2), dtype=complex)
            out[..., 0, 0] = 1.0
            out[..., 0, 1] = np.asarray(xi)[..., 0]
            out[..., 1, 1] = 1.0
            return out

        liar = MatrixSymbol(dim=2, order=0.0, eval_fn=fn, hermitian=True, positive_definite=True)
        with pytest.raises(ValueError, match="not Hermitian"):
            sqrt_symbol(liar)


def test_hermitian_sqrt_batched():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    mats = c @ np.conj(np.swapaxes(c, -1, -2)) + np.eye(3)
    roots = hermitian_sqrt(mats)
    assert np.abs(roots @ roots - mats).max() < 1e-11 * np.abs(mats).max()


def _lapack_sqrt(mats):
    """The Hermitian square root from one ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(mats)
    return np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(np.maximum(w, 0.0)), np.conj(v))


def _outcome(fn, mats):
    """``fn(mats)`` as bytes, or the type and text of the exception it raises."""
    try:
        return fn(mats).tobytes()
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc), str(exc)


def _lapack_min_real(mats):
    return np.linalg.eigvals(mats).real.min(axis=-1)


def _hermitian_part(mats):
    return 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))


class TestEigenRoutes:
    """The diagonal routes must give the bytes LAPACK gives on every stack
    they take, and leave every other stack to LAPACK."""

    @staticmethod
    def sobolev_stacks(s, dim):
        symbol = sobolev_symbol(s, dim)
        radial, _, _ = _radial_points(dim, 1e3)
        uniform = np.random.default_rng(dim).uniform(-200.0, 200.0, size=(10_000, dim))
        sphere = _unit_directions(dim, 10_000)
        return [symbol(radial), symbol(uniform), np.asarray(symbol.principal(sphere), dtype=complex)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_sobolev_stacks_take_the_diagonal_route_with_lapack_bytes(self, s, dim):
        for mats in self.sobolev_stacks(s, dim):
            assert _hermitian_diagonal(mats) is not None
            assert hermitian_sqrt(mats).tobytes() == _lapack_sqrt(mats).tobytes()
            assert _eigvalsh(mats).tobytes() == np.linalg.eigvalsh(mats).tobytes()
            herm = _hermitian_part(mats)
            assert _eigvalsh(herm)[..., 0].tobytes() == np.linalg.eigvalsh(herm)[..., 0].tobytes()
            assert _triangular_diagonal(mats) is not None
            assert _min_real_eigenvalue(mats).tobytes() == _lapack_min_real(mats).tobytes()

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.99, 2.01, 5.0, 100.0])
    def test_shear_principal_takes_the_triangular_route_with_lapack_bytes(self, t):
        upper = shear_laplacian_symbol(t).principal(_unit_directions(2, 10_000))
        for mats in (upper, np.ascontiguousarray(np.swapaxes(upper, -1, -2))):
            assert _triangular_diagonal(mats) is not None
            assert _min_real_eigenvalue(mats).tobytes() == _lapack_min_real(mats).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: sobolev_symbol(1.5, 1),
        lambda: sobolev_symbol(1.5, 2),
        lambda: shear_laplacian_symbol(1.99),
        lambda: shear_laplacian_symbol(5.0),
    ])
    def test_certificates_keep_their_lines_without_the_routes(self, make, monkeypatch):
        def certify():
            symbol = make()
            certs = [check_normal_ellipticity(symbol, 10_000), check_strong_ellipticity(symbol, 10_000)]
            if symbol.hermitian:
                root = sqrt_symbol(symbol)
                certs += [check_order_estimate(root, max_alpha=2), check_ellipticity(root)]
            return [line for cert in certs for line in cert.report_lines()]

        routed = certify()
        monkeypatch.setattr(symbols, "_hermitian_diagonal", lambda mats: None)
        monkeypatch.setattr(symbols, "_triangular_diagonal", lambda mats: None)
        assert routed == certify()

    @staticmethod
    def diagonal_stack(scale=1.0):
        mats = sobolev_symbol(1.0, 2)(np.random.default_rng(0).uniform(-3.0, 3.0, size=(64, 2)))
        return mats * (scale / np.abs(mats).max(axis=(-2, -1), keepdims=True))  # each matrix's largest

    @pytest.mark.parametrize("entry", ["minus_zero_off_diagonal", "complex_diagonal", "nan", "inf"])
    def test_other_stacks_keep_lapack_results(self, entry):
        mats = self.diagonal_stack()
        if entry == "minus_zero_off_diagonal":
            mats[5, 0, 1] = complex(-0.0, 0.0)
        elif entry == "complex_diagonal":
            mats[5, 1, 1] += 0.5j
        else:
            mats[5, 1, 1] = np.nan if entry == "nan" else np.inf
        assert _hermitian_diagonal(mats) is None
        assert _outcome(hermitian_sqrt, mats) == _outcome(_lapack_sqrt, mats)
        assert _outcome(_eigvalsh, mats) == _outcome(np.linalg.eigvalsh, mats)
        assert _outcome(_min_real_eigenvalue, mats) == _outcome(_lapack_min_real, mats)
        if entry in ("nan", "inf"):
            assert _triangular_diagonal(mats) is None
            assert _outcome(_min_real_eigenvalue, mats) == (
                np.linalg.LinAlgError, "Array must not contain infs or NaNs")

    @pytest.mark.parametrize("stack", ["full", "upper_and_lower", "zero_real_part"])
    def test_other_stacks_keep_lapack_eigenvalues(self, stack):
        dirs = _unit_directions(2, 256)
        if stack == "full":
            mats = random_hpd_symbol(2.0, 2, seed=3)(dirs)
        else:
            mats = shear_laplacian_symbol(5.0).principal(dirs)
        if stack == "upper_and_lower":
            mats[::2] = np.swapaxes(mats[::2], -1, -2)
        elif stack == "zero_real_part":
            mats[9, 1, 1] = 1j
        assert _triangular_diagonal(mats) is None
        assert _min_real_eigenvalue(mats).tobytes() == _lapack_min_real(mats).tobytes()

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_non_positive_diagonal_keeps_lapack_errors(self, sign):
        mats = self.diagonal_stack()
        mats[7, 0, 0] *= sign
        points = np.arange(2 * len(mats), dtype=float).reshape(-1, 2)
        assert _hermitian_diagonal(mats) is None
        least = np.linalg.eigvalsh(mats).min()
        with pytest.raises(ValueError) as err:
            hermitian_sqrt(mats)
        assert str(err.value) == f"matrix not positive definite (min eigenvalue {least:.3g})"
        with pytest.raises(ValueError, match=r"not positive definite at xi=\[14\. 15\.\]"):
            _check_flags(mats, points)
        assert _min_real_eigenvalue(mats).tobytes() == _lapack_min_real(mats).tobytes()

    @pytest.mark.parametrize("stack", ["accepted", "minus_zero_off_diagonal", "not_hermitian",
                                       "non_positive", "outside_the_range"])
    def test_check_flags_forms_the_gap_only_on_refused_stacks(self, stack, monkeypatch):
        # an accepted stack equals its conjugate transpose bit for bit, so its
        # gap is 0; every other stack still forms the gap, with the same verdict
        mats = self.diagonal_stack(1e150 if stack == "outside_the_range" else 1.0)
        if stack == "minus_zero_off_diagonal":
            mats[5, 0, 1] = complex(-0.0, 0.0)
        elif stack == "not_hermitian":
            mats[9, 0, 1] = 1e-3
        elif stack == "non_positive":
            mats[7, 0, 0] *= -1.0
        points = np.arange(2 * len(mats), dtype=float).reshape(-1, 2)

        def verdict():
            try:
                _check_flags(mats, points)
            except ValueError as err:
                return str(err)
            return None

        gaps = []
        relative_gap = symbols._relative_gap
        monkeypatch.setattr(symbols, "_relative_gap", lambda *args: gaps.append(1) or relative_gap(*args))
        routed = verdict()
        assert len(gaps) == (stack != "accepted")
        monkeypatch.setattr(symbols, "_hermitian_diagonal", lambda mats: None)
        assert routed == verdict()
        assert routed == {"accepted": None, "minus_zero_off_diagonal": None, "outside_the_range": None,
                          "not_hermitian": "symbol not Hermitian at xi=[18. 19.]",
                          "non_positive": "symbol not positive definite at xi=[14. 15.]"}[stack]

    @pytest.mark.parametrize("scale", [1e-129, 1e129, 1e-150, 1e150])
    def test_diagonal_route_holds_only_inside_the_unscaled_range(self, scale):
        mats = self.diagonal_stack(scale)
        assert (_hermitian_diagonal(mats) is None) == (scale in (1e-150, 1e150))
        assert hermitian_sqrt(mats).tobytes() == _lapack_sqrt(mats).tobytes()
        assert _eigvalsh(mats).tobytes() == np.linalg.eigvalsh(mats).tobytes()

    @pytest.mark.parametrize("scale", [1e-129, 1e129, 1e-140, 1e140])
    def test_triangular_route_holds_only_inside_the_unscaled_range(self, scale):
        mats = shear_laplacian_symbol(5.0).principal(_unit_directions(2, 256))
        mats *= scale / np.abs(mats).max(axis=(-2, -1), keepdims=True)
        assert (_triangular_diagonal(mats) is None) == (scale in (1e-140, 1e140))
        assert _min_real_eigenvalue(mats).tobytes() == _lapack_min_real(mats).tobytes()


def test_certificate_report_lines():
    cert = ClassCertificate(kind="elliptic", verdict=True, measured_constant=1.25,
                            sampling="demo", details={"note": "x"})
    text = "\n".join(cert.report_lines())
    assert "kind: elliptic" in text
    assert "verdict: pass" in text
    assert "measured_constant: 1.25" in text


def minimal_elliptic_shift(symbol: MatrixSymbol, tol: float = 1e-2) -> float:
    """Smallest ``lam >= 0`` (within ``tol``, by bisection) making ``lam + a(D)`` elliptic."""

    def ok(lam: float) -> bool:
        shifted = MatrixSymbol(
            dim=symbol.dim,
            order=symbol.order,
            eval_fn=lambda xi: symbol(xi) + lam * np.eye(symbol.dim),
            name=f"{symbol.name}+{lam:g}",
        )
        return check_ellipticity(shifted).verdict

    lo, hi = 0.0, 1.0
    while not ok(hi):
        hi *= 2.0
        assert hi <= 1e6, "no elliptic shift found below 1e6"
    if ok(lo):
        return 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_minimal_elliptic_shift():
    assert minimal_elliptic_shift(sobolev_symbol(1.0, 1)) == 0.0
    lap = scalar_symbol(
        lambda xi: FOUR_PI_SQ * np.sum(np.asarray(xi) ** 2, axis=-1), order=2.0, dim=1
    )
    shift = minimal_elliptic_shift(lap, tol=1e-2)
    assert 0.0 < shift < 0.5
    shifted = scalar_symbol(
        lambda xi: shift + FOUR_PI_SQ * np.sum(np.asarray(xi) ** 2, axis=-1), order=2.0, dim=1
    )
    assert check_ellipticity(shifted).verdict
