"""Matrix-valued Fourier multiplier symbols and their numerical certification.

A symbol is a map ``xi -> d x d`` complex matrix with a declared growth order
``r``.  This module certifies, on explicit sample sets, the properties that
make such a symbol a usable inertia operator: polynomial growth of all
derivatives, invertibility with controlled inverse (ellipticity), and the
eigenvalue/quadratic-form positivity of a homogeneous principal part (normal
and strong ellipticity).  It also provides the Hermitian square root of a
positive symbol and the Sylvester-equation solver underlying its analysis.

All weights use the convention ``lam(rho, xi) = (1 + |2 pi xi|^2)^(rho/2)``,
matching differentiation ``d/dx_j <-> 2 pi i xi_j``; constants quoted against
the plain ``(1 + |xi|^2)^(rho/2)`` convention differ by powers of ``2 pi``
(certificates report the convention in their sampling note).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

EvalFn = Callable[[np.ndarray], np.ndarray]

POSITIVITY_TOL = 1e-10  # absolute, after normalizing to unit sup on the sphere
STABILIZATION_FACTOR = 1.1


def sobolev_weight(rho: float, xi: np.ndarray) -> np.ndarray:
    """Weight ``(1 + |2 pi xi|^2)^(rho/2)`` for points ``xi`` of shape (..., d)."""
    xi = np.asarray(xi, dtype=float)
    return (1.0 + 4.0 * np.pi**2 * np.sum(xi**2, axis=-1)) ** (rho / 2.0)


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """Matrix symbol ``a(xi)`` with declared order and structural flags.

    ``eval_fn`` maps an array of points with shape ``(..., dim)`` to matrices
    of shape ``(..., dim, dim)``.  Flags are declarations; the certification
    routines below verify them on sample sets.  ``principal`` is the
    homogeneous principal part (same calling convention) when the symbol is
    classical, and ``None`` otherwise.
    """

    dim: int
    order: float
    eval_fn: EvalFn
    hermitian: bool = False
    positive_definite: bool = False
    principal: Optional[EvalFn] = None
    name: str = "symbol"

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if xi.shape[-1] != self.dim:
            raise ValueError(f"points must have last axis {self.dim}, got {xi.shape}")
        out = np.asarray(self.eval_fn(xi), dtype=complex)
        if out.shape != xi.shape[:-1] + (self.dim, self.dim):
            raise ValueError(f"symbol '{self.name}' returned shape {out.shape}")
        return out


def scalar_symbol(
    fn: Callable[[np.ndarray], np.ndarray],
    order: float,
    dim: int,
    principal_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    name: str = "scalar",
) -> MatrixSymbol:
    """Wrap a positive scalar function ``g(xi)`` as the symbol ``g(xi) I_d``."""

    def eval_fn(xi: np.ndarray) -> np.ndarray:
        g = np.asarray(fn(xi), dtype=complex)
        return g[..., None, None] * np.eye(dim)

    principal = None
    if principal_fn is not None:
        def principal(xi: np.ndarray) -> np.ndarray:
            g = np.asarray(principal_fn(xi), dtype=complex)
            return g[..., None, None] * np.eye(dim)

    return MatrixSymbol(
        dim=dim,
        order=order,
        eval_fn=eval_fn,
        hermitian=True,
        positive_definite=True,
        principal=principal,
        name=name,
    )


def sobolev_symbol(s: float, dim: int) -> MatrixSymbol:
    """Inertia symbol ``(1 + 4 pi^2 |xi|^2)^s I_d`` of order ``2s``.

    For ``s = 1`` and ``dim = 1`` this is the Camassa-Holm operator
    ``1 - d^2/dx^2`` under the ``2 pi`` frequency convention.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return scalar_symbol(
        fn=lambda xi: sobolev_weight(2 * s, xi),
        order=2 * s,
        dim=dim,
        principal_fn=lambda xi: (4 * np.pi**2 * np.sum(np.asarray(xi) ** 2, axis=-1)) ** s,
        name=f"sobolev(s={s})",
    )


def shear_laplacian_symbol(t: float) -> MatrixSymbol:
    """Upper-triangular Laplacian pair ``4 pi^2 |xi|^2 [[1, t], [0, 1]]`` on d=2.

    Homogeneous of degree 2 and normally elliptic for every ``t``, but strongly
    elliptic only for ``|t| < 2``; the family probes the gap between the two
    positivity notions.
    """

    def eval_fn(xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        lap = 4 * np.pi**2 * np.sum(xi**2, axis=-1)
        mat = np.array([[1.0, t], [0.0, 1.0]], dtype=complex)
        return lap[..., None, None] * mat

    return MatrixSymbol(
        dim=2,
        order=2.0,
        eval_fn=eval_fn,
        hermitian=(t == 0.0),
        positive_definite=(t == 0.0),
        principal=eval_fn,
        name=f"shear_laplacian(t={t})",
    )


@dataclass(frozen=True)
class ClassCertificate:
    """Outcome of one numerical certification run.

    ``measured_constant`` is the supremum of the defining ratio over the
    declared sample set; ``verdict`` applies the threshold rule of the check
    that produced the certificate.
    """

    kind: str
    verdict: bool
    measured_constant: float
    sampling: str
    max_alpha: Optional[int] = None
    details: dict = field(default_factory=dict)

    def report_lines(self, prefix: str = "") -> list[str]:
        lines = [
            f"{prefix}kind: {self.kind}",
            f"{prefix}verdict: {'pass' if self.verdict else 'fail'}",
            f"{prefix}measured_constant: {self.measured_constant:.17g}",
            f"{prefix}sampling: {self.sampling}",
        ]
        if self.max_alpha is not None:
            lines.append(f"{prefix}max_alpha: {self.max_alpha}")
        for key in sorted(self.details):
            lines.append(f"{prefix}{key}: {self.details[key]}")
        return lines


# --- sample sets -------------------------------------------------------------

def _unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic, well-spread unit vectors, shape (count, dim)."""
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if dim == 2:
        theta = 2 * np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    # Fibonacci sphere in d=3
    i = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * i / count)
    golden = np.pi * (1 + np.sqrt(5.0))
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )


def _radial_points(dim: int, xi_max: float, n_radii: int = 48, n_dirs: int = 8):
    """Log-radial sample points grouped by radius: (points, radii, dirs_per_radius)."""
    radii = np.geomspace(1e-2, xi_max, n_radii)
    dirs = _unit_directions(dim, n_dirs if dim > 1 else 2)
    pts = radii[:, None, None] * dirs[None, :, :]
    return pts.reshape(-1, dim), radii, dirs.shape[0]


def _stabilized(per_radius_sup: np.ndarray) -> bool:
    """True when appending the outer half of the radii grows the sup < 10%."""
    half = len(per_radius_sup) // 2
    inner = float(np.max(per_radius_sup[:half]))
    total = float(np.max(per_radius_sup))
    if not np.isfinite(total):
        return False
    if inner == 0.0:
        return total == 0.0
    return total <= STABILIZATION_FACTOR * inner


def _frob(mats: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(mats) ** 2, axis=(-2, -1)))


# --- order estimate ----------------------------------------------------------

def _multi_indices(dim: int, max_alpha: int) -> list[tuple[int, ...]]:
    """Multi-indices of total order at most ``max_alpha``, by order, then lexicographically."""
    alphas = itertools.product(range(max_alpha + 1), repeat=dim)
    return sorted((alpha for alpha in alphas if sum(alpha) <= max_alpha), key=sum)


def _fd_derivative(symbol: MatrixSymbol, alpha: tuple[int, ...], pts: np.ndarray):
    """Central finite-difference d^alpha a with step h = max(1e-4, 1e-4 |xi|).

    Also returns the per-point roundoff scale of the stencil so that
    identically vanishing derivatives are not mistaken for growth.
    """
    h = np.maximum(1e-4, 1e-4 * np.linalg.norm(pts, axis=-1))
    stencil = [(np.zeros(symbol.dim), 1.0)]
    for axis, reps in enumerate(alpha):
        e = np.zeros(symbol.dim)
        e[axis] = 1.0
        for _ in range(reps):
            stencil = [(off + e, w) for off, w in stencil] + [(off - e, w * -1.0) for off, w in stencil]
    total = np.zeros(pts.shape[:-1] + (symbol.dim, symbol.dim), dtype=complex)
    value_scale = np.zeros(pts.shape[:-1])
    for off, w in stencil:
        shifted = pts + h[..., None] * off
        vals = symbol(shifted)
        total += w * vals
        value_scale = np.maximum(value_scale, _frob(vals))
    denom = (2.0 * h) ** sum(alpha)
    noise = np.finfo(float).eps * len(stencil) * value_scale / denom
    return total / denom[..., None, None], noise


def check_order_estimate(
    symbol: MatrixSymbol,
    max_alpha: int = 2,
    xi_max: float = 1e3,
    n_radii: int = 48,
) -> ClassCertificate:
    """Certify ``|d^alpha a(xi)| <~ lam(r - |alpha|, xi)`` for all ``|alpha| <= max_alpha``.

    For each multi-index the sup of the ratio over a log-radial sample set
    must stabilize: extending the radii to the outer half of the range may
    grow it by at most 10%.  The constants themselves are reported, never
    thresholded; the growth-order definition only asserts their existence.
    """
    if max_alpha > 3:
        raise ValueError("max_alpha must be <= 3 (finite-difference depth limit)")
    pts, radii, dirs_per = _radial_points(symbol.dim, xi_max, n_radii)
    sampling = (
        f"{len(radii)} log radii in [1e-2, {xi_max:g}] x {dirs_per} directions, "
        f"central FD h=max(1e-4, 1e-4|xi|), 2pi weight convention"
    )
    details: dict = {}
    worst = 0.0
    verdict = True
    for alpha in _multi_indices(symbol.dim, max_alpha):
        deriv, noise = _fd_derivative(symbol, alpha, pts)
        if not np.all(np.isfinite(deriv)):
            details[f"alpha_{''.join(map(str, alpha))}"] = "non-finite values"
            verdict = False
            continue
        norm = _frob(deriv)
        norm = np.where(norm <= 50.0 * noise, 0.0, norm)
        ratio = norm / sobolev_weight(symbol.order - sum(alpha), pts)
        per_radius = ratio.reshape(len(radii), dirs_per).max(axis=1)
        ok = _stabilized(per_radius)
        verdict = verdict and ok
        sup = float(per_radius.max())
        worst = max(worst, sup)
        details[f"alpha_{''.join(map(str, alpha))}"] = f"sup={sup:.6g} stabilized={ok}"
    return ClassCertificate(
        kind="order_estimate",
        verdict=verdict,
        measured_constant=worst,
        sampling=sampling,
        max_alpha=max_alpha,
        details=details,
    )


def check_ellipticity(symbol: MatrixSymbol, xi_max: float = 1e3) -> ClassCertificate:
    """Certify ``|a(xi)^-1| <~ lam(-r, xi)`` on a log-radial sample set.

    The origin is always included: symbols singular at ``xi = 0`` (the bare
    Laplacian, say) fail here even though they satisfy the growth estimate.
    A symbol that overflows on the sample set fails without a floating-point
    warning: every non-finite value counts as a failure.
    """
    pts, radii, dirs_per = _radial_points(symbol.dim, xi_max)
    pts = np.vstack([np.zeros((1, symbol.dim)), pts])
    sampling = f"origin + {len(radii)} log radii in [1e-2, {xi_max:g}] x {dirs_per} directions"

    def failed(where: str, at: np.ndarray) -> ClassCertificate:
        return ClassCertificate(
            kind="elliptic",
            verdict=False,
            measured_constant=float("inf"),
            sampling=sampling,
            details={where: np.array2string(pts[np.argmax(at)], precision=6)},
        )

    with np.errstate(over="ignore", invalid="ignore"):
        values = symbol(pts)
        if not np.isfinite(values).all():
            return failed("non_finite_at", ~np.isfinite(values).all(axis=(-2, -1)))
        dets = np.linalg.det(values)
        scale = _frob(values) ** symbol.dim
        singular = np.abs(dets) <= 1e-14 * np.maximum(scale, 1e-300)
        if np.any(singular):
            return failed("singular_at", singular)
        inv = np.linalg.inv(values)
        ratio = _frob(inv) * sobolev_weight(symbol.order, pts)
    per_radius = ratio[1:].reshape(len(radii), dirs_per).max(axis=1)
    per_radius[0] = max(per_radius[0], ratio[0])  # origin counts as innermost
    ok = _stabilized(per_radius) and bool(np.all(np.isfinite(ratio)))
    return ClassCertificate(
        kind="elliptic",
        verdict=ok,
        measured_constant=float(per_radius.max()),
        sampling=sampling,
        details={"inner_sup": f"{float(per_radius[: len(radii) // 2].max()):.6g}"},
    )


# --- principal-part positivity -----------------------------------------------

def _homogeneity_violation(a_pi: EvalFn, degree: float, dirs: np.ndarray) -> float:
    """Largest relative gap ``|a(lam xi) - lam^degree a(xi)|``; nan or inf if a value overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.asarray(a_pi(dirs), dtype=complex)
        ratios = []
        for lam in (0.5, 2.0, 7.0):
            scaled = np.asarray(a_pi(lam * dirs), dtype=complex)
            power = np.float64(lam) ** degree
            err = _frob(scaled - power * base)
            ref = np.maximum(power * _frob(base), 1e-300)
            ratios.append((err / ref).max())
    return float(np.max(ratios))  # nan propagates, so an overflow fails the check


def _principal_certificate(
    kind: str,
    symbol: MatrixSymbol,
    sphere_samples: int,
    min_quantity: Callable[[np.ndarray], np.ndarray],
) -> ClassCertificate:
    if symbol.principal is None:
        raise ValueError(f"symbol '{symbol.name}' has no principal part")
    dirs = _unit_directions(symbol.dim, max(sphere_samples, 2))
    sampling = f"{dirs.shape[0]} unit-sphere samples, homogeneity checked at lam=0.5,2,7"
    hom = _homogeneity_violation(symbol.principal, symbol.order, dirs[:: max(1, len(dirs) // 64)])
    if not hom <= 1e-10:
        return ClassCertificate(
            kind=kind,
            verdict=False,
            measured_constant=float("nan"),
            sampling=sampling,
            details={"homogeneity_violation": f"{hom:.3g}"},
        )
    values = np.asarray(symbol.principal(dirs), dtype=complex)
    mins = min_quantity(values)
    sup_norm = float(_frob(values).max())
    measured = float(mins.min())
    normalized = measured / sup_norm if sup_norm > 0 else measured
    return ClassCertificate(
        kind=kind,
        verdict=bool(normalized > POSITIVITY_TOL),
        measured_constant=measured,
        sampling=sampling,
        details={
            "normalized_min": f"{normalized:.6g}",
            "sphere_sup_norm": f"{sup_norm:.6g}",
            "homogeneity_violation": f"{hom:.3g}",
        },
    )


def check_normal_ellipticity(symbol: MatrixSymbol, sphere_samples: int = 4096) -> ClassCertificate:
    """Pass iff every eigenvalue of the principal symbol has positive real part
    on the unit sphere (tolerance 1e-10 after normalizing to unit sup)."""
    return _principal_certificate(
        "normally_elliptic",
        symbol,
        sphere_samples,
        _min_real_eigenvalue,
    )


def check_strong_ellipticity(symbol: MatrixSymbol, sphere_samples: int = 4096) -> ClassCertificate:
    """Pass iff ``Re(a_pi(xi) eta . eta) >= alpha |eta|^2`` on the unit sphere.

    The minimum over unit ``eta`` in C^d is the smallest eigenvalue of the
    Hermitian part, computed exactly per sampled ``xi``; the reported constant
    is the measured ``alpha`` (with ``|xi| = 1``, so no ``|xi|^r`` division).
    """
    def min_form(values: np.ndarray) -> np.ndarray:
        herm = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
        return _eigvalsh(herm)[..., 0]

    return _principal_certificate("strongly_elliptic", symbol, sphere_samples, min_form)


# --- eigenvalues read off the diagonal ------------------------------------------

# LAPACK's zheevd (``np.linalg.eigh``/``eigvalsh``) and zgeev
# (``np.linalg.eigvals``) rescale a matrix whose largest |entry| lies outside
# about [1.5e-146, 7e145] and [1.3e-138, 7e137] (LAPACK Users' Guide, 3rd ed.),
# which moves the last bits of its eigenvalues.  Inside this range neither
# rescales, and both return the diagonal of a diagonal or triangular matrix
# bit for bit.
_UNSCALED_RANGE = (1e-130, 1e130)


def _unscaled(largest: np.ndarray) -> bool:
    """True when every matrix's largest ``|entry|`` lies in ``_UNSCALED_RANGE``;
    a non-finite one does not."""
    return bool(_UNSCALED_RANGE[0] <= largest.min() and largest.max() <= _UNSCALED_RANGE[1])


def _complex_stack(mats: np.ndarray) -> bool:
    """A non-empty complex128 stack of square matrices, the only input the
    diagonal routes read (a real stack gets real results from LAPACK)."""
    return (mats.dtype == np.complex128 and mats.ndim >= 2 and mats.size > 0
            and mats.shape[-1] == mats.shape[-2])


def _diagonal(table: np.ndarray) -> np.ndarray:
    """The diagonal entries of a ``(..., d, d)`` table as ``(modes, d)``: every
    ``d + 1``-th entry of the flat table, a writable view if it is C-contiguous."""
    d = table.shape[-1]
    return table.reshape(-1, d * d)[:, ::d + 1]


def _positive_diagonal(table: np.ndarray) -> Optional[np.ndarray]:
    """:func:`_diagonal` of a positive real diagonal complex128 table, else ``None``.

    That is a table whose off-diagonal entries are bitwise ``+0+0j`` and
    whose diagonal entries have an imaginary part that is bitwise ``+0`` and
    a real part ``> 0`` (``inf`` counts, NaN does not).  On these ``1 / a``
    has the bytes of ``np.linalg.inv``, signed zeros included; on negative or
    complex entries, or a ``-0`` imaginary part, it does not.  A C-contiguous
    table, as every build makes, is read through views only.
    """
    d = table.shape[-1]
    words = table.reshape(-1, d * d).view(np.uint64)  # real and imaginary word of each entry
    # past the first entry, the flat matrix is d - 1 rows of d off-diagonal
    # entries followed by a diagonal one
    off = words[:, 2:].reshape(len(words), d - 1, 2 * d + 2)[..., :2 * d]
    diag = _diagonal(table)
    if off.any() or diag.imag.view(np.uint64).any() or not diag.real.min() > 0:
        return None
    return diag


def _hermitian_diagonal(mats: np.ndarray) -> Optional[np.ndarray]:
    """The real diagonal ``(modes, d)`` of a stack ``(..., d, d)`` whose
    eigenvalues ``np.linalg.eigh`` returns as that diagonal, bit for bit: a
    positive real diagonal stack (:func:`_positive_diagonal`) whose largest
    entries lie in ``_UNSCALED_RANGE``.  Any other stack gives ``None``."""
    if not _complex_stack(mats):
        return None
    diag = _positive_diagonal(mats)
    if diag is None or not _unscaled(diag.real.max(axis=-1)):
        return None
    return diag.real


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(mats)``; the sorted diagonal where
    :func:`_hermitian_diagonal` accepts the stack."""
    return _eigvalsh_of(mats, _hermitian_diagonal(mats))


def _eigvalsh_of(mats: np.ndarray, diag: Optional[np.ndarray]) -> np.ndarray:
    """:func:`_eigvalsh` of ``mats`` given ``diag = _hermitian_diagonal(mats)``."""
    if diag is None:
        return np.linalg.eigvalsh(mats)
    return np.sort(diag, axis=-1).reshape(mats.shape[:-1])


def _triangular_diagonal(mats: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal ``(..., d)`` of a stack ``(..., d, d)`` whose eigenvalues
    ``np.linalg.eigvals`` returns as those entries, bit for bit, in some
    order: a finite stack that is upper- or lower-triangular throughout,
    whose largest entries lie in ``_UNSCALED_RANGE``.  A diagonal entry with
    a zero real part is left to LAPACK too, since a minimum over ``+0`` and
    ``-0`` depends on their order.  Any other stack gives ``None``."""
    if not _complex_stack(mats):
        return None
    below = np.tril_indices(mats.shape[-1], -1)
    if mats[..., below[0], below[1]].any() and mats[..., below[1], below[0]].any():
        return None
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    if not diag.real.all() or not _unscaled(np.abs(mats).max(axis=(-2, -1))):
        return None
    return diag


def _min_real_eigenvalue(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(mats).real.min(axis=-1)``; the smallest real part
    on the diagonal where :func:`_triangular_diagonal` accepts the stack."""
    diag = _triangular_diagonal(mats)
    if diag is None:
        return np.linalg.eigvals(mats).real.min(axis=-1)
    return diag.real.min(axis=-1)


# --- square roots and the Sylvester bound -------------------------------------

def sylvester_solve(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve ``b x + x b = a`` for Hermitian positive definite ``b``.

    Diagonalizing ``b = U diag(lmbda) U*`` gives ``x = U (a~ / (lmbda_i +
    lmbda_j)) U*`` with ``a~ = U* a U``; the solution obeys the Frobenius bound
    ``|x| <= sqrt(d/2) |b^-1| |a|``.
    """
    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if b.shape != a.shape or b.shape[-1] != b.shape[-2]:
        raise ValueError("b and a must be square matrices of the same size")
    herm_gap = np.linalg.norm(b - np.conj(b.T))
    if herm_gap > 1e-12 * max(np.linalg.norm(b), 1e-300):
        raise ValueError("b is not Hermitian")
    lmbda, u = np.linalg.eigh(b)
    if lmbda.min() <= 0:
        raise ValueError(f"b is not positive definite (min eigenvalue {lmbda.min():.3g})")
    a_tilde = np.conj(u.T) @ a @ u
    x_tilde = a_tilde / (lmbda[:, None] + lmbda[None, :])
    return u @ x_tilde @ np.conj(u.T)


def _eigh_sqrt(mats: np.ndarray, require_positive: bool) -> np.ndarray:
    """Batched ``V sqrt(max(W, 0)) V^*`` from one ``eigh``, optionally rejecting non-positive ``W``.

    On a stack :func:`_hermitian_diagonal` accepts, ``V`` is a permutation
    matrix, and the result is ``sqrt`` of the diagonal with ``+0``
    elsewhere, which is what this writes without calling ``eigh``.
    """
    diag = _hermitian_diagonal(mats)
    if diag is not None:
        out = np.zeros(mats.shape, dtype=complex)
        np.sqrt(diag, out=_diagonal(out).real)
        return out
    w, v = np.linalg.eigh(mats)
    if require_positive and w.min() <= 0:
        raise ValueError(f"matrix not positive definite (min eigenvalue {w.min():.3g})")
    return np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(np.maximum(w, 0.0)), np.conj(v))


def hermitian_sqrt(mats: np.ndarray) -> np.ndarray:
    """Batched positive square root of Hermitian positive definite matrices."""
    return _eigh_sqrt(mats, require_positive=True)


# Largest relative Frobenius gap between a symbol value and the value a
# symmetry says it equals (the Hermitian flag; conjugate symmetry of tables).
SYMMETRY_GAP = 1e-12


def _relative_gap(values: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """``|values - partner| / |values|`` per matrix of ``(..., d, d)``, Frobenius."""
    return _frob(values - partner) / np.maximum(_frob(values), 1e-300)


def _check_flags(values: np.ndarray, points: np.ndarray, hermitian=True, positive_definite=True):
    """Raise ``ValueError`` at a point ``xi`` where the values ``(N, d, d)`` break a flag:
    Hermitian to a relative Frobenius gap of ``SYMMETRY_GAP``, positive definite by ``eigvalsh``.

    A stack that :func:`_hermitian_diagonal` accepts has a +0 off the
    diagonal and a real diagonal, so it equals its conjugate transpose bit
    for bit: its gap is exactly 0, and the gap is not formed."""
    if not (hermitian or positive_definite):
        return
    diag = _hermitian_diagonal(values)
    if hermitian and diag is None:
        rel = _relative_gap(values, np.conj(np.swapaxes(values, -1, -2)))
        if rel.max() > SYMMETRY_GAP:
            bad = points[np.argmax(rel)]
            raise ValueError(f"symbol not Hermitian at xi={np.array2string(bad, precision=6)}")
    if positive_definite:
        eigs = _eigvalsh_of(values, diag)
        if eigs.min() <= 0:
            bad = points[np.argmin(eigs[..., 0])]
            raise ValueError(f"symbol not positive definite at xi={np.array2string(bad, precision=6)}")


def sqrt_symbol(symbol: MatrixSymbol) -> MatrixSymbol:
    """Pointwise Hermitian square root; a symbol of order ``r`` maps to ``r/2``.

    The input must be flagged Hermitian and positive definite; both are
    verified numerically on a log-radial sample set (24 radii up to 1e3, 4
    directions) and the offending ``xi`` is reported on failure.
    """
    if not (symbol.hermitian and symbol.positive_definite):
        raise ValueError(f"symbol '{symbol.name}' is not flagged Hermitian positive definite")
    check_points, _, _ = _radial_points(symbol.dim, 1e3, n_radii=24, n_dirs=4)
    _check_flags(symbol(check_points), check_points)

    def eval_fn(xi: np.ndarray) -> np.ndarray:
        return hermitian_sqrt(symbol(xi))

    principal = None
    if symbol.principal is not None:
        base_principal = symbol.principal

        def principal(xi: np.ndarray) -> np.ndarray:
            return _eigh_sqrt(np.asarray(base_principal(xi), dtype=complex), require_positive=False)

    return MatrixSymbol(
        dim=symbol.dim,
        order=symbol.order / 2.0,
        eval_fn=eval_fn,
        hermitian=True,
        positive_definite=True,
        principal=principal,
        name=f"sqrt({symbol.name})",
    )
