"""Spectral laboratory for EPDiff geodesic flow on the periodic torus.

Fractional-order Sobolev inertia operators as matrix Fourier multipliers,
their certification (growth order, ellipticity, square roots), the Eulerian
and Lagrangian geodesic solvers they generate, and the derivative tower of
the conjugated operator with its convolution oracle.
"""

from .grid import (
    GridMismatchError,
    SpectralVectorField,
    TorusGrid,
    l2_inner,
)
from .symbols import (
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
)
from .operators import (
    EllipticityError,
    FourierMultiplier,
    apply,
    apply_inverse,
    sobolev_multiplier,
    sobolev_norm,
)
from .conjugation import (
    CnEstimate,
    HeadroomError,
    SnIdentityReport,
    apply_An_convolution,
    apply_An_recursive,
    estimate_Cn,
    rec_tensor,
    s_tensor,
    symbol_an,
    verify_sn_identity,
)
from .epdiff import (
    BlowupVerdict,
    CFLError,
    Diagnostics,
    EulerState,
    IntegrationResult,
    detect_blowup,
    euler_rhs,
    gaussian_blob,
    integrate,
    peakon_pair,
    random_bandlimited,
    step_rk4,
)
from .lagrangian import (
    ChartError,
    DiffeoChart,
    GeodesicState,
    InversionError,
    compose,
    distance_dq,
    integrate_geodesic,
    invert,
    lagrangian_energy,
    regularity_probe,
    spray_rhs,
)

__version__ = "0.1.0"
