"""Decompositions p = a*b + c*d of odd primes via windmill bases of planar lattices."""

from .decomp import (
    IrreducibleMatrix,
    OrbitEntry,
    enumerate_bruteforce,
    enumerate_fast,
    irreducible_count,
    irreducible_enumerate,
    two_squares_fixed_point,
    two_squares_grace,
    vierergruppe_orbits,
)
from .lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    VoronoiData,
    contains,
    det,
    gauss_reduce,
    interlaced,
    is_basis_of_slope,
    is_primitive,
    lambda_mu,
    minimal_vector,
    triangle_basis_test,
    upper_rep,
    voronoi_cell,
)
from .numtheory import (
    Residue,
    is_prime,
    smallest_nonresidue,
    sqrt_minus_one,
    wilson_sqrt_minus_one_oracle,
)
from .render import SvgDocument, lattice_svg, tiling_svg
from .windmill import (
    Color,
    Solution,
    WindmillBasisSet,
    all_windmill_bases,
    fast_solution_for_pair,
    find_windmill_basis,
    standard_black_basis,
)

__version__ = "0.1.0"
