"""Skeletal signatures of finite group actions on closed surfaces.

Exact Riemann-Hurwitz arithmetic, (h, r)-plane gap geometry, explicit finite
groups, exhaustive generating-vector search, and figure emission.
"""

from .genvec import (
    GeneratingVector,
    RealizabilityReport,
    Witness,
    quaternion_vector,
    realizable,
    search,
    unbranched_cyclic,
    verify,
)
from .geometry import (
    GapRegion,
    RationalLine,
    RationalPoint,
    TriangleRegion,
    common_point,
    gap,
    lower_line,
    missing_points,
    nearest_int,
    p_group_line,
    triangle,
    upper_line,
)
from .groups import (
    CatalogManifest,
    GroupTable,
    build_cyclic,
    build_dihedral,
    build_elementary_abelian,
    build_from_permutations,
    build_from_spec,
    build_generalized_quaternion,
    bundled_catalog,
    direct_product,
    load_catalog,
    load_cayley_file,
    save_cayley_file,
)
from .kspace import (
    GapReport,
    KSpaceApproximation,
    admissible_map,
    analyze_point,
    figure_dataset,
    realizable_set,
    sporadic_analysis,
    verify_gap,
)
from .rh import (
    HyperbolicityError,
    OrbifoldSignature,
    SearchVerdict,
    SkeletalSignature,
    order_bound,
    rh_admissible,
    rh_genus,
    rh_holds,
)

__version__ = "0.1.0"
