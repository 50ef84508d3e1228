"""Exact combinatorial geometry of the affine group ax + b.

Energies and product sets of finite sets of affine maps, the slice
decomposition and its point-plane incidence reduction in projective 3-space,
shadows and quadrangles of planar sets, and rich-line structure in grids.
All arithmetic is exact: prime fields F_p or arbitrary-precision rationals.
"""

from .affine import (
    AffineMap,
    AffineSet,
    affine_map,
    compose,
    identity,
    inverse,
    max_on_line,
    max_on_vertical,
    product_set,
    quotient,
)
from .energy import (
    CSlice,
    EnergyReport,
    c_slice,
    decompose_by_C,
    decompose_bruteforce,
    energy,
    energy_asym,
    energy_asym_bruteforce,
    energy_bruteforce,
    energy_star,
    main_bound_report,
    quotient_stats,
    scalar_energy_add,
    scalar_energy_mul,
)
from .fields import Field, PrimeField, RATIONALS, RationalField, Scalar, field_inv, parse_field, parse_scalar
from .generators import (
    APSpec,
    AffProductSpec,
    GPSpec,
    GridSpec,
    ParabolaSpec,
    RandomAffSpec,
    RandomPlanarSpec,
    Xorshift64Star,
    generate,
    generate_with_stats,
    parse_gen_spec,
    seeded_random,
)
from .incidence3d import (
    IncidenceInstance,
    Plane3,
    Point3,
    beck_plane_classification,
    build_plane,
    build_point,
    incidences,
    max_collinear_3d,
    pointplane_bound_report,
    q_c_incidence_table,
    q_c_via_incidence,
    top_slice_reports,
)
from .plane import (
    PlaneLine,
    PlanePoint,
    ProjectiveMap2,
    apply_projective,
    beck_point_stats,
    incidence_count,
    incident,
    join_points,
    meet_lines,
    normalize_two_lines,
    quadrangle_energy_correspondence,
    quadrangles,
    quadrangles_bruteforce,
    shadow,
    shadow_incidence_check,
    span_lines,
)
from .richlines import (
    ElekesReport,
    GridInstance,
    RichLineReport,
    elekes_incidence_bound_check,
    grid_incidences,
    max_concurrent_pencil,
    max_parallel_family,
    pencil_bruteforce,
    rich_lines,
    structure_report,
)

__version__ = "0.1.0"
