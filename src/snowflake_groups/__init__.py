"""Exact word metrics, geodesics, distortion and van Kampen fillings in the
snowflake groups G_L (double HNN extensions of Z^2 with a^L = xy)."""

from .params import GroupParams
from .vertex_group import (
    GeodesicExpression,
    HPoint,
    closest_points_on_a_line,
    dist_a_power,
    dist_h,
    dist_table,
    geodesic_expression,
    geodesic_word_a_power,
    geodesic_word_h,
    project_to_x_line,
    xy_line_intersection,
)
from .hnn_group import (
    Ball,
    BudgetExceeded,
    GroupElement,
    InvariantViolation,
    bfs_ball,
    pair_dist,
    reduce_word,
)
from .words import PathWord
from .paths import (
    BilipReport,
    EnfiladeDecomposition,
    GeodesicLoopReport,
    PathSegment,
    decompose_escapes,
    enfilade_decompose,
    loop_bilip_constant,
    snowflake_loop,
    snowflake_path,
    verify_geodesic_loop,
)
from .filling import (
    ApproxPolygon,
    Cell,
    CentralLocation,
    Diagram,
    HnnDualTree,
    Subdivision,
    area_budget,
    fill_bigon,
    fill_diamond,
    fill_triangle,
    find_central_region,
    snap_diamond,
    snap_triangle,
    snowflake_hnn_tree,
    subdivide_snowflake,
)
from .distortion import (
    DistortionRow,
    GapReport,
    ag_ratio_scan,
    distortion_table,
    eq42_limit,
    gap_checks,
    mn_sequence,
    reverse_holder_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
