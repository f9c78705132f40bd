//! Spatial substrate for the reproduction of *On the Complexity of Join
//! Predicates* (PODS 2001).
//!
//! The paper's spatial-overlap join predicate is "the polygon in `r.A`
//! overlaps the polygon in `s.B`". This crate supplies the geometric
//! machinery the spatial join algorithms need:
//!
//! * [`Point`], [`Rect`] — integer-coordinate primitives (closed axis-
//!   aligned rectangles; integer coordinates keep every predicate exact).
//!   **Coordinate contract:** spans must fit in `i64` — keep coordinates
//!   within `±2⁶²` so widths, heights, and interval differences never
//!   overflow (predicates like [`Rect::intersects`] are overflow-free,
//!   but measures such as [`Rect::width`] and [`Region::area`] subtract
//!   coordinates in `i64` first);
//! * [`Region`] — rectilinear regions (finite unions of rectangles), the
//!   polygon stand-in documented in `DESIGN.md`: rectangles realize the
//!   worst-case family of Lemma 3.4 and comb-shaped regions realize *any*
//!   bipartite join graph spatially;
//! * [`ConvexPolygon`] — convex polygons with an exact separating-axis
//!   overlap test, honouring the paper's "polygons over some coordinate
//!   system";
//! * [`RTree`] — an STR bulk-loaded R-tree with range queries and a
//!   synchronized-traversal join;
//! * [`sweep`] — plane-sweep rectangle intersection;
//! * [`grid`] — uniform-grid (PBSM-style) partitioned intersection with
//!   duplicate avoidance.

pub mod grid;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod region;
pub mod rtree;
pub mod sweep;

pub use point::Point;
pub use polygon::ConvexPolygon;
pub use rect::Rect;
pub use region::Region;
pub use rtree::RTree;
