#ifndef TOUCH_GEOM_BOX_H_
#define TOUCH_GEOM_BOX_H_

#include <algorithm>
#include <limits>
#include <string>

#include "geom/vec3.h"

namespace touch {

/// Axis-aligned 3D box (minimum bounding rectangle in the paper's terms).
///
/// Boxes are closed: two boxes sharing only a face, edge, or corner are
/// considered intersecting, matching the paper's "overlap as both
/// intersection and containment".
struct Box {
  Vec3 lo;
  Vec3 hi;

  constexpr Box() = default;
  constexpr Box(const Vec3& min_corner, const Vec3& max_corner)
      : lo(min_corner), hi(max_corner) {}

  /// A box that contains nothing and is the identity for ExpandToContain.
  static Box Empty() {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    return Box(Vec3(kInf, kInf, kInf), Vec3(-kInf, -kInf, -kInf));
  }

  /// True when the box contains no point (any lo component > hi component).
  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y || lo.z > hi.z; }

  Vec3 Center() const { return (lo + hi) * 0.5f; }
  Vec3 Extent() const { return hi - lo; }

  /// Volume; zero-extent axes contribute zero.
  double Volume() const {
    if (IsEmpty()) return 0.0;
    const Vec3 e = Extent();
    return static_cast<double>(e.x) * e.y * e.z;
  }

  /// Surface-style measure used for dead-space diagnostics: sum of extents.
  double Margin() const {
    if (IsEmpty()) return 0.0;
    const Vec3 e = Extent();
    return static_cast<double>(e.x) + e.y + e.z;
  }

  /// Grows this box to also enclose `other`.
  void ExpandToContain(const Box& other) {
    lo.x = std::min(lo.x, other.lo.x);
    lo.y = std::min(lo.y, other.lo.y);
    lo.z = std::min(lo.z, other.lo.z);
    hi.x = std::max(hi.x, other.hi.x);
    hi.y = std::max(hi.y, other.hi.y);
    hi.z = std::max(hi.z, other.hi.z);
  }

  /// Grows this box to also enclose the point `p`.
  void ExpandToContain(const Vec3& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }

  /// Box enlarged by `epsilon` on every side (Minkowski sum with a cube of
  /// half-width epsilon). This is the paper's distance-join translation: a
  /// distance join with threshold e equals a spatial join after enlarging one
  /// dataset's boxes by e.
  Box Enlarged(float epsilon) const {
    const Vec3 d(epsilon, epsilon, epsilon);
    return Box(lo - d, hi + d);
  }

  std::string ToString() const;
};

/// True when the closed boxes `a` and `b` share at least one point.
inline bool Intersects(const Box& a, const Box& b) {
  return a.lo.x <= b.hi.x && b.lo.x <= a.hi.x &&  //
         a.lo.y <= b.hi.y && b.lo.y <= a.hi.y &&  //
         a.lo.z <= b.hi.z && b.lo.z <= a.hi.z;
}

/// True when a box may enter a dataset: lo <= hi on every axis, which also
/// rejects any NaN coordinate (every comparison with NaN is false). The
/// dataset readers and the catalog's mutation path turn every other box
/// away, so stats sums, histograms and trees never see a NaN or inverted
/// box (an STR center sort over NaN has no strict weak order).
inline bool IsApplicableBox(const Box& box) {
  return box.lo.x <= box.hi.x && box.lo.y <= box.hi.y && box.lo.z <= box.hi.z;
}

/// True when `outer` fully contains `inner` (closed containment).
inline bool Contains(const Box& outer, const Box& inner) {
  return outer.lo.x <= inner.lo.x && inner.hi.x <= outer.hi.x &&
         outer.lo.y <= inner.lo.y && inner.hi.y <= outer.hi.y &&
         outer.lo.z <= inner.lo.z && inner.hi.z <= outer.hi.z;
}

/// True when `b` contains the point `p` (closed).
inline bool ContainsPoint(const Box& b, const Vec3& p) {
  return b.lo.x <= p.x && p.x <= b.hi.x &&  //
         b.lo.y <= p.y && p.y <= b.hi.y &&  //
         b.lo.z <= p.z && p.z <= b.hi.z;
}

/// The intersection region of two boxes; empty if they do not intersect.
Box Intersection(const Box& a, const Box& b);

/// Smallest box enclosing both arguments.
Box Union(const Box& a, const Box& b);

/// Minimum L2 distance between two boxes (0 when they intersect).
double MinDistance(const Box& a, const Box& b);

bool operator==(const Box& a, const Box& b);

}  // namespace touch

#endif  // TOUCH_GEOM_BOX_H_
