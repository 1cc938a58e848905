#pragma once

// A Set is a union of BasicSets over a common space (paper Section 2.4:
// "unions of Z-Polyhedra").  Exactness is tracked through projections so
// clients can distinguish precise results from sound over-approximations.

#include <optional>
#include <string>
#include <vector>

#include "pset/basic_set.h"

namespace polypart::pset {

enum class Tri { No, Yes, Unknown };

class Set {
 public:
  Set() = default;
  explicit Set(Space space) : space_(std::move(space)) {}

  static Set empty(Space space) { return Set(std::move(space)); }
  static Set universe(Space space) {
    Set s(space);
    s.parts_.emplace_back(std::move(space));
    return s;
  }

  const Space& space() const { return space_; }
  const std::vector<BasicSet>& parts() const { return parts_; }
  bool exact() const { return exact_; }
  void markInexact() { exact_ = false; }

  void addPart(BasicSet bs);

  /// Union (concatenation of disjuncts).
  Set unionWith(const Set& o) const;

  /// Pairwise intersection of disjuncts.
  Set intersect(const Set& o) const;
  Set intersect(const BasicSet& bs) const;

  /// Projects the given dimensions out of every disjunct.
  Set projectOut(DimKind kind, std::size_t first, std::size_t count) const;

  /// Set difference `this \ o` by exact complement splitting: every
  /// subtrahend disjunct with constraints c_0..c_{k-1} splits each remaining
  /// disjunct A into the pairwise-disjoint pieces
  /// A ∩ c_0 ∩ .. ∩ c_{j-1} ∩ ¬c_j (over the integers ¬(e >= 0) is
  /// -e - 1 >= 0; an equality contributes both of its inequalities).  The
  /// disjunct count is capped; past the cap the offending subtrahend part is
  /// skipped and the result marked inexact — a sound *over*-approximation,
  /// which is the safe direction for dead-transfer elision (clients prefetch
  /// a superset of the live flow).
  Set subtract(const Set& o) const;

  /// The simple hull of the disjuncts when it provably equals their union,
  /// else nullopt.  The simple hull keeps every disjunct constraint that all
  /// other disjuncts satisfy (syntactic presence first, then FM emptiness of
  /// D_j ∩ ¬c), so it covers the union by construction; equality is then
  /// proven by `hull ∖ union = ∅` through subtract(), whose result
  /// over-approximates, so an empty difference is a proof.  Each subtrahend
  /// disjunct drops the constraints the hull already carries (they hold on
  /// every piece being split), which keeps the proof to a few pieces for a
  /// stencil's interior-plus-borders tiling.  Requires at least two disjuncts
  /// and an exact set.
  std::optional<BasicSet> exactHull() const;

  /// Empty (definitely), NonEmpty (definitely over Z), or Unknown.
  Tri emptiness() const;

  bool containsPoint(std::span<const i64> params, std::span<const i64> ins,
                     std::span<const i64> outs = {}) const;

  /// Drops disjuncts whose infeasibility is certain.
  void pruneEmptyParts();

  std::string str() const;

 private:
  Space space_;
  std::vector<BasicSet> parts_;
  bool exact_ = true;
};

}  // namespace polypart::pset
