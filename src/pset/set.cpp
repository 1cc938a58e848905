#include "pset/set.h"

#include <algorithm>

#include "support/str.h"

namespace polypart::pset {

void Set::addPart(BasicSet bs) {
  PP_ASSERT(bs.space() == space_);
  if (bs.markedEmpty()) return;
  parts_.push_back(std::move(bs));
}

Set Set::unionWith(const Set& o) const {
  PP_ASSERT(space_ == o.space_);
  Set out = *this;
  out.parts_.insert(out.parts_.end(), o.parts_.begin(), o.parts_.end());
  out.exact_ = exact_ && o.exact_;
  return out;
}

Set Set::intersect(const Set& o) const {
  PP_ASSERT(space_ == o.space_);
  Set out(space_);
  out.exact_ = exact_ && o.exact_;
  for (const BasicSet& a : parts_)
    for (const BasicSet& b : o.parts_) {
      BasicSet c = a.intersect(b);
      c.simplify();
      if (!c.markedEmpty()) out.parts_.push_back(std::move(c));
    }
  return out;
}

Set Set::intersect(const BasicSet& bs) const {
  Set out(space_);
  out.exact_ = exact_;
  for (const BasicSet& a : parts_) {
    BasicSet c = a.intersect(bs);
    c.simplify();
    if (!c.markedEmpty()) out.parts_.push_back(std::move(c));
  }
  return out;
}

Set Set::projectOut(DimKind kind, std::size_t first, std::size_t count) const {
  Set out;
  out.exact_ = exact_;
  bool spaceSet = false;
  for (const BasicSet& part : parts_) {
    Proj p = part.projectOut(kind, first, count);
    if (!spaceSet) {
      out.space_ = p.set.space();
      spaceSet = true;
    }
    out.exact_ = out.exact_ && p.exact;
    if (!p.set.markedEmpty()) out.parts_.push_back(std::move(p.set));
  }
  if (!spaceSet) {
    // No disjuncts: still compute the reduced space from an empty part.
    Proj p = BasicSet(space_).projectOut(kind, first, count);
    out.space_ = p.set.space();
  }
  return out;
}

Set Set::subtract(const Set& o) const {
  PP_ASSERT(space_ == o.space_);
  // Complement splitting multiplies disjuncts; past this cap the subtrahend
  // part is skipped, leaving a sound over-approximation (see set.h).
  constexpr std::size_t kMaxParts = 256;
  Set out = *this;
  out.exact_ = exact_ && o.exact_;
  out.pruneEmptyParts();
  for (const BasicSet& b : o.parts_) {
    if (out.parts_.empty()) break;
    if (b.markedEmpty()) continue;
    // The complement of b as a sequence of negatable inequalities; an
    // equality e == 0 contributes e >= 0 and -e >= 0.
    std::vector<LinExpr> ineqs;
    for (const Constraint& c : b.constraints()) {
      ineqs.push_back(c.expr);
      if (c.isEquality) ineqs.push_back(-c.expr);
    }
    std::vector<BasicSet> next;
    bool overflow = false;
    for (const BasicSet& a : out.parts_) {
      BasicSet prefix = a;  // a ∩ c_0 ∩ .. ∩ c_{j-1}
      for (std::size_t j = 0; j < ineqs.size(); ++j) {
        BasicSet piece = prefix;
        LinExpr neg = -ineqs[j];
        neg.addConstant(-1);  // ¬(e >= 0)  ≡  -e - 1 >= 0 over Z
        piece.addGe(std::move(neg));
        piece.simplify();
        if (!piece.markedEmpty() &&
            piece.feasibility() != BasicSet::Feas::Empty)
          next.push_back(std::move(piece));
        if (j + 1 < ineqs.size()) {
          prefix.addGe(ineqs[j]);
          prefix.simplify();
          if (prefix.markedEmpty()) break;
        }
      }
      if (next.size() > kMaxParts) {
        overflow = true;
        break;
      }
    }
    if (overflow) {
      out.exact_ = false;  // keep the remainder un-split for this b
      continue;
    }
    out.parts_ = std::move(next);
  }
  // A subtrahend part with no constraints (the universe) leaves no pieces;
  // the loop above handles it uniformly (ineqs is empty, nothing survives).
  return out;
}

namespace {

bool hasRow(const std::vector<LinExpr>& rows, const LinExpr& e) {
  return std::find(rows.begin(), rows.end(), e) != rows.end();
}

/// True when `a` and `b` have equal (sign = 1) or opposite (sign = -1)
/// non-constant coefficients.
bool parallel(const LinExpr& a, const LinExpr& b, i64 sign) {
  for (std::size_t c = 1; c < a.cols(); ++c)
    if (a[c] != sign * b[c]) return false;
  return true;
}

/// The rows of `rows` connected to the columns of `seed` through shared
/// non-constant columns.  The other rows constrain other columns only, so
/// dropping them can only enlarge a set: an emptiness proof on the
/// component holds for the full system, and the elimination works on a
/// fraction of the columns.
BasicSet component(const Space& space, const std::vector<LinExpr>& rows,
                   const std::vector<LinExpr>& seed) {
  std::vector<bool> cols(space.cols(), false);
  auto mark = [&](const LinExpr& e) {
    for (std::size_t c = 1; c < e.cols(); ++c)
      if (e[c] != 0) cols[c] = true;
  };
  for (const LinExpr& e : seed) mark(e);
  std::vector<bool> taken(rows.size(), false);
  BasicSet out(space);
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (taken[r]) continue;
      for (std::size_t c = 1; c < rows[r].cols(); ++c)
        if (rows[r][c] != 0 && cols[c]) {
          taken[r] = grew = true;
          mark(rows[r]);
          out.addGe(rows[r]);
          break;
        }
    }
  }
  return out;
}

/// Syntactic test of whether every integer point satisfying `rows`
/// satisfies e >= 0: Yes when `rows` holds e, a parallel row with a
/// constant no larger, or two rows whose sum is such a row; No when an opposite row excludes e >= 0 outright
/// (No is always safe for the caller, which only loses a hull row, so the
/// rows need not be known feasible); Unknown otherwise.
Tri impliedSyntactically(const std::vector<LinExpr>& rows, const LinExpr& e) {
  for (const LinExpr& r : rows) {
    if (parallel(r, e, 1) && r.constantTerm() <= e.constantTerm()) return Tri::Yes;
    if (parallel(r, e, -1) && checkedAdd(r.constantTerm(), e.constantTerm()) < 0)
      return Tri::No;
  }
  // The sum of two rows (a bound chained through one variable, such as
  // n - a - 2 >= 0 and a - 1 >= 0 giving n - 3 >= 0) dominating e.
  for (std::size_t x = 0; x < rows.size(); ++x)
    for (std::size_t y = x + 1; y < rows.size(); ++y) {
      bool sumParallel = true;
      for (std::size_t c = 1; c < e.cols() && sumParallel; ++c) {
        i64 sum = 0;
        sumParallel = !__builtin_add_overflow(rows[x][c], rows[y][c], &sum) &&
                      sum == e[c];
      }
      if (sumParallel && checkedAdd(rows[x].constantTerm(), rows[y].constantTerm()) <=
                             e.constantTerm())
        return Tri::Yes;
    }
  return Tri::Unknown;
}

/// FM test of the same question: is rows ∧ ¬e empty?
bool impliedByElimination(const Space& space, const std::vector<LinExpr>& rows,
                          const LinExpr& e) {
  LinExpr neg = -e;
  neg.addConstant(-1);  // ¬(e >= 0)  ≡  -e - 1 >= 0 over Z
  BasicSet violated = component(space, rows, {neg});
  violated.addGe(std::move(neg));
  violated.simplify();
  return violated.markedEmpty() ||
         violated.feasibility() == BasicSet::Feas::Empty;
}

}  // namespace

std::optional<BasicSet> Set::exactHull() const {
  if (parts_.size() < 2 || !exact_) return std::nullopt;
  // Each disjunct as inequality rows; an equality e == 0 contributes
  // e >= 0 and -e >= 0.
  std::vector<std::vector<LinExpr>> rows;
  rows.reserve(parts_.size());
  for (const BasicSet& part : parts_) {
    if (part.markedEmpty()) return std::nullopt;
    std::vector<LinExpr>& r = rows.emplace_back();
    for (const Constraint& c : part.constraints()) {
      r.push_back(c.expr);
      if (c.isEquality) r.push_back(-c.expr);
    }
  }

  // A row of D_i joins the hull when every other disjunct implies it.  The
  // syntactic test runs over all disjuncts first, so one cheap refutation
  // spares the eliminations of the others.
  std::vector<LinExpr> hullRows;
  std::vector<std::size_t> undecided;
  for (std::size_t i = 0; i < parts_.size(); ++i)
    for (const LinExpr& e : rows[i]) {
      if (hasRow(hullRows, e)) continue;
      bool everywhere = true;
      undecided.clear();
      for (std::size_t j = 0; j < parts_.size() && everywhere; ++j) {
        if (j == i) continue;
        Tri t = impliedSyntactically(rows[j], e);
        everywhere = t != Tri::No;
        if (t == Tri::Unknown) undecided.push_back(j);
      }
      for (std::size_t k = 0; k < undecided.size() && everywhere; ++k)
        everywhere = impliedByElimination(space_, rows[undecided[k]], e);
      if (everywhere) hullRows.push_back(e);
    }
  BasicSet hull(space_);
  for (const LinExpr& e : hullRows) hull.addGe(e);

  // hull ∩ ¬D_j == hull ∩ ¬(D_j without the hull's rows), so subtracting the
  // reduced disjuncts is exact and splits on far fewer constraints.
  Set covered(space_);
  std::vector<LinExpr> splitRows;
  for (const std::vector<LinExpr>& r : rows) {
    BasicSet rest(space_);
    for (const LinExpr& e : r)
      if (!hasRow(hullRows, e)) {
        rest.addGe(e);
        splitRows.push_back(e);
      }
    if (rest.numConstraints() == 0) return hull;  // inside this disjunct
    covered.parts_.push_back(std::move(rest));
  }
  // Only the hull rows connected to the split rows take part in the proof:
  // the rest can only enlarge the minuend, and a point of the real hull
  // covered by a reduced disjunct also satisfies the rows that disjunct
  // dropped (they are hull rows), so an empty difference still proves
  // hull ⊆ union.
  Set minuend(space_);
  minuend.parts_.push_back(component(space_, hullRows, splitRows));
  Set uncovered = minuend.subtract(covered);
  uncovered.pruneEmptyParts();
  if (!uncovered.parts_.empty()) return std::nullopt;
  return hull;
}

Tri Set::emptiness() const {
  bool definite = true;
  for (const BasicSet& part : parts_) {
    switch (part.feasibility()) {
      case BasicSet::Feas::NonEmpty: return Tri::No;
      case BasicSet::Feas::Unknown: definite = false; break;
      case BasicSet::Feas::Empty: break;
    }
  }
  return definite ? Tri::Yes : Tri::Unknown;
}

bool Set::containsPoint(std::span<const i64> params, std::span<const i64> ins,
                        std::span<const i64> outs) const {
  for (const BasicSet& part : parts_)
    if (part.containsPoint(params, ins, outs)) return true;
  return false;
}

void Set::pruneEmptyParts() {
  std::erase_if(parts_, [](const BasicSet& p) {
    return p.markedEmpty() || p.feasibility() == BasicSet::Feas::Empty;
  });
}

std::string Set::str() const {
  if (parts_.empty()) {
    std::string out;
    if (space_.numParams() > 0) out += "[" + join(space_.paramNames(), ", ") + "] -> ";
    return out + "{ }";
  }
  std::vector<std::string> parts;
  for (const BasicSet& p : parts_) parts.push_back(p.str());
  return join(parts, " union ");
}

}  // namespace polypart::pset
