// Unit tests for the polyhedral substrate: spaces, affine expressions,
// basic-set simplification, projection, feasibility, and map operations.

#include <gtest/gtest.h>

#include "pset/ast.h"
#include "pset/map.h"
#include "pset/set.h"
#include "support/rng.h"

namespace polypart::pset {
namespace {

Space set1d() { return Space::set({"N"}, {"i"}); }

TEST(Space, ColumnLayout) {
  Space s = Space::map({"N", "M"}, {"i", "j"}, {"a"});
  EXPECT_EQ(s.cols(), 6u);
  EXPECT_EQ(s.col(DimId::param(0)), 1u);
  EXPECT_EQ(s.col(DimId::param(1)), 2u);
  EXPECT_EQ(s.col(DimId::in(0)), 3u);
  EXPECT_EQ(s.col(DimId::in(1)), 4u);
  EXPECT_EQ(s.col(DimId::out(0)), 5u);
  EXPECT_EQ(s.dimAt(4), DimId::in(1));
  EXPECT_EQ(s.name(DimId::out(0)), "a");
}

TEST(LinExpr, Arithmetic) {
  Space s = set1d();
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr n = LinExpr::dim(s, DimId::param(0));
  LinExpr e = i * 2 + n - LinExpr::constant(s, 3);
  EXPECT_EQ(e.coef(s, DimId::in(0)), 2);
  EXPECT_EQ(e.coef(s, DimId::param(0)), 1);
  EXPECT_EQ(e.constantTerm(), -3);
  EXPECT_FALSE(e.isZero());
  EXPECT_TRUE((e - e).isZero());
}

TEST(BasicSet, ContainsPoint) {
  // { [i] : 0 <= i < N }
  Space s = set1d();
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  i64 params[] = {10};
  i64 in0[] = {0}, in9[] = {9}, in10[] = {10}, inm1[] = {-1};
  EXPECT_TRUE(bs.containsPoint(params, in0, {}));
  EXPECT_TRUE(bs.containsPoint(params, in9, {}));
  EXPECT_FALSE(bs.containsPoint(params, in10, {}));
  EXPECT_FALSE(bs.containsPoint(params, inm1, {}));
}

TEST(BasicSet, SimplifyDetectsEmpty) {
  Space s = set1d();
  BasicSet bs(s);
  // i >= 5 and i <= 3  -> empty.
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  bs.addGe(i - LinExpr::constant(s, 5));
  bs.addGe(LinExpr::constant(s, 3) - i);
  bs.simplify();
  EXPECT_TRUE(bs.markedEmpty());
}

TEST(BasicSet, SimplifyPromotesEquality) {
  Space s = set1d();
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  bs.addGe(i - LinExpr::constant(s, 4));
  bs.addGe(LinExpr::constant(s, 4) - i);
  bs.simplify();
  EXPECT_FALSE(bs.markedEmpty());
  bool hasEq = false;
  for (const Constraint& c : bs.constraints()) hasEq |= c.isEquality;
  EXPECT_TRUE(hasEq);
}

TEST(BasicSet, GcdTightening) {
  // 2i >= 3  ==>  i >= 2 over the integers.
  Space s = Space::set({}, {"i"});
  BasicSet bs(s);
  LinExpr e = LinExpr::dim(s, DimId::in(0)) * 2;
  e.addConstant(-3);
  bs.addGe(std::move(e));
  bs.simplify();
  i64 one[] = {1}, two[] = {2};
  EXPECT_FALSE(bs.containsPoint({}, one, {}));
  EXPECT_TRUE(bs.containsPoint({}, two, {}));
}

TEST(BasicSet, EqualityWithoutIntegerSolutionIsEmpty) {
  // 2i == 5 has no integer solution.
  Space s = Space::set({}, {"i"});
  BasicSet bs(s);
  LinExpr e = LinExpr::dim(s, DimId::in(0)) * 2;
  e.addConstant(-5);
  bs.addEq(std::move(e));
  bs.simplify();
  EXPECT_TRUE(bs.markedEmpty());
}

TEST(BasicSet, ProjectOutExactUnitCoefficient) {
  // { [i, j] : j == i + 1 and 0 <= i < 10 }  project j  -> { [i] : 0 <= i < 10 }
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr j = LinExpr::dim(s, DimId::in(1));
  bs.addEq(j - i - LinExpr::constant(s, 1));
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 10));
  auto p = bs.projectOut(DimKind::In, 1, 1);
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.set.space().numIn(), 1u);
  i64 in0[] = {0}, in9[] = {9}, in10[] = {10};
  EXPECT_TRUE(p.set.containsPoint({}, in0, {}));
  EXPECT_TRUE(p.set.containsPoint({}, in9, {}));
  EXPECT_FALSE(p.set.containsPoint({}, in10, {}));
}

TEST(BasicSet, ProjectOutFourierMotzkin) {
  // { [i, j] : 0 <= j <= 5 and i == 2j } -- eliminating j via the equality
  // with coefficient 2 on j ... use i - 2j >= 0 and 2j - i >= 0 forms.
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr j = LinExpr::dim(s, DimId::in(1));
  bs.addGe(j);
  bs.addGe(LinExpr::constant(s, 5) - j);
  bs.addEq(i - j * 2);
  auto p = bs.projectOut(DimKind::In, 1, 1);
  // Integer-exact projection would be { i : 0 <= i <= 10 and i even }; we
  // over-approximate and must report that.
  EXPECT_FALSE(p.exact);
  i64 in0[] = {0}, in10[] = {10}, in11[] = {11};
  EXPECT_TRUE(p.set.containsPoint({}, in0, {}));
  EXPECT_TRUE(p.set.containsPoint({}, in10, {}));
  EXPECT_FALSE(p.set.containsPoint({}, in11, {}));
}

TEST(BasicSet, DuplicateConstraintsDedupBeforeProjection) {
  // Access-map construction routinely produces the same inequality many
  // times (one copy per load of the same row, plus GCD-scaled variants from
  // stride normalization).  simplify() must canonicalize and dedup them so
  // Fourier-Motzkin sees each constraint once — otherwise k duplicated
  // lower bounds times k duplicated uppers produce k^2 redundant rows per
  // eliminated column.  { [i, j] : 0 <= i < N and 0 <= j <= i }.
  Space s = Space::set({"N"}, {"i", "j"});
  auto build = [&](int copies, i64 scale) {
    BasicSet bs(s);
    LinExpr i = LinExpr::dim(s, DimId::in(0));
    LinExpr j = LinExpr::dim(s, DimId::in(1));
    LinExpr n = LinExpr::dim(s, DimId::param(0));
    for (int c = 0; c < copies; ++c) {
      // Odd copies are scaled by a common factor; GCD tightening must
      // normalize them back onto the base form before dedup.
      i64 f = (c % 2 == 0) ? 1 : scale;
      bs.addGe(i * f);
      bs.addGe((n - i - LinExpr::constant(s, 1)) * f);
      bs.addGe(j * f);
      bs.addGe((i - j) * f);
    }
    return bs;
  };

  BasicSet clean = build(1, 1);
  BasicSet fat = build(8, 3);

  // Direct dedup check: simplification collapses the 32 rows to the 4
  // distinct constraints.
  BasicSet deduped = fat;
  deduped.simplify();
  EXPECT_EQ(deduped.constraints().size(), 4u);

  // Projection of j behaves exactly as on the clean system: same exactness,
  // same constraint count (no duplicate-driven row blowup), same points.
  auto pc = clean.projectOut(DimKind::In, 1, 1);
  auto pf = fat.projectOut(DimKind::In, 1, 1);
  EXPECT_EQ(pf.exact, pc.exact);
  EXPECT_EQ(pf.set.constraints().size(), pc.set.constraints().size());
  i64 params[] = {10};
  for (i64 v = -2; v <= 12; ++v) {
    i64 in0[] = {v};
    EXPECT_EQ(pf.set.containsPoint(params, in0, {}),
              pc.set.containsPoint(params, in0, {}))
        << "projections disagree at i = " << v;
  }
}

TEST(BasicSet, FeasibilityDefinite) {
  Space s = set1d();
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  // With N unconstrained there is some N making it non-empty.
  EXPECT_EQ(bs.feasibility(), BasicSet::Feas::NonEmpty);

  BasicSet e(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  e.addGe(i - LinExpr::constant(s, 2));
  e.addGe(LinExpr::constant(s, 1) - i);
  EXPECT_EQ(e.feasibility(), BasicSet::Feas::Empty);
}

TEST(Set, UnionAndEmptiness) {
  Space s = set1d();
  BasicSet a(s);
  a.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 4));
  Set u(s);
  u.addPart(a);
  EXPECT_EQ(u.emptiness(), Tri::No);
  Set v = Set::empty(s);
  EXPECT_EQ(v.emptiness(), Tri::Yes);
  Set w = u.unionWith(v);
  EXPECT_EQ(w.parts().size(), 1u);
}

TEST(Set, SubtractSplitsInterval) {
  // { [i] : 0 <= i < 10 } \ { [i] : 3 <= i < 6 } keeps 0..2 and 6..9.
  Space s = Space::set({}, {"i"});
  BasicSet a(s), b(s);
  a.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 10));
  b.addBounds(DimId::in(0), LinExpr::constant(s, 3), LinExpr::constant(s, 6));
  Set sa(s), sb(s);
  sa.addPart(a);
  sb.addPart(b);
  Set d = sa.subtract(sb);
  EXPECT_TRUE(d.exact());
  for (i64 i = -2; i < 12; ++i) {
    i64 pt[] = {i};
    const bool want = i >= 0 && i < 10 && !(i >= 3 && i < 6);
    EXPECT_EQ(d.containsPoint({}, pt), want) << "i=" << i;
  }
}

TEST(Set, ExactHullOfTilingUnion) {
  // [N] -> { [i] : i = 0 } ∪ { [i] : 1 <= i <= N - 2 } ∪ { [i] : i = N - 1 }
  // with N >= 1 in every part (as an analysis context adds it) tiles
  // 0..N-1, so the hull 0 <= i <= N - 1 is exact.
  Space s = Space::set({"N"}, {"i"});
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr n = LinExpr::dim(s, DimId::param(0));
  BasicSet first(s), interior(s), last(s);
  first.addEq(i);
  interior.addBounds(DimId::in(0), LinExpr::constant(s, 1), n - LinExpr::constant(s, 1));
  last.addEq(n - LinExpr::constant(s, 1) - i);
  for (BasicSet* b : {&first, &interior, &last}) b->addGe(n - LinExpr::constant(s, 1));
  Set u(s);
  for (const BasicSet& b : {interior, first, last}) u.addPart(b);
  std::optional<BasicSet> hull = u.exactHull();
  ASSERT_TRUE(hull.has_value());
  for (i64 N : {0, 1, 2, 3, 7})
    for (i64 v = -2; v < N + 2; ++v) {
      i64 params[] = {N}, pt[] = {v};
      EXPECT_EQ(hull->containsPoint(params, pt, {}), u.containsPoint(params, pt))
          << "N=" << N << " i=" << v;
    }

  // The two end points alone leave the interior uncovered: no proof.
  Set gap(s);
  gap.addPart(first);
  gap.addPart(last);
  EXPECT_FALSE(gap.exactHull().has_value());
  // A single disjunct has no hull to prove.
  Set one(s);
  one.addPart(interior);
  EXPECT_FALSE(one.exactHull().has_value());
}

TEST(Set, SubtractDisjointAndCovering) {
  Space s = Space::set({}, {"i"});
  BasicSet a(s);
  a.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 4));
  Set sa(s);
  sa.addPart(a);
  // Disjoint subtrahend: membership unchanged.
  BasicSet far(s);
  far.addBounds(DimId::in(0), LinExpr::constant(s, 100),
                LinExpr::constant(s, 200));
  Set sFar(s);
  sFar.addPart(far);
  Set d1 = sa.subtract(sFar);
  for (i64 i = 0; i < 4; ++i) {
    i64 pt[] = {i};
    EXPECT_TRUE(d1.containsPoint({}, pt)) << i;
  }
  // Covering subtrahend: definitely empty.
  BasicSet cover(s);
  cover.addBounds(DimId::in(0), LinExpr::constant(s, -1),
                  LinExpr::constant(s, 5));
  Set sCover(s);
  sCover.addPart(cover);
  EXPECT_EQ(sa.subtract(sCover).emptiness(), Tri::Yes);
  // Subtracting the empty set is the identity.
  Set d2 = sa.subtract(Set::empty(s));
  i64 p0[] = {0}, p4[] = {4};
  EXPECT_TRUE(d2.containsPoint({}, p0));
  EXPECT_FALSE(d2.containsPoint({}, p4));
}

TEST(Map, RangeUnderBoxOfStencilMap) {
  // { [i] -> [a] : i-1 <= a <= i+1 and 0 <= i < N } restricted to the box
  // i in [4, 8) with N = 100 touches exactly a in [3, 8].
  Space s = Space::map({"N"}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr a = LinExpr::dim(s, DimId::out(0));
  bs.addGe(a - i + LinExpr::constant(s, 1));   // a >= i - 1
  bs.addGe(i - a + LinExpr::constant(s, 1));   // a <= i + 1
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  m.addPart(bs);
  i64 params[] = {100};
  i64 lo[] = {4}, hi[] = {8};
  Set fp = m.rangeUnderBox(params, lo, hi);
  EXPECT_TRUE(fp.exact());
  for (i64 v = 0; v < 12; ++v) {
    i64 pt[] = {v};
    EXPECT_EQ(fp.containsPoint({}, pt), v >= 3 && v <= 8) << "a=" << v;
  }
  // An empty box has an empty footprint.
  i64 eLo[] = {5}, eHi[] = {5};
  EXPECT_NE(m.rangeUnderBox(params, eLo, eHi).emptiness(), Tri::No);
}

TEST(Map, RangeOfShiftMap) {
  // { [i] -> [a] : a == i + 3 and 0 <= i < 7 } has range { [a] : 3 <= a < 10 }.
  Space s = Space::map({}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr a = LinExpr::dim(s, DimId::out(0));
  bs.addEq(a - i - LinExpr::constant(s, 3));
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 7));
  m.addPart(bs);
  Set r = m.range();
  EXPECT_TRUE(r.exact());
  i64 a3[] = {3}, a9[] = {9}, a2[] = {2}, a10[] = {10};
  EXPECT_TRUE(r.containsPoint({}, a3));
  EXPECT_TRUE(r.containsPoint({}, a9));
  EXPECT_FALSE(r.containsPoint({}, a2));
  EXPECT_FALSE(r.containsPoint({}, a10));
}

TEST(Map, InjectiveIdentity) {
  Space s = Space::map({"N"}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  bs.addEq(LinExpr::dim(s, DimId::out(0)) - LinExpr::dim(s, DimId::in(0)));
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  m.addPart(bs);
  BasicSet context(Space::set({"N"}, {}));
  EXPECT_EQ(m.isInjective(context), Tri::Yes);
}

TEST(Map, NonInjectiveConstantMap) {
  // { [i] -> [0] : 0 <= i < 4 } maps several inputs to one output.
  Space s = Space::map({}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  bs.addEq(LinExpr::dim(s, DimId::out(0)));
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 4));
  m.addPart(bs);
  BasicSet context(Space::set({}, {}));
  EXPECT_EQ(m.isInjective(context), Tri::No);
}

TEST(Ast, ScanOneDim) {
  // { [i] : 2 <= i < N } with N = 6 -> single row [2, 5].
  Space s = set1d();
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr::constant(s, 2), LinExpr::dim(s, DimId::param(0)));
  ScanNest nest = buildScan(bs);
  ASSERT_EQ(nest.levels.size(), 1u);
  int rows = 0;
  i64 params[] = {6};
  scanRows(nest, params, [&](std::span<const i64> outer, i64 lo, i64 hi) {
    EXPECT_TRUE(outer.empty());
    EXPECT_EQ(lo, 2);
    EXPECT_EQ(hi, 5);
    ++rows;
  });
  EXPECT_EQ(rows, 1);
}

TEST(Ast, ScanTriangle) {
  // { [i, j] : 0 <= i < 4 and 0 <= j <= i }.
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 4));
  bs.addGe(LinExpr::dim(s, DimId::in(1)));
  bs.addGe(LinExpr::dim(s, DimId::in(0)) - LinExpr::dim(s, DimId::in(1)));
  ScanNest nest = buildScan(bs);
  std::vector<std::pair<i64, i64>> rows;
  scanRows(nest, {}, [&](std::span<const i64> outer, i64 lo, i64 hi) {
    ASSERT_EQ(outer.size(), 1u);
    rows.emplace_back(lo, hi);
  });
  ASSERT_EQ(rows.size(), 4u);
  for (i64 i = 0; i < 4; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].first, 0);
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].second, i);
  }
}

TEST(Ast, ScanEmptyGuard) {
  Space s = set1d();
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  // Param-only constraint: N >= 100.
  LinExpr n = LinExpr::dim(s, DimId::param(0));
  bs.addGe(n - LinExpr::constant(s, 100));
  ScanNest nest = buildScan(bs);
  int rows = 0;
  i64 small[] = {6};
  scanRows(nest, small, [&](std::span<const i64>, i64, i64) { ++rows; });
  EXPECT_EQ(rows, 0);
  i64 big[] = {101};
  scanRows(nest, big, [&](std::span<const i64>, i64, i64) { ++rows; });
  EXPECT_EQ(rows, 1);
}

TEST(Ast, ScanMatchesContainsPointProperty) {
  // Random 2-D sets: scanning must enumerate exactly the contained points.
  Rng rng(1234);
  for (int iter = 0; iter < 50; ++iter) {
    Space s = Space::set({}, {"i", "j"});
    BasicSet bs(s);
    bs.addBounds(DimId::in(0), LinExpr::constant(s, -3), LinExpr::constant(s, 6));
    bs.addBounds(DimId::in(1), LinExpr::constant(s, -3), LinExpr::constant(s, 6));
    // Two random extra inequalities.
    for (int k = 0; k < 2; ++k) {
      LinExpr e(s);
      e.setCoef(s, DimId::in(0), rng.range(-2, 2));
      e.setCoef(s, DimId::in(1), rng.range(-2, 2));
      e.addConstant(rng.range(-4, 8));
      bs.addGe(std::move(e));
    }
    BasicSet check = bs;
    std::vector<std::pair<i64, i64>> points;
    ScanNest nest = buildScan(bs);
    scanRows(nest, {}, [&](std::span<const i64> outer, i64 lo, i64 hi) {
      for (i64 j = lo; j <= hi; ++j) points.emplace_back(outer[0], j);
    });
    std::size_t expected = 0;
    for (i64 i = -3; i < 6; ++i)
      for (i64 j = -3; j < 6; ++j) {
        i64 ins[] = {i, j};
        if (check.containsPoint({}, ins, {})) {
          ++expected;
          EXPECT_NE(std::find(points.begin(), points.end(), std::make_pair(i, j)),
                    points.end())
              << "missing point (" << i << ", " << j << ") in " << check.str();
        }
      }
    EXPECT_EQ(points.size(), expected) << check.str();
  }
}

}  // namespace
}  // namespace polypart::pset
