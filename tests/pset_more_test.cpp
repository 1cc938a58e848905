// Additional polyhedral-substrate tests: space manipulation, set algebra,
// map domain/range, exactness propagation, overflow safety, scan-AST C
// emission, and randomized projection-vs-enumeration properties.

#include <gtest/gtest.h>

#include <set>

#include "pset/ast.h"
#include "pset/map.h"
#include "pset/set.h"
#include "support/rng.h"

namespace polypart::pset {
namespace {

TEST(SpaceMore, AddParamsAndRangeSpace) {
  Space s = Space::map({"N"}, {"i", "j"}, {"a"});
  Space wider = s.addParams({"p", "q"});
  EXPECT_EQ(wider.numParams(), 3u);
  EXPECT_EQ(wider.paramIndex("q"), 2u);
  EXPECT_EQ(wider.paramIndex("zzz"), Space::npos);
  Space range = s.rangeSpace();
  EXPECT_TRUE(range.isSet());
  EXPECT_EQ(range.numIn(), 1u);
  EXPECT_EQ(range.name(DimId::in(0)), "a");
  Space dom = s.domainSpace();
  EXPECT_EQ(dom.numIn(), 2u);
}

TEST(BasicSetMore, AlignToSpaceWidensParams) {
  Space narrow = Space::set({"N"}, {"i"});
  BasicSet bs(narrow);
  bs.addBounds(DimId::in(0), LinExpr(narrow), LinExpr::dim(narrow, DimId::param(0)));
  Space wide = narrow.addParams({"extra"});
  BasicSet aligned = bs.alignToSpace(wide);
  i64 params[] = {5, 999};
  i64 in4[] = {4}, in5[] = {5};
  EXPECT_TRUE(aligned.containsPoint(params, in4, {}));
  EXPECT_FALSE(aligned.containsPoint(params, in5, {}));
}

TEST(BasicSetMore, FixDimPinsValue) {
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 10));
  bs.addBounds(DimId::in(1), LinExpr(s), LinExpr::constant(s, 10));
  bs.fixDim(DimId::in(0), 3);
  i64 a[] = {3, 7}, b[] = {4, 7};
  EXPECT_TRUE(bs.containsPoint({}, a, {}));
  EXPECT_FALSE(bs.containsPoint({}, b, {}));
}

TEST(BasicSetMore, ProjectOutAllDimsLeavesParamConstraints) {
  // { [i] : 0 <= i < N } projected to params implies N >= 1.
  Space s = Space::set({"N"}, {"i"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  Proj p = bs.projectOutAllDims();
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.set.space().numIn(), 0u);
  i64 n0[] = {0}, n1[] = {1};
  EXPECT_FALSE(p.set.containsPoint(n0, {}, {}));
  EXPECT_TRUE(p.set.containsPoint(n1, {}, {}));
}

TEST(BasicSetMore, StrMentionsNamesAndConstraints) {
  Space s = Space::set({"N"}, {"i"});
  BasicSet bs(s);
  bs.addGe(LinExpr::dim(s, DimId::in(0)) * 2 - LinExpr::dim(s, DimId::param(0)));
  std::string str = bs.str();
  EXPECT_NE(str.find("[N] -> "), std::string::npos);
  EXPECT_NE(str.find("2*i"), std::string::npos);
  EXPECT_NE(str.find(">= 0"), std::string::npos);
}

TEST(BasicSetMore, OverflowInEliminationThrows) {
  Space s = Space::set({}, {"x", "y"});
  BasicSet bs(s);
  // Constraints with near-max coefficients: combining them must not wrap.
  LinExpr a(s);
  a.setCoef(s, DimId::in(0), INT64_MAX / 2);
  a.setCoef(s, DimId::in(1), 3);
  bs.addGe(a);
  LinExpr b(s);
  b.setCoef(s, DimId::in(0), -(INT64_MAX / 2 - 1));
  b.setCoef(s, DimId::in(1), 5);
  bs.addGe(b);
  EXPECT_THROW((void)bs.projectOut(DimKind::In, 0, 1), OverflowError);
}

TEST(SetMore, IntersectAndPrune) {
  Space s = Space::set({}, {"i"});
  BasicSet lowHalf(s);
  lowHalf.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 5));
  BasicSet highHalf(s);
  highHalf.addBounds(DimId::in(0), LinExpr::constant(s, 5), LinExpr::constant(s, 10));
  Set a(s), b(s);
  a.addPart(lowHalf);
  b.addPart(highHalf);
  Set inter = a.intersect(b);
  EXPECT_EQ(inter.emptiness(), Tri::Yes);

  Set uni = a.unionWith(b);
  EXPECT_EQ(uni.parts().size(), 2u);
  uni.pruneEmptyParts();
  EXPECT_EQ(uni.parts().size(), 2u);
  i64 p3[] = {3}, p7[] = {7}, p10[] = {10};
  EXPECT_TRUE(uni.containsPoint({}, p3));
  EXPECT_TRUE(uni.containsPoint({}, p7));
  EXPECT_FALSE(uni.containsPoint({}, p10));
}

TEST(SetMore, ExactnessPropagatesThroughOps) {
  Space s = Space::set({}, {"i", "j"});
  BasicSet bs(s);
  LinExpr i = LinExpr::dim(s, DimId::in(0));
  LinExpr j = LinExpr::dim(s, DimId::in(1));
  bs.addGe(j);
  bs.addGe(LinExpr::constant(s, 5) - j);
  bs.addEq(i - j * 2);  // projection of j is integer-inexact
  Set set(s);
  set.addPart(bs);
  Set projected = set.projectOut(DimKind::In, 1, 1);
  EXPECT_FALSE(projected.exact());
  // Union with an inexact set is inexact.
  Set exactSet = Set::universe(projected.space());
  EXPECT_TRUE(exactSet.exact());
  EXPECT_FALSE(exactSet.unionWith(projected).exact());
}

TEST(MapMore, DomainOfShiftMap) {
  Space s = Space::map({}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  bs.addEq(LinExpr::dim(s, DimId::out(0)) - LinExpr::dim(s, DimId::in(0)) -
           LinExpr::constant(s, 3));
  bs.addBounds(DimId::out(0), LinExpr::constant(s, 10), LinExpr::constant(s, 20));
  m.addPart(bs);
  Set dom = m.domain();
  // a in [10, 20) <=> i in [7, 17).
  i64 i7[] = {7}, i16[] = {16}, i17[] = {17}, i6[] = {6};
  EXPECT_TRUE(dom.containsPoint({}, i7));
  EXPECT_TRUE(dom.containsPoint({}, i16));
  EXPECT_FALSE(dom.containsPoint({}, i17));
  EXPECT_FALSE(dom.containsPoint({}, i6));
}

TEST(MapMore, InjectivityWithParamContext) {
  // { [i] -> [i + N] } is injective for any N (translation).
  Space s = Space::map({"N"}, {"i"}, {"a"});
  Map m(s);
  BasicSet bs(s);
  bs.addEq(LinExpr::dim(s, DimId::out(0)) - LinExpr::dim(s, DimId::in(0)) -
           LinExpr::dim(s, DimId::param(0)));
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 100));
  m.addPart(bs);
  BasicSet ctx(Space::set({"N"}, {}));
  EXPECT_EQ(m.isInjective(ctx), Tri::Yes);
}

TEST(MapMore, TwoPartUnionInjectivity) {
  // Parts { [i] -> [2i] } and { [i] -> [2i+1] } are individually and jointly
  // injective (disjoint images).
  Space s = Space::map({}, {"i"}, {"a"});
  Map m(s);
  for (int off = 0; off < 2; ++off) {
    BasicSet bs(s);
    LinExpr a = LinExpr::dim(s, DimId::out(0));
    LinExpr i = LinExpr::dim(s, DimId::in(0));
    bs.addEq(a - i * 2 - LinExpr::constant(s, off));
    bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 50));
    m.addPart(bs);
  }
  BasicSet ctx(Space::set({}, {}));
  EXPECT_EQ(m.isInjective(ctx), Tri::Yes);

  // Shifting the second part to overlap the first breaks injectivity.
  Map bad(s);
  for (int off : {0, 2}) {
    BasicSet bs(s);
    LinExpr a = LinExpr::dim(s, DimId::out(0));
    LinExpr i = LinExpr::dim(s, DimId::in(0));
    bs.addEq(a - i * 2 - LinExpr::constant(s, off));
    bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 50));
    bad.addPart(bs);
  }
  // The conflict system needs a divisibility argument (2i == 2i' + 2), which
  // rational FM cannot decide exactly: the check must at least refuse to
  // claim injectivity (No or Unknown are both sound rejections).
  EXPECT_NE(bad.isInjective(ctx), Tri::Yes);
}

TEST(AstMore, ScanToCEmitsLoopNest) {
  Space s = Space::set({"N"}, {"y", "x"});
  BasicSet bs(s);
  bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  bs.addBounds(DimId::in(1), LinExpr(s), LinExpr::dim(s, DimId::param(0)));
  ScanNest nest = buildScan(bs);
  std::string c = scanToC(nest, {"N"}, "emit_range");
  EXPECT_NE(c.find("for (int64_t d0 ="), std::string::npos);
  EXPECT_NE(c.find("emit_range(ctx, d0, lo, hi);"), std::string::npos);
  EXPECT_NE(c.find("N"), std::string::npos);
}

TEST(AstMore, UnboundedDimensionRejected) {
  Space s = Space::set({}, {"i"});
  BasicSet bs(s);
  bs.addGe(LinExpr::dim(s, DimId::in(0)));  // i >= 0, no upper bound
  EXPECT_THROW(buildScan(bs), UnsupportedKernelError);
}

TEST(AstMore, ExprEvalAndPrinting) {
  AstExpr e = AstExpr::maxOf({AstExpr::constant(3),
                              AstExpr::ceilDiv(AstExpr::param(0), 4)});
  i64 params[] = {10};
  EXPECT_EQ(e.eval(params, {}), 3);
  i64 params2[] = {30};
  EXPECT_EQ(e.eval(params2, {}), 8);
  std::string s = e.str({"n"});
  EXPECT_NE(s.find("max("), std::string::npos);
  EXPECT_NE(s.find("ceild"), std::string::npos);
  EXPECT_NE(s.find("n"), std::string::npos);
}

TEST(AstMore, ConstantFoldingInFactories) {
  EXPECT_EQ(AstExpr::add(AstExpr::constant(2), AstExpr::constant(3)).value(), 5);
  EXPECT_EQ(AstExpr::mul(AstExpr::constant(0), AstExpr::param(3)).value(), 0);
  EXPECT_EQ(AstExpr::floorDiv(AstExpr::constant(-7), 2).value(), -4);
  EXPECT_EQ(AstExpr::ceilDiv(AstExpr::constant(-7), 2).value(), -3);
  // x * 1 and x + 0 collapse to x.
  AstExpr x = AstExpr::loopVar(0);
  EXPECT_EQ(AstExpr::mul(x, AstExpr::constant(1)).kind(), AstExpr::Kind::LoopVar);
  EXPECT_EQ(AstExpr::add(AstExpr::constant(0), x).kind(), AstExpr::Kind::LoopVar);
}

/// Randomized property: projection is a sound over-approximation, and exact
/// projections match brute-force enumeration.
TEST(ProjectionProperty, SoundAndExactWhenClaimed) {
  Rng rng(555);
  for (int iter = 0; iter < 120; ++iter) {
    Space s = Space::set({}, {"i", "j"});
    BasicSet bs(s);
    bs.addBounds(DimId::in(0), LinExpr::constant(s, -4), LinExpr::constant(s, 5));
    bs.addBounds(DimId::in(1), LinExpr::constant(s, -4), LinExpr::constant(s, 5));
    for (int k = 0; k < 2; ++k) {
      LinExpr e(s);
      e.setCoef(s, DimId::in(0), rng.range(-3, 3));
      e.setCoef(s, DimId::in(1), rng.range(-3, 3));
      e.addConstant(rng.range(-5, 9));
      if (rng.chance(0.25))
        bs.addEq(std::move(e));
      else
        bs.addGe(std::move(e));
    }
    BasicSet original = bs;
    Proj p = bs.projectOut(DimKind::In, 1, 1);

    std::set<i64> truth;
    for (i64 i = -4; i < 5; ++i)
      for (i64 j = -4; j < 5; ++j) {
        i64 ins[] = {i, j};
        if (original.containsPoint({}, ins, {})) truth.insert(i);
      }
    for (i64 i = -4; i < 5; ++i) {
      i64 ins[] = {i};
      bool inProj = p.set.containsPoint({}, ins, {});
      if (truth.count(i)) {
        EXPECT_TRUE(inProj) << "projection lost i=" << i << " of " << original.str();
      } else if (p.exact) {
        EXPECT_FALSE(inProj) << "exact projection gained i=" << i << " of "
                             << original.str();
      }
    }
  }
}

/// Randomized property: Map::range() over-approximates the true image and is
/// exact when it says so.
TEST(ProjectionProperty, RangeMatchesImage) {
  Rng rng(901);
  for (int iter = 0; iter < 80; ++iter) {
    Space s = Space::map({}, {"i"}, {"a"});
    Map m(s);
    BasicSet bs(s);
    bs.addBounds(DimId::in(0), LinExpr(s), LinExpr::constant(s, 8));
    LinExpr a = LinExpr::dim(s, DimId::out(0));
    LinExpr i = LinExpr::dim(s, DimId::in(0));
    i64 scale = rng.range(1, 3);
    i64 off = rng.range(-3, 3);
    bs.addEq(a - i * scale - LinExpr::constant(s, off));
    m.addPart(bs);
    Set r = m.range();

    std::set<i64> truth;
    for (i64 ii = 0; ii < 8; ++ii) truth.insert(ii * scale + off);
    for (i64 v = -10; v < 30; ++v) {
      i64 outs[] = {v};
      bool inRange = r.containsPoint({}, outs);
      if (truth.count(v)) {
        EXPECT_TRUE(inRange) << "scale " << scale;
      } else if (r.exact()) {
        EXPECT_FALSE(inRange) << "scale " << scale << " v " << v;
      }
    }
  }
}

}  // namespace
}  // namespace polypart::pset
