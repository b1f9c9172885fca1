// Direct tests of the algebra operators (ops.h), independent of the
// compiler.

#include "algebra/ops.h"

#include <gtest/gtest.h>

#include "om/database.h"

namespace sgmlqdb::algebra {
namespace {

using om::Database;
using om::ObjectId;
using om::Schema;
using om::Type;
using om::Value;

class OpsTest : public ::testing::Test {
 protected:
  OpsTest() : db_(MakeSchema()) {
    title_ = db_.NewObject("Title",
                           Value::Tuple({{"content", Value::String("T1")}}))
                 .value();
    Value article = Value::Tuple(
        {{"title", Value::Object(title_)},
         {"tags", Value::Set({Value::String("db"), Value::String("sgml")})},
         {"sections",
          Value::List({Value::Tuple({{"n", Value::Integer(1)}}),
                       Value::Tuple({{"n", Value::Integer(2)}})})}});
    EXPECT_TRUE(db_.BindName("Doc", article).ok());
    ctx_.calculus = &calc_ctx_;
    calc_ctx_.db = &db_;
  }

  static Schema MakeSchema() {
    Schema s;
    EXPECT_TRUE(
        s.AddClass({"Title", Type::Tuple({{"content", Type::String()}}),
                    {}, {}, {}})
            .ok());
    EXPECT_TRUE(s.AddName("Doc", Type::Any()).ok());
    return s;
  }

  std::vector<Row> Run(const PlanPtr& plan) {
    std::vector<Row> rows;
    Status st = plan->Execute(ctx_, &rows);
    EXPECT_TRUE(st.ok()) << st;
    return rows;
  }

  Database db_;
  ObjectId title_;
  calculus::EvalContext calc_ctx_;
  ExecContext ctx_;
};

TEST_F(OpsTest, RootScanAndAttrStep) {
  auto rows = Run(AttrStep(RootScan("Doc", "d"), "d", "title", "t"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("t"), Value::Object(title_));
}

TEST_F(OpsTest, AttrStepDropsMissingAttribute) {
  auto rows = Run(AttrStep(RootScan("Doc", "d"), "d", "missing", "x"));
  EXPECT_TRUE(rows.empty());
}

TEST_F(OpsTest, DerefAndClassFilter) {
  auto plan = AttrStep(RootScan("Doc", "d"), "d", "title", "t");
  auto rows = Run(DerefStep(ClassFilter(plan, "t", "Title"), "t", "tv"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(*rows[0].at("tv").FindField("content"), Value::String("T1"));
  // Wrong class filters everything.
  EXPECT_TRUE(Run(ClassFilter(plan, "t", "Bogus")).empty());
}

TEST_F(OpsTest, UnnestListWithPositionsAndPaths) {
  auto plan = AttrStep(RootScan("Doc", "d"), "d", "sections", "ss");
  plan = UnnestList(plan, "ss", "s", "i");
  plan = BuildPath(plan, "p",
                   {path::SchemaStep::Attr("sections"),
                    path::SchemaStep::IndexAny()},
                   {"i"});
  auto rows = Run(plan);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("i"), Value::Integer(0));
  EXPECT_EQ(rows[1].at("i"), Value::Integer(1));
  auto p = path::Path::FromValue(rows[1].at("p"));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), ".sections[1]");
  EXPECT_EQ(plan->Describe(), "BuildPath .sections[i] -> p");
}

TEST_F(OpsTest, UnnestSetEnumeratesElements) {
  auto plan = AttrStep(RootScan("Doc", "d"), "d", "tags", "ts");
  auto rows = Run(UnnestSet(plan, "ts", "tag"));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(OpsTest, BuildPathEncodesSetElementsAndDerefs) {
  // {*} takes the element from its slot column; -> and .a come from
  // the template. The encoding is Path::ToValue's.
  auto plan = AttrStep(RootScan("Doc", "d"), "d", "tags", "ts");
  plan = UnnestSet(plan, "ts", "tag");
  plan = BuildPath(plan, "p",
                   {path::SchemaStep::Attr("tags"), path::SchemaStep::SetAny(),
                    path::SchemaStep::Deref("Title")},
                   {"tag"});
  auto rows = Run(plan);
  ASSERT_EQ(rows.size(), 2u);
  path::Path expected({path::PathStep::Attr("tags"),
                       path::PathStep::SetElem(rows[0].at("tag")),
                       path::PathStep::Deref()});
  EXPECT_EQ(rows[0].at("p"), expected.ToValue());
  // A row without its slot column is dropped.
  auto missing = BuildPath(RootScan("Doc", "d"), "p",
                           {path::SchemaStep::IndexAny()}, {"nope"});
  EXPECT_TRUE(Run(missing).empty());
}

TEST_F(OpsTest, IndexStepOutOfRangeDrops) {
  auto plan = AttrStep(RootScan("Doc", "d"), "d", "sections", "ss");
  EXPECT_EQ(Run(IndexStep(plan, "ss", 1, "s")).size(), 1u);
  EXPECT_TRUE(Run(IndexStep(plan, "ss", 9, "s")).empty());
}

TEST_F(OpsTest, BindOrCheckJoinsOnEquality) {
  auto plan = ConstCol(ConstCol(Unit(), "a", Value::Integer(1)), "b",
                       Value::Integer(1));
  EXPECT_EQ(Run(BindOrCheck(plan, "a", "b")).size(), 1u);
  auto plan2 = ConstCol(ConstCol(Unit(), "a", Value::Integer(1)), "b",
                        Value::Integer(2));
  EXPECT_TRUE(Run(BindOrCheck(plan2, "a", "b")).empty());
  // Fresh destination binds.
  auto rows = Run(BindOrCheck(ConstCol(Unit(), "a", Value::Integer(7)),
                              "a", "fresh"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("fresh"), Value::Integer(7));
}

TEST_F(OpsTest, UnionAllConcatenatesAndDistinctDedups) {
  auto one = ConstCol(Unit(), "x", Value::Integer(1));
  auto also_one = ConstCol(Unit(), "x", Value::Integer(1));
  auto two = ConstCol(Unit(), "x", Value::Integer(2));
  auto rows = Run(UnionAll({one, also_one, two}));
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(Run(Distinct(UnionAll({one, also_one, two}))).size(), 2u);
}

TEST_F(OpsTest, AntiSemiJoinRemovesMatches) {
  auto left = UnionAll({ConstCol(Unit(), "x", Value::Integer(1)),
                        ConstCol(Unit(), "x", Value::Integer(2))});
  auto right = ConstCol(Unit(), "x", Value::Integer(1));
  auto rows = Run(AntiSemiJoin(left, right, {"x"}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("x"), Value::Integer(2));
}

TEST_F(OpsTest, CrossProductMergesColumns) {
  auto left = ConstCol(Unit(), "a", Value::Integer(1));
  auto right = UnionAll({ConstCol(Unit(), "b", Value::Integer(10)),
                         ConstCol(Unit(), "b", Value::Integer(20))});
  auto rows = Run(CrossProduct(left, right));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("a"), Value::Integer(1));
  EXPECT_EQ(rows[1].at("b"), Value::Integer(20));
}

TEST_F(OpsTest, ProjectKeepsOnlyRequestedColumns) {
  auto plan = ConstCol(ConstCol(Unit(), "a", Value::Integer(1)), "b",
                       Value::Integer(2));
  auto rows = Run(Project(plan, {"b"}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0].count("b"), 1u);
}

TEST_F(OpsTest, FilterUsesCalculusFormula) {
  auto plan = UnionAll({ConstCol(Unit(), "x", Value::Integer(1)),
                        ConstCol(Unit(), "x", Value::Integer(5))});
  auto formula = calculus::Formula::Less(
      calculus::DataTerm::Var("x"),
      calculus::DataTerm::Const(Value::Integer(3)));
  std::map<std::string, calculus::Sort> sorts = {
      {"x", calculus::Sort::kData}};
  auto rows = Run(Filter(plan, formula, sorts));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("x"), Value::Integer(1));
}

TEST_F(OpsTest, ComputeEvaluatesTermsPerRow) {
  auto plan = ConstCol(Unit(), "xs",
                       Value::List({Value::Integer(4), Value::Integer(5)}));
  auto term = calculus::DataTerm::Function(
      "count", {calculus::DataTerm::Var("xs")});
  auto rows = Run(Compute(plan, "n", term, {{"xs", calculus::Sort::kData}}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("n"), Value::Integer(2));
}

TEST_F(OpsTest, PlanToStringRendersTree) {
  auto plan = Distinct(AttrStep(RootScan("Doc", "d"), "d", "title", "t"));
  std::string s = PlanToString(plan);
  EXPECT_NE(s.find("Distinct"), std::string::npos);
  EXPECT_NE(s.find("AttrStep d .title -> t"), std::string::npos);
  EXPECT_NE(s.find("RootScan Doc -> d"), std::string::npos);
}

TEST_F(OpsTest, SharedPrefixMemoization) {
  // The same node object consumed by two parents computes once (the
  // memo makes results identical; observable via the memo map).
  auto shared = AttrStep(RootScan("Doc", "d"), "d", "sections", "ss");
  auto left = UnnestList(shared, "ss", "s1");
  auto right = UnnestList(shared, "ss", "s2");
  auto rows = Run(UnionAll({left, right}));
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_GE(ctx_.memo->size(), 1u);
}

}  // namespace
}  // namespace sgmlqdb::algebra
