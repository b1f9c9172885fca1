#include "algebra/compile.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "corpus/workload.h"
#include "mapping/loader.h"
#include "mapping/schema_compiler.h"
#include "oql/oql.h"
#include "sgml/goldens.h"

namespace sgmlqdb::algebra {
namespace {

using calculus::AttrVar;
using calculus::DataTerm;
using calculus::DataVar;
using calculus::EvalContext;
using calculus::Formula;
using calculus::PathTerm;
using calculus::PathVar;
using calculus::Query;
using om::Value;
using om::ValueKind;

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : dtd_(ParseOrDie()), db_(CompileOrDie(dtd_)) {
    auto l1 =
        mapping::LoadDocumentText(dtd_, sgml::ArticleDocumentText(), &db_);
    EXPECT_TRUE(l1.ok()) << l1.status();
    auto l2 =
        mapping::LoadDocumentText(dtd_, sgml::ArticleDocumentV2Text(), &db_);
    EXPECT_TRUE(l2.ok()) << l2.status();
    EXPECT_TRUE(db_.BindName("my_article", Value::Object(l1->root)).ok());
    for (const auto& [oid, text] : l1->element_texts) {
      texts_[oid.id()] = text;
    }
    for (const auto& [oid, text] : l2->element_texts) {
      texts_[oid.id()] = text;
    }
    ctx_.db = &db_;
    ctx_.element_texts = &texts_;
  }

  static sgml::Dtd ParseOrDie() {
    auto r = sgml::ParseDtd(sgml::ArticleDtdText());
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  static om::Database CompileOrDie(const sgml::Dtd& dtd) {
    auto schema = mapping::CompileDtdToSchema(dtd);
    EXPECT_TRUE(schema.ok()) << schema.status();
    EXPECT_TRUE(
        schema->AddName("my_article", om::Type::Class("Article")).ok());
    return om::Database(std::move(schema).value());
  }

  /// Asserts naive and algebraic evaluation agree, returns the result.
  Value BothAgree(const Query& q) {
    auto naive = calculus::EvaluateQuery(ctx_, q);
    EXPECT_TRUE(naive.ok()) << naive.status();
    auto algebraic = EvaluateAlgebraic(ctx_, db_.schema(), q);
    EXPECT_TRUE(algebraic.ok()) << algebraic.status();
    if (naive.ok() && algebraic.ok()) {
      EXPECT_EQ(naive.value(), algebraic.value())
          << "naive:     " << naive.value() << "\nalgebraic: "
          << algebraic.value() << "\nquery: " << q.ToString();
    }
    return naive.ok() ? std::move(naive).value() : Value::Nil();
  }

  sgml::Dtd dtd_;
  om::Database db_;
  std::map<uint64_t, std::string> texts_;
  EvalContext ctx_;
};

TEST_F(AlgebraTest, MembershipScan) {
  Query q;
  q.head = {DataVar("X")};
  q.body = Formula::In(DataTerm::Var("X"), DataTerm::Name("Articles"));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(AlgebraTest, ConstantAttributeNavigation) {
  // { S | X in Articles, <X -> .status (S)> }
  Query q;
  q.head = {DataVar("S")};
  q.body = Formula::Exists(
      {DataVar("X")},
      Formula::And(
          {Formula::In(DataTerm::Var("X"), DataTerm::Name("Articles")),
           Formula::PathPred(DataTerm::Var("X"),
                             PathTerm::Deref() + PathTerm::Attr("status") +
                                 PathTerm::Capture("S"))}));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 2u);  // "final" and "draft"
}

TEST_F(AlgebraTest, Q3TitlesViaPathVariable) {
  Query q;
  q.head = {DataVar("T")};
  q.body = Formula::Exists(
      {PathVar("P")},
      Formula::PathPred(DataTerm::Name("my_article"),
                        PathTerm::Var("P") + PathTerm::Attr("title") +
                            PathTerm::Capture("T")));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 3u);
}

TEST_F(AlgebraTest, PathValuesThemselvesAgree) {
  Query q;
  q.head = {PathVar("P")};
  q.body = Formula::PathPred(DataTerm::Name("my_article"),
                             PathTerm::Var("P") + PathTerm::Attr("title"));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 3u);
}

TEST_F(AlgebraTest, AttributeVariableExpansion) {
  // Q5 shape with a contains filter.
  Query q;
  q.head = {AttrVar("A")};
  q.body = Formula::Exists(
      {PathVar("P"), DataVar("X")},
      Formula::And(
          {Formula::PathPred(DataTerm::Name("my_article"),
                             PathTerm::Var("P") +
                                 PathTerm::AttrVariable("A") +
                                 PathTerm::Capture("X")),
           Formula::Interpreted(
               "contains",
               {DataTerm::Var("X"),
                DataTerm::Const(Value::String("\"final\""))})}));
  Value r = BothAgree(q);
  bool found_status = false;
  for (size_t i = 0; i < r.size(); ++i) {
    if (r.Element(i) == Value::String("status")) found_status = true;
  }
  EXPECT_TRUE(found_status);
}

TEST_F(AlgebraTest, IndexVariableBinding) {
  // { I | <my_article -> .sections [I]> }
  Query q;
  q.head = {DataVar("I")};
  q.body = Formula::PathPred(
      DataTerm::Name("my_article"),
      PathTerm::Deref() + PathTerm::Attr("sections") +
          PathTerm::IndexVariable("I"));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 2u);  // indices 0 and 1
}

TEST_F(AlgebraTest, UnionAlternativeNavigationDropsWrongVariant) {
  // Sections reached through .a2.subsectns: none in the Fig. 2 doc —
  // the variant selection drops a1 sections instead of failing.
  Query q;
  q.head = {DataVar("SS")};
  q.body = Formula::Exists(
      {DataVar("I")},
      Formula::PathPred(
          DataTerm::Name("my_article"),
          PathTerm::Deref() + PathTerm::Attr("sections") +
              PathTerm::IndexVariable("I") + PathTerm::Deref() +
              PathTerm::Attr("a2") + PathTerm::Attr("subsectns") +
              PathTerm::Capture("SS")));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(AlgebraTest, FilterWithComparison) {
  // Articles with more than 3 authors (both have 4).
  Query q;
  q.head = {DataVar("X")};
  q.body = Formula::Exists(
      {DataVar("AS")},
      Formula::And(
          {Formula::In(DataTerm::Var("X"), DataTerm::Name("Articles")),
           Formula::PathPred(DataTerm::Var("X"),
                             PathTerm::Deref() + PathTerm::Attr("authors") +
                                 PathTerm::Capture("AS")),
           Formula::Less(DataTerm::Const(Value::Integer(3)),
                         DataTerm::Function("count",
                                            {DataTerm::Var("AS")}))}));
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(AlgebraTest, NegatedPathPredicateAsFilter) {
  // Articles without subsections anywhere: both Fig. 2 docs qualify.
  Query q;
  q.head = {DataVar("X")};
  q.body = Formula::And(
      {Formula::In(DataTerm::Var("X"), DataTerm::Name("Articles")),
       Formula::Not(Formula::Exists(
           {PathVar("P")},
           Formula::PathPred(DataTerm::Var("X"),
                             PathTerm::Var("P") +
                                 PathTerm::Attr("subsectns"))))});
  Value r = BothAgree(q);
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(AlgebraTest, EqualityBinding) {
  Query q;
  q.head = {DataVar("X")};
  q.body = Formula::Eq(DataTerm::Var("X"),
                       DataTerm::Const(Value::Integer(42)));
  Value r = BothAgree(q);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Element(0), Value::Integer(42));
}

TEST_F(AlgebraTest, MultiVariableHeadTuples) {
  // { (A, X) | <my_article -> .A (X)>, A attr var } — pairs.
  Query q;
  q.head = {AttrVar("A"), DataVar("X")};
  q.body = Formula::PathPred(
      DataTerm::Name("my_article"),
      PathTerm::Deref() + PathTerm::AttrVariable("A") +
          PathTerm::Capture("X"));
  Value r = BothAgree(q);
  // One row per Article attribute (7: title..acknowl + status).
  EXPECT_EQ(r.size(), 7u);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.Element(i).kind(), ValueKind::kTuple);
    EXPECT_EQ(r.Element(i).FieldName(0), "A");
  }
}

TEST_F(AlgebraTest, CompiledPlanShape) {
  Query q;
  q.head = {DataVar("T")};
  q.body = Formula::Exists(
      {PathVar("P")},
      Formula::PathPred(DataTerm::Name("my_article"),
                        PathTerm::Var("P") + PathTerm::Attr("title") +
                            PathTerm::Capture("T")));
  auto compiled = CompileQuery(db_.schema(), q);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // The schema-guided expansion produced multiple branches (one per
  // schema path), i.e. the §5.4 "union of queries".
  EXPECT_GT(compiled->branch_count, 1u);
  std::string plan = PlanToString(compiled->plan);
  EXPECT_NE(plan.find("UnionAll"), std::string::npos) << plan;
  EXPECT_NE(plan.find("RootScan my_article"), std::string::npos) << plan;
  EXPECT_NE(plan.find("AttrStep"), std::string::npos) << plan;
}

TEST_F(AlgebraTest, BranchCountGrowsWithSchemaNotData) {
  // Compiling against the schema alone: no data access. Verify the
  // compile step succeeds on an empty database too.
  auto schema = mapping::CompileDtdToSchema(dtd_);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(
      schema->AddName("my_article", om::Type::Class("Article")).ok());
  Query q;
  q.head = {PathVar("P")};
  q.body = Formula::PathPred(DataTerm::Name("my_article"),
                             PathTerm::Var("P") + PathTerm::Attr("title"));
  auto compiled = CompileQuery(schema.value(), q);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_GE(compiled->branch_count, 4u);  // article/sections a1/a2/subsectn
}

TEST_F(AlgebraTest, Q8SharesTheSectionsUnnestAcrossBranches) {
  // The §5.4 expansion plans each schema-path prefix once: the
  // `.sections[*]` unnest the status-reaching branches start with is
  // one node object that several union branches reach, optimizer on
  // or off.
  for (bool optimize : {false, true}) {
    oql::OqlOptions options;
    options.engine = oql::Engine::kAlgebraic;
    options.optimize = optimize;
    auto prepared = oql::Prepare(
        db_.schema(), corpus::PaperQuery("Q8_CountByStatus").text, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    ASSERT_TRUE(prepared->compiled.has_value());
    EXPECT_GT(prepared->compiled->branch_count, 1u);
    // Every node object, and how many union branches reach it.
    const PlanPtr& union_all = prepared->compiled->plan->children()[0];
    ASSERT_EQ(union_all->kind(), NodeKind::kUnionAll);
    std::map<const Node*, size_t> branches_reaching;
    for (const PlanPtr& branch : union_all->children()) {
      std::set<const Node*> seen;
      std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
        if (!seen.insert(node.get()).second) return;
        ++branches_reaching[node.get()];
        for (const PlanPtr& c : node->children()) walk(c);
      };
      walk(branch);
    }
    std::vector<const Node*> unnests;
    for (const auto& [node, count] : branches_reaching) {
      if (node->kind() == NodeKind::kUnnestList &&
          node->children()[0]->kind() == NodeKind::kAttrStep &&
          node->children()[0]->Describe().find(".sections ") !=
              std::string::npos) {
        unnests.push_back(node);
      }
    }
    ASSERT_EQ(unnests.size(), 1u) << PlanToString(prepared->compiled->plan);
    EXPECT_GT(branches_reaching[unnests[0]], 1u) << "optimize=" << optimize;
  }
}

TEST_F(AlgebraTest, TrackedPathIsBuiltOncePerBranchAfterItsLastStep) {
  // `select PATH_p` keeps the path: one BuildPath per branch, above the
  // predicate's trailing `.title` step, printing its step template.
  Query q;
  q.head = {PathVar("P")};
  q.body = Formula::PathPred(DataTerm::Name("my_article"),
                             PathTerm::Var("P") + PathTerm::Attr("title"));
  auto compiled = CompileQuery(db_.schema(), q);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const PlanPtr& union_all = compiled->plan->children()[0];
  ASSERT_EQ(union_all->kind(), NodeKind::kUnionAll);
  for (const PlanPtr& branch : union_all->children()) {
    // Project <- BuildPath <- AttrStep .title.
    const PlanPtr& build = branch->children()[0];
    ASSERT_EQ(build->kind(), NodeKind::kBuildPath) << PlanToString(branch);
    EXPECT_EQ(build->children()[0]->kind(), NodeKind::kAttrStep);
  }
  std::string plan = PlanToString(compiled->plan);
  EXPECT_NE(plan.find("BuildPath ->Article.sections[__c"), std::string::npos)
      << plan;
}

TEST(AlgebraSetPathTest, TrackedPathsThroughSetElementsAgree) {
  // The paper DTDs have no sets; a hand-built schema does. A tracked
  // path through {*} carries the element itself, filled from the
  // unnest's own column.
  om::Schema schema;
  ASSERT_TRUE(schema
                  .AddClass({"Tag", om::Type::Tuple({{"name", om::Type::String()}}),
                             {}, {}, {}})
                  .ok());
  ASSERT_TRUE(
      schema
          .AddClass({"Doc",
                     om::Type::Tuple(
                         {{"tags", om::Type::Set(om::Type::Class("Tag"))},
                          {"parts", om::Type::List(om::Type::Class("Tag"))}}),
                     {}, {}, {}})
          .ok());
  ASSERT_TRUE(schema.AddName("D", om::Type::Class("Doc")).ok());
  om::Database db(std::move(schema));
  auto tag = [&db](const char* name) {
    return Value::Object(
        db.NewObject("Tag", Value::Tuple({{"name", Value::String(name)}}))
            .value());
  };
  Value a = tag("a"), b = tag("b"), c = tag("c");
  auto doc = db.NewObject(
      "Doc", Value::Tuple({{"tags", Value::Set({a, b})},
                           {"parts", Value::List({c, a})}}));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(db.BindName("D", Value::Object(*doc)).ok());
  EvalContext ctx;
  ctx.db = &db;

  Query q;
  q.head = {PathVar("P"), DataVar("X")};
  q.body = Formula::PathPred(
      DataTerm::Name("D"),
      PathTerm::Var("P") + PathTerm::Attr("name") + PathTerm::Capture("X"));
  auto naive = calculus::EvaluateQuery(ctx, q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  auto algebraic = EvaluateAlgebraic(ctx, db.schema(), q);
  ASSERT_TRUE(algebraic.ok()) << algebraic.status();
  EXPECT_EQ(naive.value(), algebraic.value());
  // Two set elements plus two list elements reach a `name`.
  EXPECT_EQ(naive->size(), 4u) << naive.value();
}

}  // namespace
}  // namespace sgmlqdb::algebra
