#include "oql/oql.h"

#include <gtest/gtest.h>

#include "core/document_store.h"
#include "oql/parser.h"
#include "sgml/goldens.h"

namespace sgmlqdb::oql {
namespace {

using om::Value;
using om::ValueKind;

/// Fig. 2 article + v2 loaded through the facade.
class OqlTest : public ::testing::Test {
 protected:
  OqlTest() {
    EXPECT_TRUE(store_.LoadDtd(sgml::ArticleDtdText()).ok());
    auto a1 = store_.LoadDocument(sgml::ArticleDocumentText(), "my_article");
    EXPECT_TRUE(a1.ok()) << a1.status();
    auto a2 =
        store_.LoadDocument(sgml::ArticleDocumentV2Text(), "my_old_article");
    EXPECT_TRUE(a2.ok()) << a2.status();
  }

  /// Runs the statement under both engines, the algebraic one with the
  /// optimizer on and off, and checks all three agree.
  Value Run(std::string_view q) {
    auto naive = store_.Query(q, Engine::kNaive);
    EXPECT_TRUE(naive.ok()) << naive.status() << "\nquery: " << q;
    for (bool optimize : {true, false}) {
      DocumentStore::QueryOptions options;
      options.engine = Engine::kAlgebraic;
      options.optimize = optimize;
      auto algebraic = store_.Query(q, options);
      EXPECT_TRUE(algebraic.ok())
          << algebraic.status() << "\nquery: " << q << " optimize=" << optimize;
      if (naive.ok() && algebraic.ok()) {
        EXPECT_EQ(naive.value(), algebraic.value())
            << "query: " << q << " optimize=" << optimize;
      }
    }
    return naive.ok() ? std::move(naive).value() : Value::Nil();
  }

  DocumentStore store_;
};

TEST_F(OqlTest, Q1TitleAndFirstAuthor) {
  // Paper Q1, verbatim modulo whitespace.
  Value r = Run(
      "select tuple (t: a.title, f_author: first(a.authors)) "
      "from a in Articles, s in a.sections "
      "where s.title contains (\"SGML\" and \"OODBMS\")");
  // No section title contains both words -> empty.
  EXPECT_EQ(r.size(), 0u);

  // Relax the pattern so the Fig. 2 "SGML preliminaries" section hits.
  Value r2 = Run(
      "select tuple (t: a.title, f_author: first(a.authors)) "
      "from a in Articles, s in a.sections "
      "where s.title contains (\"SGML\")");
  ASSERT_EQ(r2.size(), 1u);
  Value row = r2.Element(0);
  ASSERT_EQ(row.kind(), ValueKind::kTuple);
  EXPECT_EQ(row.FieldName(0), "t");
  EXPECT_EQ(row.FieldName(1), "f_author");
  // f_author is the first Author object of the matching article.
  EXPECT_EQ(row.FieldValue(1).kind(), ValueKind::kObject);
}

TEST_F(OqlTest, Q1ImplicitSelectorOnSectionTitle) {
  // `s.title` goes through the Section union's implicit selector: the
  // section value is [a1: tuple(title: ..., bodies: ...)].
  Value r = Run(
      "select text(s.title) from a in Articles, s in a.sections "
      "where s.title contains (\"preliminaries\")");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Element(0), Value::String("SGML preliminaries"));
}

TEST_F(OqlTest, Q2SubsectionsViaImplicitSelector) {
  // Paper Q2 shape: subsections whose text contains a sentence. The
  // Fig. 2 docs have no subsections; load one that does.
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::ArticleDtdText()).ok());
  ASSERT_TRUE(store
                  .LoadDocument(R"(<article>
<title>T</title><author>A<affil>F</affil><abstract>Ab</abstract>
<section><title>S</title>
  <subsectn><title>SS</title><body><paragr>about complex object
  models</paragr></body></subsectn>
</section>
<acknowl>x</acknowl></article>)")
                  .ok());
  auto r = store.Query(
      "select text(ss) from a in Articles, s in a.sections, "
      "ss in s.subsectns where ss contains (\"complex object\")");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 1u);
}

TEST_F(OqlTest, Q3AllTitlesWithDotDotSugar) {
  // Paper Q3 with the syntactic sugar: from my_article .. title(t).
  Value r = Run("select t from my_article .. title(t)");
  EXPECT_EQ(r.size(), 3u);  // article title + 2 section titles
}

TEST_F(OqlTest, Q3AllTitlesWithExplicitPathVariable) {
  Value r = Run("select t from my_article PATH_p.title(t)");
  EXPECT_EQ(r.size(), 3u);
  // And the paths themselves are queryable.
  Value paths = Run("select PATH_p from my_article PATH_p.title(t)");
  EXPECT_EQ(paths.size(), 3u);
  // Tracked paths through list indices and derefs, ending deep in the
  // bodies (IDREF attributes) or beside their capture.
  Value deep = Run("select PATH_p from my_article PATH_p.reflabel(r)");
  EXPECT_GT(deep.size(), 0u);
  for (size_t i = 0; i < deep.size(); ++i) {
    auto p = path::Path::FromValue(deep.Element(i));
    ASSERT_TRUE(p.ok()) << deep.Element(i);
    EXPECT_NE(p->ToString().find("[0]"), std::string::npos) << *p;
  }
  Run("select tuple(p: PATH_p, t: t) from my_article PATH_p.title(t)");
  Run("select PATH_p from a in Articles, a PATH_p.caption(c)");
  // Group-by over `..` (the anonymous path is tracked: every scope
  // variable is a distinct-binding column) and over a path function.
  Run("select count(t) from my_article .. title(t) group by t");
  Run("select count(a) from a in Articles, a PATH_p.title(t) "
      "group by length(PATH_p)");
}

TEST_F(OqlTest, Q4StructuralDifference) {
  // Paper Q4, verbatim: a bare expression, no select block.
  Value r = Run("my_article PATH_p - my_old_article PATH_p");
  ASSERT_EQ(r.kind(), ValueKind::kSet);
  EXPECT_GT(r.size(), 0u);
  // Every element is a path value.
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_TRUE(path::Path::FromValue(r.Element(i)).ok());
  }
  // The reverse difference is empty: v2 only drops a section and
  // edits text, so its structure is a subset of v1's — text changes
  // leave the path set untouched (the paper: "supplementary
  // conditions on data would allow the detection of possible
  // updates").
  Value rev = Run("my_old_article PATH_p - my_article PATH_p");
  EXPECT_EQ(rev.size(), 0u);
}

TEST_F(OqlTest, Q5AttributeGrep) {
  // Paper Q5, verbatim.
  Value r = Run(
      "select name(ATT_a) from my_article PATH_p.ATT_a(val) "
      "where val contains (\"final\")");
  bool found_status = false;
  for (size_t i = 0; i < r.size(); ++i) {
    if (r.Element(i) == Value::String("status")) found_status = true;
  }
  EXPECT_TRUE(found_status) << r;
}

TEST_F(OqlTest, Q6LettersPositionQuery) {
  DocumentStore store;
  ASSERT_TRUE(store.LoadDtd(sgml::LettersDtdText()).ok());
  ASSERT_TRUE(store.LoadDocument(sgml::LettersDocumentText()).ok());
  ASSERT_TRUE(store
                  .LoadDocument(R"(<letter><preamble>
      <from>Bob</from><to>Alice</to></preamble>
      <content>second letter</content></letter>)")
                  .ok());
  // Letters where the sender (from) precedes the recipient (to):
  // only the second letter.
  auto r = store.Query(
      "select l from l in Letters, "
      "i in positions(l.preamble, \"from\"), "
      "j in positions(l.preamble, \"to\") where i < j");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 1u);
  // And the dual query finds the other letter.
  auto r2 = store.Query(
      "select l from l in Letters, "
      "i in positions(l.preamble, \"to\"), "
      "j in positions(l.preamble, \"from\") where i < j");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->size(), 1u);
}

TEST_F(OqlTest, IndexedAccessAndPathFunctions) {
  Value r = Run("select text(my_article.sections[1].title) from x in "
                "list(1)");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Element(0), Value::String("SGML preliminaries"));
  // length on a path variable (paper §4.3 point 4).
  Value lens = Run(
      "select length(PATH_p) from my_article PATH_p.title(t) "
      "where length(PATH_p) < 3");
  ASSERT_EQ(lens.size(), 1u);
  EXPECT_EQ(lens.Element(0), Value::Integer(1));  // the -> before .title
}

TEST_F(OqlTest, NearPredicate) {
  Value r = Run(
      "select s from a in Articles, s in a.sections "
      "where near(s, \"main\", \"SGML\", 4)");
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(OqlTest, WhereComparisonsAndConnectives) {
  Value r = Run(
      "select a from a in Articles "
      "where count(a.authors) = 4 and not (a.status = \"draft\")");
  EXPECT_EQ(r.size(), 1u);
  Value r2 = Run(
      "select a from a in Articles "
      "where a.status = \"draft\" or a.status = \"final\"");
  EXPECT_EQ(r2.size(), 2u);
  Value r3 = Run("select a from a in Articles where count(a.sections) > 1");
  EXPECT_EQ(r3.size(), 1u);  // v2 has a single section
}

TEST_F(OqlTest, NestedSelectAsArgument) {
  Value r = Run(
      "select count(set_to_list(select t from my_article .. title(t))) "
      "from x in list(1)");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Element(0), Value::Integer(3));
}

TEST_F(OqlTest, StaticTypeErrors) {
  // Unknown identifier.
  auto r1 = store_.Query("select x from a in Articles where a.title = x");
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kTypeError);
  // Attribute that exists in no union alternative (§4.2 type error).
  auto r2 = store_.Query(
      "select s.nonexistent from a in Articles, s in a.sections");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kTypeError);
  // Attribute missing on a plain tuple type.
  auto r3 = store_.Query("select a.bogus from a in Articles");
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kTypeError);
  // Range over a non-collection.
  auto r4 = store_.Query("select x from x in 42");
  EXPECT_FALSE(r4.ok());
}

TEST_F(OqlTest, ParseErrors) {
  EXPECT_FALSE(ParseStatement("select").ok());
  EXPECT_FALSE(ParseStatement("select a from").ok());
  EXPECT_FALSE(ParseStatement("select a from a in X where").ok());
  EXPECT_FALSE(ParseStatement("select a from a in X trailing junk").ok());
  EXPECT_FALSE(ParseStatement("select t from d ..").ok());
  EXPECT_FALSE(ParseStatement("select x from d PATH_p.title(").ok());
  EXPECT_FALSE(
      ParseStatement("select x from a in X where x contains").ok());
}

TEST_F(OqlTest, ParserShapes) {
  auto s = ParseStatement(
      "select tuple(t: a.title) from a in Articles, "
      "d PATH_p.title(t), e .. caption(c) where t = c");
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_NE(s->select, nullptr);
  ASSERT_EQ(s->select->from.size(), 3u);
  EXPECT_EQ(s->select->from[0].kind, FromBinding::Kind::kIn);
  EXPECT_EQ(s->select->from[1].kind, FromBinding::Kind::kPath);
  EXPECT_EQ(s->select->from[1].path.path_var, "PATH_p");
  EXPECT_EQ(s->select->from[2].path.path_var, "");  // '..' sugar
  ASSERT_EQ(s->select->from[2].path.steps.size(), 1u);
  EXPECT_EQ(s->select->from[2].path.steps[0].capture, "c");
}

TEST_F(OqlTest, TextOperatorOnWholeDocument) {
  Value r = Run("select text(a) from a in Articles "
                "where a contains (\"Cedex\" or \"grateful\")");
  EXPECT_EQ(r.size(), 2u);  // both versions thank O2 Technology
}

}  // namespace
}  // namespace sgmlqdb::oql
