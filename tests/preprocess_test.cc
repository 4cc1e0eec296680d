#include "cqa/preprocess.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cqa/invariants.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;

TEST(PreprocessTest, ExampleOneBooleanQuery) {
  // Example 1.1: do employees 1 and 2 work in the same department?
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);  // The empty tuple.
  EXPECT_TRUE(result.answers()[0].answer.empty());
  const Synopsis& s = result.answers()[0].synopsis;
  // Two consistent images: (Bob-IT, Alice-IT) and (Bob-IT, Tim-IT);
  // both touch both blocks.
  EXPECT_EQ(s.NumImages(), 2u);
  EXPECT_EQ(s.NumBlocks(), 2u);
  EXPECT_EQ(result.stats().num_homomorphisms, 2u);
}

TEST(PreprocessTest, InconsistentImagesAreFiltered) {
  // Q asks for two distinct names with the same id: every homomorphism
  // maps both atoms into one block, and is consistent only if it picks
  // the same fact twice — those keep a single image fact.
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(I, 'Alice', D1), employee(I, 'Tim', D2).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // Alice and Tim share id 2 but are different facts in the same block:
  // the only homomorphisms are inconsistent, so there is no synopsis.
  EXPECT_EQ(result.NumAnswers(), 0u);
}

TEST(PreprocessTest, SameFactTwiceIsConsistent) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(I, N, D), employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);
  // Images collapse to single facts: 4 facts -> 4 images.
  EXPECT_EQ(result.answers()[0].synopsis.NumImages(), 4u);
  for (const Synopsis::Image& image :
       result.answers()[0].synopsis.images()) {
    EXPECT_EQ(image.facts.size(), 1u);
  }
}

TEST(PreprocessTest, NonBooleanGroupsByAnswer) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // Answers with positive frequency: Bob, Alice, Tim.
  EXPECT_EQ(result.NumAnswers(), 3u);
  size_t total_images = 0;
  for (const AnswerSynopsis& as : result.answers()) {
    total_images += as.synopsis.NumImages();
  }
  EXPECT_EQ(total_images, 4u);  // Bob has two witnessing facts.
  EXPECT_EQ(result.stats().num_images, 4u);
  EXPECT_EQ(result.stats().num_distinct_images, 4u);
}

TEST(PreprocessTest, BalanceDefinition) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  // |syn| = 3 answers, |∪H_i| = 4 images.
  EXPECT_NEAR(result.Balance(), 3.0 / 4.0, 1e-12);
}

TEST(PreprocessTest, BalanceOfEmptyQueryIsZero) {
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q(N) :- employee(I, N, 'LEGAL').");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  EXPECT_EQ(result.NumAnswers(), 0u);
  EXPECT_DOUBLE_EQ(result.Balance(), 0.0);
}

TEST(PreprocessTest, BlockSizesComeFromDatabase) {
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q() :- employee(1, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  ASSERT_EQ(result.NumAnswers(), 1u);
  const Synopsis& s = result.answers()[0].synopsis;
  ASSERT_EQ(s.NumBlocks(), 1u);
  EXPECT_EQ(s.blocks()[0].size, 2u);  // Bob's block has two facts.
}

TEST(PreprocessTest, ImageFactsLocateDatabaseFacts) {
  // (block, tid) coordinates lead back to rows through the block index.
  EmployeeFixture fx;
  ConjunctiveQuery q =
      MustParseCq(*fx.schema, "Q() :- employee(2, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  std::set<size_t> rows;
  for (const AnswerSynopsis& as : result.answers()) {
    for (const Synopsis::Image& image : as.synopsis.images()) {
      for (const Synopsis::ImageFact& f : image.facts) {
        const Synopsis::Block& b = as.synopsis.blocks()[f.block];
        const size_t row = result.block_index()
                               .relation(b.relation_id)
                               .block(b.block_id)[f.tid];
        EXPECT_EQ(fx.db->FactTuple(FactRef{b.relation_id, row})[0],
                  Value(2));
        rows.insert(row);
      }
    }
  }
  EXPECT_EQ(rows.size(), 2u);  // Alice and Tim.
}

TEST(PreprocessTest, RelativeFrequencyFromSynopsisMatchesDefinition) {
  // R(H, B) of the Example 1.1 synopsis must be 0.5 (2 of 4 repairs).
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(
      *fx.schema, "Q() :- employee(1, N1, D), employee(2, N2, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  const Synopsis& s = result.answers()[0].synopsis;
  // Enumerate db(B): block sizes 2 and 2 -> 4 databases, 2 contain an
  // image ((IT, Alice-IT) and (IT, Tim-IT)).
  size_t hits = 0;
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t b = 0; b < 2; ++b) {
      if (s.AnyImageContainedIn({a, b})) ++hits;
    }
  }
  EXPECT_EQ(hits, 2u);
}

/// A keyless binary relation r(a, b) whose self-join images collide:
/// homomorphisms of r(X, Y), r(X, Z) that swap Y and Z share an image, and
/// the duplicated fact (3, 40) forms a two-fact block.
struct SelfJoinFixture {
  SelfJoinFixture() {
    schema.AddRelation(RelationSchema(
        "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    db = std::make_unique<Database>(&schema);
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {1, 10}, {1, 20}, {1, 30}, {2, 10}, {3, 40}, {3, 40}}) {
      db->Insert("r", {Value(a), Value(b)});
    }
  }
  Schema schema;
  std::unique_ptr<Database> db;
};

/// Brute force over row pairs for Q(head) :- r(X, Y), r(X, Z): per answer
/// the set of consistent images, each a set of rows. An image is
/// inconsistent when it holds two distinct rows of one block (equal
/// tuples, the relation being keyless).
std::map<Tuple, std::set<std::set<size_t>>> BruteForceImages(
    const Relation& r, bool answer_is_y) {
  std::map<Tuple, std::set<std::set<size_t>>> images;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (r.row(i)[0] != r.row(j)[0]) continue;
      if (i != j && r.row(i) == r.row(j)) continue;
      Tuple answer = {answer_is_y ? r.row(i)[1] : r.row(i)[0]};
      images[answer].insert(std::set<size_t>{i, j});
    }
  }
  return images;
}

TEST(PreprocessTest, SelfJoinDedupMatchesBruteForce) {
  SelfJoinFixture fx;
  for (bool answer_is_y : {false, true}) {
    SCOPED_TRACE(answer_is_y ? "Q(Y)" : "Q(X)");
    ConjunctiveQuery q = MustParseCq(
        fx.schema, answer_is_y ? "Q(Y) :- r(X, Y), r(X, Z)."
                               : "Q(X) :- r(X, Y), r(X, Z).");
    PreprocessResult result = BuildSynopses(*fx.db, q);
    const auto expected = BruteForceImages(fx.db->relation("r"), answer_is_y);
    std::set<std::set<size_t>> distinct;
    size_t total = 0;
    std::map<Tuple, std::set<std::set<size_t>>> actual;
    for (const AnswerSynopsis& as : result.answers()) {
      for (const Synopsis::Image& image : as.synopsis.images()) {
        std::set<size_t> rows;
        for (const Synopsis::ImageFact& f : image.facts) {
          const Synopsis::Block& b = as.synopsis.blocks()[f.block];
          rows.insert(result.block_index()
                          .relation(b.relation_id)
                          .block(b.block_id)[f.tid]);
        }
        actual[as.answer].insert(rows);
        distinct.insert(rows);
        ++total;
      }
    }
    EXPECT_EQ(actual, expected);
    size_t expected_total = 0;
    std::set<std::set<size_t>> expected_distinct;
    for (const auto& [answer, images] : expected) {
      expected_total += images.size();
      expected_distinct.insert(images.begin(), images.end());
    }
    EXPECT_EQ(total, expected_total);  // No image stored twice.
    EXPECT_EQ(result.stats().num_images, expected_total);
    EXPECT_EQ(result.stats().num_distinct_images, expected_distinct.size());
    EXPECT_EQ(distinct.size(), expected_distinct.size());
  }
}

TEST(PreprocessTest, DistinctImagesAuditSeparatesSelfJoins) {
  // Self-join-free: every image occurs once, so the audit holds.
  EmployeeFixture employees;
  std::string why;
  EXPECT_TRUE(audit::CheckImagesDistinct(
      BuildSynopses(*employees.db,
                    MustParseCq(*employees.schema,
                                "Q(N) :- employee(I, N, D).")),
      &why))
      << why;
  // Q(Y) :- r(X, Y), r(X, Z) derives image {(1, 10), (1, 20)} under both
  // answers 10 and 20: the audit must see the repeat.
  SelfJoinFixture fx;
  PreprocessResult shared = BuildSynopses(
      *fx.db, MustParseCq(fx.schema, "Q(Y) :- r(X, Y), r(X, Z)."));
  EXPECT_LT(shared.stats().num_distinct_images, shared.stats().num_images);
  EXPECT_FALSE(audit::CheckImagesDistinct(shared, &why));
  EXPECT_NE(why.find("image occurs twice"), std::string::npos);
}

TEST(PreprocessTest, StatsTrackTime) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult result = BuildSynopses(*fx.db, q);
  EXPECT_GE(result.stats().seconds, 0.0);
}

}  // namespace
}  // namespace cqa
