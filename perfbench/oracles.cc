#include "oracles.h"

#include <cmath>
#include <optional>

#include "common/rng.h"
#include "cqa/exact.h"
#include "cqa/preprocess.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "query/parser.h"

namespace perfbench {

using cqa::ConjunctiveQuery;
using cqa::Database;
using cqa::Relation;
using cqa::Tuple;
using cqa::Value;

std::map<std::string, double> SingleAtomFrequencies(
    const Database& db, const ConjunctiveQuery& q) {
  const cqa::Atom& atom = q.atom(0);
  const Relation& rel = db.relation(atom.relation_id);
  // First position of every variable, to test repeated variables and
  // read answer values.
  std::vector<int64_t> first_pos(q.num_vars(), -1);
  for (size_t p = 0; p < atom.terms.size(); ++p) {
    const cqa::Term& t = atom.terms[p];
    if (t.is_variable() && first_pos[t.var()] < 0) {
      first_pos[t.var()] = static_cast<int64_t>(p);
    }
  }
  struct BlockCounts {
    size_t size = 0;
    std::map<std::string, size_t> matches;  // answer → matching facts.
  };
  std::unordered_map<Tuple, BlockCounts, cqa::TupleHash> blocks;
  for (size_t row = 0; row < rel.size(); ++row) {
    BlockCounts& block = blocks[rel.KeyOf(row)];
    ++block.size;
    bool match = true;
    for (size_t p = 0; p < atom.terms.size() && match; ++p) {
      const cqa::Term& t = atom.terms[p];
      if (t.is_constant()) {
        match = rel.ValueEquals(row, p, t.constant());
      } else if (first_pos[t.var()] != static_cast<int64_t>(p)) {
        match = rel.ValueEquals(
            row, p, rel.ValueAt(row, static_cast<size_t>(first_pos[t.var()])));
      }
    }
    if (!match) continue;
    Tuple answer;
    for (size_t var : q.answer_vars()) {
      answer.push_back(rel.ValueAt(row, static_cast<size_t>(first_pos[var])));
    }
    ++block.matches[cqa::TupleToString(answer)];
  }
  std::map<std::string, double> miss_probability;  // Π_b (1 - m_b/|b|).
  for (const auto& [key, block] : blocks) {
    for (const auto& [answer, m] : block.matches) {
      auto it = miss_probability.emplace(answer, 1.0).first;
      it->second *= 1.0 - static_cast<double>(m) /
                              static_cast<double>(block.size);
    }
  }
  std::map<std::string, double> frequencies;
  for (const auto& [answer, miss] : miss_probability) {
    frequencies[answer] = 1.0 - miss;
  }
  return frequencies;
}

OrdersLineitemJoin CountOrdersLineitem(const Database& db) {
  const Relation& orders = db.relation("orders");
  const Relation& lineitem = db.relation("lineitem");
  std::unordered_map<int64_t, uint64_t> lines_per_key;
  for (size_t row = 0; row < lineitem.size(); ++row) {
    ++lines_per_key[lineitem.ValueAt(row, 0).AsInt()];  // l_orderkey
  }
  OrdersLineitemJoin join;
  for (size_t row = 0; row < orders.size(); ++row) {
    const int64_t key = orders.ValueAt(row, 0).AsInt();  // o_orderkey
    auto it = lines_per_key.find(key);
    if (it == lines_per_key.end()) continue;
    join.images_by_orderkey[key] += it->second;
    // o_orderpriority, rendered as the answer tuple (OP).
    join.images_by_priority[cqa::TupleToString({orders.ValueAt(row, 5)})] +=
        it->second;
    join.total_images += it->second;
  }
  return join;
}

std::unordered_map<Tuple, size_t, cqa::TupleHash> ScanBlockSizes(
    const Relation& relation) {
  std::unordered_map<Tuple, size_t, cqa::TupleHash> sizes;
  for (size_t row = 0; row < relation.size(); ++row) {
    ++sizes[relation.KeyOf(row)];
  }
  return sizes;
}

namespace {

// P(X >= k) for X ~ Binomial(n, p), summed in log space.
double BinomialUpperTail(uint64_t k, uint64_t n, double p) {
  if (k == 0) return 1.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double dn = static_cast<double>(n);
  double tail = 0.0;
  for (uint64_t i = k; i <= n; ++i) {
    const double di = static_cast<double>(i);
    const double log_term = std::lgamma(dn + 1) - std::lgamma(di + 1) -
                            std::lgamma(dn - di + 1) + di * std::log(p) +
                            (dn - di) * std::log1p(-p);
    tail += std::exp(log_term);
  }
  return tail;
}

}  // namespace

double ClopperPearsonLower(uint64_t k, uint64_t n, double alpha) {
  if (k == 0 || n == 0) return 0.0;
  // The upper tail grows with p: bisect for P(X >= k | p) = alpha.
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (BinomialUpperTail(k, n, mid) < alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool EstimatesWithinGuarantee(uint64_t misses, uint64_t n, double delta) {
  return ClopperPearsonLower(misses, n, 1e-3) <= delta;
}

namespace {

void Expect(bool ok, const std::string& what,
            std::vector<std::string>* failures) {
  if (!ok) failures->push_back("oracle self-test: " + what);
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

// Single-atom oracle vs the repo's exponential oracles on a tiny
// inconsistent instance: blocks of sizes 1..3 over r(k, v, w).
void TestSingleAtom(std::vector<std::string>* failures) {
  cqa::Schema schema;
  schema.AddRelation(cqa::RelationSchema(
      "r",
      {{"k", cqa::ValueType::kInt},
       {"v", cqa::ValueType::kString},
       {"w", cqa::ValueType::kInt}},
      {0}));
  Database db(&schema);
  const char* values[] = {"a", "b", "a", "c", "b", "a", "a", "c", "b"};
  const int keys[] = {1, 1, 1, 2, 2, 3, 4, 4, 5};
  const int ws[] = {0, 1, 1, 0, 1, 1, 1, 0, 0};
  for (size_t i = 0; i < 9; ++i) {
    db.Insert("r", {Value(keys[i]), Value(values[i]), Value(ws[i])});
  }
  db.SealStorage();
  for (const char* text :
       {"Q(V) :- r(K, V, W).", "Q() :- r(K, 'a', W).",
        "Q(V) :- r(K, V, 1).", "Q(K) :- r(K, 'b', W)."}) {
    const ConjunctiveQuery q = cqa::MustParseCq(schema, text);
    const std::map<std::string, double> oracle =
        SingleAtomFrequencies(db, q);
    const cqa::PreprocessResult pre = cqa::BuildSynopses(db, q);
    Expect(oracle.size() == pre.NumAnswers(),
           std::string("answer count of ") + text, failures);
    for (const cqa::AnswerSynopsis& as : pre.answers()) {
      const std::string key = cqa::TupleToString(as.answer);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        Expect(false, std::string("missing answer ") + key + " of " + text,
               failures);
        continue;
      }
      const std::optional<double> by_repairs =
          cqa::ExactRelativeFrequencyByRepairs(db, q, as.answer);
      const std::optional<double> by_ie =
          cqa::ExactRatioInclusionExclusion(as.synopsis);
      Expect(by_repairs.has_value() && Near(*by_repairs, it->second, 1e-12),
             std::string("repairs oracle disagrees on ") + text, failures);
      Expect(by_ie.has_value() && Near(*by_ie, it->second, 1e-12),
             std::string("inclusion-exclusion disagrees on ") + text,
             failures);
    }
  }
}

// Hash-join count vs a nested-loop count and vs the repairs oracle's
// support on a tiny noisy TPC-H instance.
void TestOrdersLineitem(std::vector<std::string>* failures) {
  cqa::TpchOptions tpch;
  tpch.scale_factor = 0.00002;  // 3 customers, 30 orders.
  tpch.seed = 11;
  cqa::Dataset data = cqa::GenerateTpch(tpch);
  const ConjunctiveQuery q = cqa::MustParseCq(
      *data.schema,
      "Q(OK) :- orders(OK, CK, OS, TP, OD, OP, CL, SP, OC),"
      " lineitem(OK, PK, SK, LN, QT, EP, DI, TX, RF, LS, SD, CD, RD, SI, SM,"
      " CM).");
  cqa::NoiseOptions noise;
  noise.p = 0.5;
  cqa::Rng rng(5);
  cqa::AddQueryAwareNoise(data.db.get(), q, noise, rng);
  const Database& db = *data.db;
  const OrdersLineitemJoin join = CountOrdersLineitem(db);
  const Relation& orders = db.relation("orders");
  const Relation& lineitem = db.relation("lineitem");
  std::unordered_map<int64_t, uint64_t> nested;
  uint64_t nested_total = 0;
  for (size_t o = 0; o < orders.size(); ++o) {
    for (size_t l = 0; l < lineitem.size(); ++l) {
      if (orders.ValueAt(o, 0) == lineitem.ValueAt(l, 0)) {
        ++nested[orders.ValueAt(o, 0).AsInt()];
        ++nested_total;
      }
    }
  }
  Expect(nested == join.images_by_orderkey && nested_total == join.total_images,
         "hash join disagrees with nested loop", failures);
  // A joining order key is an answer with positive frequency.
  size_t checked = 0;
  for (const auto& [key, images] : join.images_by_orderkey) {
    if (checked++ >= 3) break;
    const std::optional<double> freq =
        cqa::ExactRelativeFrequencyByRepairs(db, q, {Value(key)}, 1 << 16);
    if (freq.has_value()) {
      Expect(*freq > 0.0 && images > 0, "joined order key has zero frequency",
             failures);
    }
  }
}

void TestClopperPearson(std::vector<std::string>* failures) {
  // Closed forms: k = n gives alpha^(1/n); k = 1 gives 1-(1-alpha)^(1/n).
  Expect(ClopperPearsonLower(0, 10, 0.05) == 0.0, "CP(0/10)", failures);
  Expect(Near(ClopperPearsonLower(10, 10, 0.05), std::pow(0.05, 0.1), 1e-9),
         "CP(10/10, 0.05)", failures);
  Expect(Near(ClopperPearsonLower(1, 10, 0.05),
              1.0 - std::pow(0.95, 0.1), 1e-9),
         "CP(1/10, 0.05)", failures);
  // The two-sided 95% interval of 10/20 is [0.2720, 0.7280].
  Expect(Near(ClopperPearsonLower(10, 20, 0.025), 0.27196, 1e-4),
         "CP(10/20, 0.025)", failures);
  // At level 1e-3, 5 misses of 5 is exactly the δ = 0.25 boundary
  // (0.001^(1/5) = 0.2512); 4 of 5 stays inside.
  Expect(!EstimatesWithinGuarantee(5, 5, 0.25), "pass rule 5/5", failures);
  Expect(EstimatesWithinGuarantee(4, 5, 0.25), "pass rule 4/5", failures);
}

}  // namespace

void SelfTest(std::vector<std::string>* failures) {
  TestSingleAtom(failures);
  TestOrdersLineitem(failures);
  TestClopperPearson(failures);
}

}  // namespace perfbench
