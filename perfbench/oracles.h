// Oracles the benchmark checks the program against. They are computed
// by plain scans of the stored relations, apart from the program's block
// index, evaluator and synopses, so they scale to the benchmark's inputs
// where the repo's exponential oracles do not.
#ifndef CQABENCH_PERFBENCH_ORACLES_H_
#define CQABENCH_PERFBENCH_ORACLES_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace perfbench {

// Exact relative frequency of every answer of a single-atom query over a
// database with primary keys: blocks are independent, so
//   R(t) = 1 - Π_b (1 - m_b(t) / |b|)
// where m_b(t) counts the facts of block b that match the atom and yield
// t. One scan of the atom's relation. Keyed by TupleToString(answer).
std::map<std::string, double> SingleAtomFrequencies(
    const cqa::Database& db, const cqa::ConjunctiveQuery& q);

// Hash-join count of orders⋈lineitem on the order key, from two scans.
// Every (orders fact, lineitem fact) pair with equal keys is one
// consistent image (its facts lie in blocks of different relations).
struct OrdersLineitemJoin {
  // Images per order key, for Q(OK) :- orders(OK, ...), lineitem(OK, ...).
  std::unordered_map<int64_t, uint64_t> images_by_orderkey;
  // Images per order priority, for Q(OP) :- orders(..., OP, ...), lineitem.
  std::map<std::string, uint64_t> images_by_priority;
  uint64_t total_images = 0;
};
OrdersLineitemJoin CountOrdersLineitem(const cqa::Database& db);

// Block sizes of a relation by its primary key, from one scan, keyed by
// the key tuple.
std::unordered_map<cqa::Tuple, size_t, cqa::TupleHash> ScanBlockSizes(
    const cqa::Relation& relation);

// One-sided Clopper–Pearson lower bound on a binomial rate: the p at
// which P(X >= k | n, p) = alpha. 0 when k == 0.
double ClopperPearsonLower(uint64_t k, uint64_t n, double alpha);

// The estimate checks' pass rule: with k of n estimates off by more than
// ε·R, fail only when the Clopper–Pearson lower bound at level 1e-3 on
// the miss rate exceeds δ.
bool EstimatesWithinGuarantee(uint64_t misses, uint64_t n, double delta);

// Checks the oracles above against the repo's exponential oracles and
// against known values on tiny inputs. Appends a message per failure.
void SelfTest(std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // CQABENCH_PERFBENCH_ORACLES_H_
