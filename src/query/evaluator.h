#ifndef CQABENCH_QUERY_EVALUATOR_H_
#define CQABENCH_QUERY_EVALUATOR_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"

namespace cqa {

/// Hash index of one relation keyed by the projection onto a fixed set of
/// positions. Built on demand by DatabaseIndexCache.
class RelationIndex {
 public:
  static RelationIndex Build(const Relation& rel,
                             std::vector<size_t> positions);

  /// Rows whose projection equals `key`; nullptr when none.
  const std::vector<size_t>* Lookup(const Tuple& key) const;

  const std::vector<size_t>& positions() const { return positions_; }

 private:
  std::vector<size_t> positions_;
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> buckets_;
};

/// Lazily-built cache of RelationIndexes for one database. Reusing a cache
/// across many query evaluations on the same instance (the dynamic query
/// generator, the preprocessing step) amortizes index construction.
///
/// The database must outlive the cache and must not grow while cached
/// indexes are in use.
class DatabaseIndexCache {
 public:
  explicit DatabaseIndexCache(const Database* db) : db_(db) {}

  /// Index of `relation_id` on `positions` (must be sorted ascending).
  const RelationIndex& Get(size_t relation_id,
                           const std::vector<size_t>& positions);

 private:
  struct Key {
    size_t relation_id;
    std::vector<size_t> positions;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = k.relation_id;
      for (size_t p : k.positions) HashCombine(seed, p);
      return seed;
    }
  };

  const Database* db_;
  std::unordered_map<Key, std::unique_ptr<RelationIndex>, KeyHash> cache_;
};

/// A homomorphism from a CQ to a database: the assignment of the query
/// variables plus, per atom, the fact the atom is mapped onto (its image).
struct Homomorphism {
  /// Value of each variable, indexed by variable id. Only the variables
  /// something reads are bound: answer variables and variables occurring
  /// twice or more in the body. Any other entry is unspecified; its value
  /// is in the image fact of the one atom it occurs in.
  std::vector<Value> assignment;
  /// Image fact of each atom, in atom order.
  std::vector<FactRef> image;

  /// h(x̄): the projection of the assignment onto the answer variables.
  Tuple AnswerTuple(const ConjunctiveQuery& q) const;
};

/// Callback invoked per homomorphism; return false to stop enumeration.
using HomomorphismCallback = std::function<bool(const Homomorphism&)>;

/// Enumerates homomorphisms from conjunctive queries to a database using
/// index-nested-loop joins with a greedy bound-terms-first atom order.
class CqEvaluator {
 public:
  /// `cache` may be shared across evaluators of the same database; when
  /// null the evaluator owns a private cache.
  explicit CqEvaluator(const Database* db, DatabaseIndexCache* cache = nullptr);

  const Database& db() const { return *db_; }

  /// Calls `fn` once per homomorphism from `q` to the database.
  void ForEachHomomorphism(const ConjunctiveQuery& q,
                           const HomomorphismCallback& fn);

  /// Distinct answers Q(D), in first-derivation order.
  std::vector<Tuple> Evaluate(const ConjunctiveQuery& q);

  /// True iff Q(D) is non-empty.
  bool HasAnswer(const ConjunctiveQuery& q);

  /// Number of homomorphisms, stopping at `limit` when non-zero.
  size_t CountHomomorphisms(const ConjunctiveQuery& q, size_t limit = 0);

 private:
  const Database* db_;
  DatabaseIndexCache* cache_;
  std::unique_ptr<DatabaseIndexCache> owned_cache_;
};

}  // namespace cqa

#endif  // CQABENCH_QUERY_EVALUATOR_H_
