#include "gen/noise.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/macros.h"
#include "query/evaluator.h"

namespace cqa {

namespace {

/// Step 2 + Step 3 of §6.1 for one relation: select ⌈p·|rows|⌉ of the
/// given facts and inflate each one's block to a random size in [ℓ, u],
/// copying non-key values from donors with different keys.
void InflateBlocks(Database* db, size_t rid, const std::vector<size_t>& rows,
                   const NoiseOptions& options, Rng& rng,
                   NoiseStats* stats) {
  if (rows.empty()) return;
  const Relation& rel = db->relation(rid);
  const RelationSchema& rs = rel.schema();
  std::vector<size_t> non_key;
  for (size_t col = 0; col < rs.arity(); ++col) {
    if (!rs.IsKeyPosition(col)) non_key.push_back(col);
  }
  const size_t original_size = rel.size();

  size_t num_selected = std::min(
      rows.size(),
      static_cast<size_t>(
          std::ceil(options.p * static_cast<double>(rows.size()))));
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(rows.size(), num_selected);
  stats->selected_facts += num_selected;

  // The block's members so far, as source rows: the picked fact itself,
  // then each donor whose non-key values a new fact copied. All members
  // share the picked fact's key, so two of them coincide iff their
  // sources agree on the non-key columns.
  std::vector<size_t> members;
  auto duplicates_member = [&](size_t donor) {
    return std::any_of(members.begin(), members.end(), [&](size_t m) {
      return std::all_of(non_key.begin(), non_key.end(), [&](size_t col) {
        return rel.CellsEqual(donor, m, col);
      });
    });
  };
  for (size_t pick : picks) {
    size_t row = rows[pick];

    size_t s = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(options.min_block_size),
                       static_cast<int64_t>(options.max_block_size)));
    members.assign(1, row);
    for (size_t j = 0; j + 1 < s; ++j) {
      // Donor: a random original fact of R with a different key value,
      // so the copied non-key values keep joining like real data.
      size_t donor = 0;
      bool found = false;
      for (int attempt = 0; attempt < 32 && !found; ++attempt) {
        donor = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(original_size) - 1));
        if (rel.SameKey(donor, row)) continue;
        // Databases are sets: skip duplicates within the block.
        found = !duplicates_member(donor);
      }
      if (!found) break;  // Not enough distinct donors; leave block short.
      members.push_back(donor);
      Tuple fact = rel.row(donor);
      for (size_t pos : rs.key_positions()) fact[pos] = rel.ValueAt(row, pos);
      db->Insert(rid, std::move(fact));
      ++stats->facts_added;
    }
  }
}

/// Step 1 of §6.1: per relation, a bitmap of the rows that occur in some
/// consistent homomorphic image of Q, i.e. the facts of syn_{Σ,Q}(D),
/// found by a bare enumeration without building any synopsis. An image
/// is inconsistent iff two of its facts are distinct rows of one
/// relation with the same key, which only atoms sharing a relation can
/// produce: queries without self-joins check nothing.
std::vector<std::vector<bool>> RelevantRows(const Database& db,
                                            const ConjunctiveQuery& q) {
  std::vector<std::vector<bool>> relevant(db.NumRelations());
  std::vector<std::pair<size_t, size_t>> self_joins;
  for (size_t i = 0; i < q.NumAtoms(); ++i) {
    const size_t rid = q.atom(i).relation_id;
    relevant[rid].assign(db.relation(rid).size(), false);
    for (size_t j = 0; j < i; ++j) {
      if (q.atom(j).relation_id == rid) self_joins.emplace_back(j, i);
    }
  }
  CqEvaluator evaluator(&db);
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    for (const auto& [i, j] : self_joins) {
      const FactRef& a = h.image[i];
      const FactRef& b = h.image[j];
      if (a.row != b.row && db.relation(a.relation_id).SameKey(a.row, b.row)) {
        return true;  // Inconsistent image; its facts stay irrelevant.
      }
    }
    for (const FactRef& f : h.image) relevant[f.relation_id][f.row] = true;
    return true;
  });
  return relevant;
}

}  // namespace

NoiseStats AddQueryAwareNoise(Database* db, const ConjunctiveQuery& q,
                              const NoiseOptions& options, Rng& rng) {
  CQA_CHECK(db != nullptr);
  CQA_CHECK(options.p > 0.0 && options.p <= 1.0);
  CQA_CHECK(options.min_block_size >= 2);
  CQA_CHECK(options.min_block_size <= options.max_block_size);
  NoiseStats stats;

  // Step 1: the query-relevant facts, grouped per relation in row
  // order. Relations without a key cannot host conflicts and are skipped.
  const std::vector<std::vector<bool>> relevant = RelevantRows(*db, q);
  std::vector<size_t> rows;
  for (size_t rid = 0; rid < relevant.size(); ++rid) {
    if (!db->relation(rid).schema().has_key()) continue;
    rows.clear();
    for (size_t row = 0; row < relevant[rid].size(); ++row) {
      if (relevant[rid][row]) rows.push_back(row);
    }
    stats.relevant_facts += rows.size();
    InflateBlocks(db, rid, rows, options, rng, &stats);
  }
  // The injected facts sat in the relations' tails; seal them into chunks
  // so the noisy instance is as columnar as the base it extends.
  db->SealStorage();
  return stats;
}

NoiseStats AddObliviousNoise(Database* db, const NoiseOptions& options,
                             Rng& rng) {
  CQA_CHECK(db != nullptr);
  CQA_CHECK(options.p > 0.0 && options.p <= 1.0);
  CQA_CHECK(options.min_block_size >= 2);
  CQA_CHECK(options.min_block_size <= options.max_block_size);
  NoiseStats stats;
  for (size_t rid = 0; rid < db->NumRelations(); ++rid) {
    const Relation& rel = db->relation(rid);
    if (!rel.schema().has_key()) continue;
    std::vector<size_t> rows(rel.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    stats.relevant_facts += rows.size();
    InflateBlocks(db, rid, rows, options, rng, &stats);
  }
  db->SealStorage();
  return stats;
}

}  // namespace cqa
