#include "query/evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"

namespace cqa {

RelationIndex RelationIndex::Build(const Relation& rel,
                                   std::vector<size_t> positions) {
  RelationIndex index;
  index.positions_ = std::move(positions);
  index.buckets_.reserve(rel.size());
  for (size_t row = 0; row < rel.size(); ++row) {
    index.buckets_[rel.ProjectRow(row, index.positions_)].push_back(row);
  }
  return index;
}

const std::vector<size_t>* RelationIndex::Lookup(const Tuple& key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  return &it->second;
}

const RelationIndex& DatabaseIndexCache::Get(
    size_t relation_id, const std::vector<size_t>& positions) {
  CQA_CHECK(std::is_sorted(positions.begin(), positions.end()));
  Key key{relation_id, positions};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto index = std::make_unique<RelationIndex>(
        RelationIndex::Build(db_->relation(relation_id), positions));
    it = cache_.emplace(std::move(key), std::move(index)).first;
  }
  return *it->second;
}

Tuple Homomorphism::AnswerTuple(const ConjunctiveQuery& q) const {
  Tuple t;
  t.reserve(q.answer_vars().size());
  for (size_t v : q.answer_vars()) t.push_back(assignment[v]);
  return t;
}

CqEvaluator::CqEvaluator(const Database* db, DatabaseIndexCache* cache)
    : db_(db), cache_(cache) {
  CQA_CHECK(db != nullptr);
  if (cache_ == nullptr) {
    owned_cache_ = std::make_unique<DatabaseIndexCache>(db);
    cache_ = owned_cache_.get();
  }
}

namespace {

/// Greedy join order: repeatedly pick the atom with the most bound term
/// positions (constants + variables bound by earlier atoms), breaking ties
/// towards smaller relations.
std::vector<size_t> PlanAtomOrder(const Database& db,
                                  const ConjunctiveQuery& q) {
  size_t n = q.NumAtoms();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.num_vars(), false);
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Atom& a = q.atom(i);
      size_t bound_terms = 0;
      for (const Term& t : a.terms) {
        if (t.is_constant() || bound[t.var()]) ++bound_terms;
      }
      size_t rel_size = db.relation(a.relation_id).size();
      if (best == n || bound_terms > best_bound ||
          (bound_terms == best_bound && rel_size < best_size)) {
        best = i;
        best_bound = bound_terms;
        best_size = rel_size;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const Term& t : q.atom(best).terms) {
      if (t.is_variable()) bound[t.var()] = true;
    }
  }
  return order;
}

/// Variables some reader looks at: those in the head (AnswerTuple) and
/// those occurring twice or more in the body (join and lookup keys). Every
/// other variable occurs once, is never compared, and is never bound.
std::vector<bool> ReadVariables(const ConjunctiveQuery& q) {
  std::vector<size_t> occurrences(q.num_vars(), 0);
  for (const Atom& atom : q.atoms()) {
    for (const Term& t : atom.terms) {
      if (t.is_variable()) ++occurrences[t.var()];
    }
  }
  std::vector<bool> read(q.num_vars(), false);
  for (size_t v = 0; v < q.num_vars(); ++v) read[v] = occurrences[v] >= 2;
  for (size_t v : q.answer_vars()) read[v] = true;
  return read;
}

/// How one atom is matched at its depth of the join order. The order is
/// fixed, so which terms are bound is known before any row is read.
struct AtomPlan {
  size_t atom_index = 0;
  size_t relation_id = 0;
  /// Positions holding a constant or a variable bound by an earlier atom;
  /// rows are found by an index lookup (or scan) on them, so they need no
  /// further check.
  std::vector<size_t> key_positions;
  /// The lookup key: constants filled at planning, the slots listed in
  /// `key_vars` refilled from the assignment on every probe.
  Tuple key;
  std::vector<std::pair<size_t, size_t>> key_vars;  // (key slot, variable)
  /// The remaining variable positions that matter, in position order:
  /// the first occurrence of a read variable binds it, a repeat within
  /// the atom (R(x, x)) checks it. Unread variables appear nowhere.
  struct Step {
    size_t pos;
    size_t var;
    bool bind;
  };
  std::vector<Step> steps;
  /// Depth 0 with an all-constant key: a statistics-pruned column scan
  /// beats building a hash index over the whole relation.
  bool scan = false;
  const RelationIndex* index = nullptr;  // Resolved on the first probe.
};

std::vector<AtomPlan> PlanAtoms(const Database& db,
                                const ConjunctiveQuery& q) {
  const std::vector<bool> read = ReadVariables(q);
  std::vector<bool> bound(q.num_vars(), false);
  std::vector<AtomPlan> plans;
  for (size_t atom_index : PlanAtomOrder(db, q)) {
    const Atom& atom = q.atom(atom_index);
    AtomPlan plan;
    plan.atom_index = atom_index;
    plan.relation_id = atom.relation_id;
    bool all_constant = true;
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.is_constant()) {
        plan.key_positions.push_back(pos);
        plan.key.push_back(t.constant());
      } else if (bound[t.var()]) {
        plan.key_vars.emplace_back(plan.key.size(), t.var());
        plan.key_positions.push_back(pos);
        plan.key.emplace_back();
        all_constant = false;
      }
    }
    std::vector<bool> bound_here(q.num_vars(), false);
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.is_constant() || bound[t.var()] || !read[t.var()]) continue;
      plan.steps.push_back(AtomPlan::Step{pos, t.var(), !bound_here[t.var()]});
      bound_here[t.var()] = true;
    }
    for (const Term& t : atom.terms) {
      if (t.is_variable()) bound[t.var()] = true;
    }
    plan.scan = plans.empty() && all_constant && !plan.key_positions.empty();
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Backtracking state for one evaluation.
struct SearchState {
  const Database* db;
  DatabaseIndexCache* cache;
  std::vector<AtomPlan> plans;
  Homomorphism h;
  const HomomorphismCallback* fn;

  /// Matches the atoms from `depth` on; false iff the callback stopped
  /// the enumeration.
  bool MatchAtom(size_t depth) {
    if (depth == plans.size()) return (*fn)(h);
    AtomPlan& plan = plans[depth];
    const Relation& rel = db->relation(plan.relation_id);

    // Unifies the row's remaining terms in place (no tuple
    // materialization, no string copies), then descends.
    auto try_row = [&](size_t row) -> bool {
      for (const AtomPlan::Step& step : plan.steps) {
        if (step.bind) {
          h.assignment[step.var] = rel.ValueAt(row, step.pos);
        } else if (!rel.ValueEquals(row, step.pos, h.assignment[step.var])) {
          return true;
        }
      }
      h.image[plan.atom_index] = FactRef{plan.relation_id, row};
      return MatchAtom(depth + 1);
    };

    if (plan.key_positions.empty()) {
      for (size_t row = 0; row < rel.size(); ++row) {
        if (!try_row(row)) return false;
      }
      return true;
    }
    if (plan.scan) {
      // Enumeration stays in ascending row order — the same order the
      // index bucket would yield.
      return rel.ScanMatching(plan.key_positions, plan.key, try_row);
    }
    if (plan.index == nullptr) {
      plan.index = &cache->Get(plan.relation_id, plan.key_positions);
    }
    for (const auto& [slot, var] : plan.key_vars) {
      plan.key[slot] = h.assignment[var];
    }
    const std::vector<size_t>* rows = plan.index->Lookup(plan.key);
    if (rows == nullptr) return true;
    for (size_t row : *rows) {
      if (!try_row(row)) return false;
    }
    return true;
  }
};

}  // namespace

void CqEvaluator::ForEachHomomorphism(const ConjunctiveQuery& q,
                                      const HomomorphismCallback& fn) {
  if (q.NumAtoms() == 0) return;
  SearchState state;
  state.db = db_;
  state.cache = cache_;
  state.plans = PlanAtoms(*db_, q);
  state.h.assignment.assign(q.num_vars(), Value());
  state.h.image.assign(q.NumAtoms(), FactRef{});
  state.fn = &fn;
  state.MatchAtom(0);
}

std::vector<Tuple> CqEvaluator::Evaluate(const ConjunctiveQuery& q) {
  std::vector<Tuple> answers;
  std::unordered_set<Tuple, TupleHash> seen;
  ForEachHomomorphism(q, [&](const Homomorphism& h) {
    Tuple t = h.AnswerTuple(q);
    if (seen.insert(t).second) answers.push_back(std::move(t));
    return true;
  });
  return answers;
}

bool CqEvaluator::HasAnswer(const ConjunctiveQuery& q) {
  bool found = false;
  ForEachHomomorphism(q, [&](const Homomorphism&) {
    found = true;
    return false;
  });
  return found;
}

size_t CqEvaluator::CountHomomorphisms(const ConjunctiveQuery& q,
                                       size_t limit) {
  size_t count = 0;
  ForEachHomomorphism(q, [&](const Homomorphism&) {
    ++count;
    return limit == 0 || count < limit;
  });
  return count;
}

}  // namespace cqa
