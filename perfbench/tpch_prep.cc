// Workload tpch-prep: one TPC-H instance and ten CQs. Each round runs,
// per (database, query) pair, Database::Clone, AddQueryAwareNoise at
// p = 0.5 and BuildSynopses. No approximation scheme runs outside the
// checks, so this workload measures generation, noise, block index,
// evaluation and fold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "cqa/apx_cqa.h"
#include "cqa/preprocess.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "oracles.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/block_index.h"

namespace perfbench {

namespace {

using cqa::Database;

constexpr double kScaleFactor = 0.003;
constexpr double kNoiseP = 0.5;
constexpr int kSetupRepetitions = 5;

struct Pair {
  std::string name;
  cqa::ConjunctiveQuery query;
};

// Per-pair results of one round; rounds after the first must repeat the
// first exactly (same seed, same inputs).
struct PairResult {
  size_t relevant_facts = 0;
  size_t facts_added = 0;
  size_t answers = 0;
  size_t images = 0;
  size_t homomorphisms = 0;
  bool operator==(const PairResult&) const = default;
};

size_t Scaled(double base) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(base * kScaleFactor)));
}

// Cardinalities follow the TPC-H formulas and the instance is consistent.
void CheckGeneration(const Database& db, Outcome* out) {
  auto size_of = [&](const char* name) { return db.relation(name).size(); };
  const size_t orders = size_of("orders");
  if (size_of("region") != 5 || size_of("nation") != 25 ||
      size_of("supplier") != Scaled(10000) ||
      size_of("part") != Scaled(200000) ||
      size_of("partsupp") != 4 * Scaled(200000) ||
      size_of("customer") != Scaled(150000) ||
      orders != 10 * Scaled(150000) || size_of("lineitem") < orders ||
      size_of("lineitem") > 7 * orders) {
    out->Fail("tpch: relation cardinalities do not follow the TPC-H formulas");
  }
  for (size_t rid = 0; rid < db.NumRelations(); ++rid) {
    for (const auto& [key, size] : ScanBlockSizes(db.relation(rid))) {
      if (size != 1) {
        out->Fail("tpch: base instance has a conflicting block in " +
                  db.schema().relation(rid).name());
        break;
      }
    }
  }
}

// The noisy instance extends the base by exactly facts_added facts,
// keeps every base fact, grows only keyed relations, and every inflated
// block has a size in [min, max].
void CheckNoise(const Database& base, const Database& noisy,
                const cqa::NoiseStats& stats, const cqa::NoiseOptions& noise,
                const std::string& pair, Outcome* out) {
  if (noisy.NumFacts() != base.NumFacts() + stats.facts_added) {
    out->Fail(pair + ": fact count did not grow by facts_added");
  }
  for (size_t rid = 0; rid < base.NumRelations(); ++rid) {
    const cqa::Relation& b = base.relation(rid);
    const cqa::Relation& n = noisy.relation(rid);
    if (!b.schema().has_key() && n.size() != b.size()) {
      out->Fail(pair + ": a relation without key grew");
    }
    if (n.size() == b.size()) {
      for (size_t row = 0; row < b.size(); ++row) {
        if (b.row(row) != n.row(row)) {
          out->Fail(pair + ": a base fact changed");
          break;
        }
      }
      continue;
    }
    std::unordered_set<cqa::Tuple, cqa::TupleHash> facts;
    facts.reserve(n.size());
    for (size_t row = 0; row < n.size(); ++row) facts.insert(n.row(row));
    for (size_t row = 0; row < b.size(); ++row) {
      if (facts.count(b.row(row)) == 0) {
        out->Fail(pair + ": a base fact is missing after noise");
        break;
      }
    }
    for (const auto& [key, size] : ScanBlockSizes(n)) {
      if (size > 1 &&
          (size < noise.min_block_size || size > noise.max_block_size)) {
        out->Fail(pair + ": inflated block size outside [min, max]");
        break;
      }
    }
  }
}

// Every image is consistent, B is exactly the set of blocks H touches,
// and every block's size equals the size of its key group in a scan.
void CheckSynopses(const Database& noisy, const cqa::PreprocessResult& pre,
                   const std::string& pair, Outcome* out) {
  std::vector<std::unique_ptr<std::unordered_map<cqa::Tuple, size_t,
                                                 cqa::TupleHash>>>
      scanned(noisy.NumRelations());
  for (const cqa::AnswerSynopsis& as : pre.answers()) {
    const cqa::Synopsis& syn = as.synopsis;
    if (syn.Empty()) out->Fail(pair + ": answer without images");
    std::vector<bool> touched(syn.NumBlocks(), false);
    for (const cqa::Synopsis::Image& image : syn.images()) {
      std::set<uint32_t> blocks;
      for (const cqa::Synopsis::ImageFact& f : image.facts) {
        if (f.block >= syn.NumBlocks() ||
            f.tid >= syn.blocks()[f.block].size ||
            !blocks.insert(f.block).second) {
          out->Fail(pair + ": inconsistent or malformed image");
          return;
        }
        touched[f.block] = true;
      }
    }
    if (std::find(touched.begin(), touched.end(), false) != touched.end()) {
      out->Fail(pair + ": B holds a block that no image touches");
      return;
    }
    for (const cqa::Synopsis::Block& block : syn.blocks()) {
      const std::vector<size_t>& rows =
          pre.block_index().relation(block.relation_id).block(block.block_id);
      const cqa::Relation& rel = noisy.relation(block.relation_id);
      if (!scanned[block.relation_id]) {
        scanned[block.relation_id] = std::make_unique<
            std::unordered_map<cqa::Tuple, size_t, cqa::TupleHash>>(
            ScanBlockSizes(rel));
      }
      const cqa::Tuple key = rel.KeyOf(rows.front());
      bool same_key = true;
      for (size_t row : rows) same_key = same_key && rel.KeyOf(row) == key;
      if (!same_key || rows.size() != block.size ||
          scanned[block.relation_id]->at(key) != block.size) {
        out->Fail(pair + ": block size differs from the scanned key group");
        return;
      }
    }
  }
}

// Answers and image counts of an orders⋈lineitem query against the
// scan-based hash-join count, per answer.
void CheckJoinCounts(const Database& noisy, const cqa::PreprocessResult& pre,
                     bool by_orderkey, const std::string& pair,
                     Outcome* out) {
  const OrdersLineitemJoin join = CountOrdersLineitem(noisy);
  const size_t expected_answers = by_orderkey
                                      ? join.images_by_orderkey.size()
                                      : join.images_by_priority.size();
  if (pre.NumAnswers() != expected_answers ||
      pre.stats().num_images != join.total_images) {
    out->Fail(pair + ": answers or num_images differ from the join count");
    return;
  }
  for (const cqa::AnswerSynopsis& as : pre.answers()) {
    uint64_t expected = 0;
    if (by_orderkey) {
      auto it = join.images_by_orderkey.find(as.answer[0].AsInt());
      if (it != join.images_by_orderkey.end()) expected = it->second;
    } else {
      auto it = join.images_by_priority.find(cqa::TupleToString(as.answer));
      if (it != join.images_by_priority.end()) expected = it->second;
    }
    if (as.synopsis.NumImages() != expected) {
      out->Fail(pair + ": per-answer |H| differs from the join count");
      return;
    }
  }
}

struct EstimateTally {
  uint64_t n = 0;
  uint64_t misses = 0;
};

// Natural's estimates on a single-atom query against the scan oracle.
void CheckNaturalEstimates(const Database& noisy,
                           const cqa::ConjunctiveQuery& q,
                           const cqa::PreprocessResult& pre, uint64_t seed,
                           const std::string& pair, EstimateTally* tally,
                           Outcome* out) {
  const std::map<std::string, double> exact = SingleAtomFrequencies(noisy, q);
  if (exact.size() != pre.NumAnswers()) {
    out->Fail(pair + ": answer set differs from the scan oracle");
    return;
  }
  cqa::ApxParams params;  // ε = 0.1, δ = 0.25.
  cqa::Rng rng(seed);
  const cqa::CqaRunResult run =
      cqa::ApxCqaOnSynopses(pre, cqa::SchemeKind::kNatural, params, rng);
  for (const cqa::CqaAnswer& answer : run.answers) {
    auto it = exact.find(cqa::TupleToString(answer.tuple));
    if (it == exact.end()) {
      out->Fail(pair + ": Natural returned an answer the oracle lacks");
      return;
    }
    ++tally->n;
    if (std::fabs(answer.frequency - it->second) >
        params.epsilon * it->second) {
      ++tally->misses;
    }
  }
}

}  // namespace

Outcome RunTpchPrep(const Options& options) {
  Outcome out;
  Tracer tracer(options.trace, "tpch-prep");
  RunSelfTest(tracer, &out);

  // Set-up: generate the base instance several times, keep the last.
  cqa::Dataset base;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    base = cqa::Dataset();
    ScopedSpan span(tracer, "gen.tpch");
    const double t = NowSeconds();
    cqa::TpchOptions tpch;
    tpch.scale_factor = kScaleFactor;
    tpch.seed = cqa::SplitMix64(options.seed);
    base = cqa::GenerateTpch(tpch);
    setup_times.push_back(NowSeconds() - t);
  }
  const double rss_after_gen = CurrentRssMb();
  {
    ScopedSpan span(tracer, "check.generation");
    CheckGeneration(*base.db, &out);
  }

  std::vector<Pair> pairs;
  {
    ScopedSpan span(tracer, "query.parse");
    for (cqa::NamedQuery& nq : cqa::TpchValidationQueries(*base.schema)) {
      pairs.push_back(Pair{nq.name, std::move(nq.query)});
    }
    pairs.push_back(Pair{
        "OL_H",
        cqa::MustParseCq(*base.schema,
                         "Q(OK) :- orders(OK, CK, OS, TP, OD, OP, CL, SP, OC),"
                         " lineitem(OK, PK, SK, LN, QT, EP, DI, TX, RF, LS,"
                         " SD, CD, RD, SI, SM, CM).")});
  }

  cqa::NoiseOptions noise;
  noise.p = kNoiseP;
  std::vector<PairResult> first_round(pairs.size());
  // Per-pair call times over the rounds; block index and evaluate are
  // recorded by traced runs only.
  struct PairTimes {
    std::vector<double> noise, build, block_index, evaluate;
  };
  std::vector<PairTimes> pair_times(pairs.size());
  std::vector<double> round_times, noise_times, build_times;
  std::vector<double> op_times;
  std::vector<double> clone_round, block_index_round, evaluate_round;
  double rss_after_noise = 0.0, rss_after_preprocess = 0.0;
  EstimateTally tally;
  size_t rounds = 0;
  const double measure_start = NowSeconds();
  do {
    double round_noise = 0.0, round_build = 0.0, round_clone = 0.0;
    double round_block_index = 0.0, round_evaluate = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const Pair& pair = pairs[i];
      const int64_t pid = static_cast<int64_t>(i);
      PairResult result;
      double t = NowSeconds();
      std::unique_ptr<Database> noisy;
      {
        ScopedSpan span(tracer, "storage.clone", pid);
        noisy = std::make_unique<Database>(base.db->Clone());
      }
      const double clone_s = NowSeconds() - t;
      cqa::NoiseStats stats;
      {
        ScopedSpan span(tracer, "gen.noise", pid);
        cqa::Rng rng(cqa::SplitMix64(options.seed * 1000 + i));
        stats = cqa::AddQueryAwareNoise(noisy.get(), pair.query, noise, rng);
      }
      const double noise_s = NowSeconds() - t;
      if (tracer.enabled()) {
        rss_after_noise = std::max(rss_after_noise, CurrentRssMb());
      }
      t = NowSeconds();
      std::unique_ptr<cqa::PreprocessResult> pre;
      {
        ScopedSpan span(tracer, "cqa.build_synopses", pid);
        pre = std::make_unique<cqa::PreprocessResult>(
            cqa::BuildSynopses(*noisy, pair.query));
      }
      const double build_s = NowSeconds() - t;
      if (tracer.enabled()) {
        rss_after_preprocess = std::max(rss_after_preprocess, CurrentRssMb());
      }
      round_clone += clone_s;
      round_noise += noise_s;
      round_build += build_s;
      op_times.push_back(noise_s + build_s);
      pair_times[i].noise.push_back(noise_s);
      pair_times[i].build.push_back(build_s);
      result.relevant_facts = stats.relevant_facts;
      result.facts_added = stats.facts_added;
      result.answers = pre->NumAnswers();
      result.images = pre->stats().num_images;
      result.homomorphisms = pre->stats().num_homomorphisms;

      if (rounds == 0) {
        first_round[i] = result;
        ScopedSpan span(tracer, "check.outputs", pid);
        CheckNoise(*base.db, *noisy, stats, noise, pair.name, &out);
        CheckSynopses(*noisy, *pre, pair.name, &out);
        if (pair.name == "OL_H" || pair.name == "Q4_H") {
          CheckJoinCounts(*noisy, *pre, pair.name == "OL_H", pair.name, &out);
        }
        if (pair.name == "Q1_H" || pair.name == "Q6_H") {
          CheckNaturalEstimates(*noisy, pair.query, *pre,
                                cqa::SplitMix64(options.seed + 77 + i),
                                pair.name, &tally, &out);
        }
      } else if (!(result == first_round[i])) {
        out.Fail(pair.name + ": a repeated round produced different output");
      }
      {
        ScopedSpan span(tracer, "storage.release", pid);
        pre.reset();
      }
      if (tracer.enabled()) {
        // Split-only calls: the block index and the bare enumeration,
        // repeated outside BuildSynopses to divide its time. They run
        // after the synopses are released, so they find the heap as
        // BuildSynopses found it.
        double bi_s = 0.0, eval_s = 0.0;
        {
          ScopedSpan span(tracer, "storage.block_index", pid, true);
          const double t0 = NowSeconds();
          const cqa::BlockIndex index = cqa::BlockIndex::Build(*noisy);
          bi_s = NowSeconds() - t0;
          if (index.NumRelations() != noisy->NumRelations()) {
            out.Fail(pair.name + ": block index lost relations");
          }
        }
        size_t homs = 0;
        {
          ScopedSpan span(tracer, "query.evaluate", pid, true);
          const double t0 = NowSeconds();
          cqa::CqEvaluator evaluator(noisy.get());
          evaluator.ForEachHomomorphism(pair.query,
                                        [&](const cqa::Homomorphism&) {
                                          ++homs;
                                          return true;
                                        });
          eval_s = NowSeconds() - t0;
        }
        if (homs != result.homomorphisms) {
          out.Fail(pair.name + ": enumeration and BuildSynopses disagree on "
                               "the homomorphism count");
        }
        round_block_index += bi_s;
        round_evaluate += eval_s;
        pair_times[i].block_index.push_back(bi_s);
        pair_times[i].evaluate.push_back(eval_s);
      }

      {
        ScopedSpan span(tracer, "storage.release", pid);
        noisy.reset();
      }
      ++out.attempted;
    }
    round_times.push_back(round_noise + round_build);
    noise_times.push_back(round_noise);
    build_times.push_back(round_build);
    clone_round.push_back(round_clone);
    block_index_round.push_back(round_block_index);
    evaluate_round.push_back(round_evaluate);
    ++rounds;
  } while (NowSeconds() - measure_start < options.seconds);

  // A pair's fold time is its BuildSynopses time minus the block index
  // and the bare enumeration, each taken at its least-disturbed (minimum)
  // reading over the rounds.
  auto least = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  double fold_min = 0.0;
  std::fprintf(stderr, "%-6s %9s %9s %9s %9s %9s %8s %8s %8s\n", "pair",
               "noise_ms", "build_ms", "index_ms", "eval_ms", "fold_ms",
               "answers", "images", "added");
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PairTimes& pt = pair_times[i];
    const double fold =
        least(pt.build) - least(pt.block_index) - least(pt.evaluate);
    if (tracer.enabled()) fold_min = i == 0 ? fold : std::min(fold_min, fold);
    std::fprintf(stderr, "%-6s %9.1f %9.1f %9.1f %9.1f %9.2f %8zu %8zu %8zu\n",
                 pairs[i].name.c_str(), 1e3 * Median(pt.noise),
                 1e3 * Median(pt.build), 1e3 * least(pt.block_index),
                 1e3 * least(pt.evaluate),
                 tracer.enabled() ? 1e3 * fold : 0.0, first_round[i].answers,
                 first_round[i].images, first_round[i].facts_added);
  }
  if (!EstimatesWithinGuarantee(tally.misses, tally.n, 0.25)) {
    out.Fail("Natural estimates on Q1_H/Q6_H miss the (ε, δ) guarantee");
  }

  size_t relevant = 0, added = 0, answers = 0, images = 0, homs = 0;
  for (const PairResult& r : first_round) {
    relevant += r.relevant_facts;
    added += r.facts_added;
    answers += r.answers;
    images += r.images;
    homs += r.homomorphisms;
  }
  const double setup_s = Median(setup_times);
  const double noise_s = Median(noise_times);
  const double preprocess_s = Median(build_times);
  PrintRoundTimes(round_times);
  out.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"round_s", Median(round_times), "s"},
  };
  out.workload_metrics = {
      {"op_p50_ms", 1e3 * Median(op_times), "ms"},
      {"op_p99_ms", 1e3 * Quantile(op_times, 0.99), "ms"},
      {"noise_s", noise_s, "s"},
      {"preprocess_s", preprocess_s, "s"},
      {"rounds", static_cast<double>(rounds), "count"},
      {"estimate_checks", static_cast<double>(tally.n), "count"},
      {"estimate_misses", static_cast<double>(tally.misses), "count"},
  };
  const double bi_s = Median(block_index_round);
  const double eval_s = Median(evaluate_round);
  out.per_layer = {
      {"gen.tpch_s", setup_s, "s"},
      {"gen.noise_relevant_facts", static_cast<double>(relevant), "count"},
      {"gen.noise_facts_added", static_cast<double>(added), "count"},
      {"storage.clone_s", Median(clone_round), "s"},
      {"storage.block_index_s", bi_s, "s"},
      {"query.evaluate_s", eval_s, "s"},
      {"query.homomorphisms", static_cast<double>(homs), "count"},
      {"cqa.fold_s", preprocess_s - bi_s - eval_s, "s"},
      {"cqa.fold_min_pair_s", fold_min, "s"},
      {"cqa.answers", static_cast<double>(answers), "count"},
      {"cqa.images", static_cast<double>(images), "count"},
      {"proc.rss_after_gen_mb", rss_after_gen, "MB"},
      {"proc.rss_after_noise_mb", rss_after_noise, "MB"},
      {"proc.rss_after_preprocess_mb", rss_after_preprocess, "MB"},
      {"noise_s", noise_s, "s"},
      {"preprocess_s", preprocess_s, "s"},
  };
  FinishTrace(tracer, options, &out);
  return out;
}

}  // namespace perfbench
