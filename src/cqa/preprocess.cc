#include "cqa/preprocess.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cqa/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/audit.h"

namespace cqa {

namespace {

/// A fact in global (relation, block, tid) coordinates.
struct GlobalFact {
  size_t relation_id;
  size_t block_id;
  size_t tid;

  friend bool operator<(const GlobalFact& a, const GlobalFact& b) {
    if (a.relation_id != b.relation_id) return a.relation_id < b.relation_id;
    if (a.block_id != b.block_id) return a.block_id < b.block_id;
    return a.tid < b.tid;
  }
  friend bool operator==(const GlobalFact& a, const GlobalFact& b) {
    return a.relation_id == b.relation_id && a.block_id == b.block_id &&
           a.tid == b.tid;
  }
};

/// Per-answer builder mapping global blocks to local synopsis blocks.
struct SynopsisBuilder {
  Synopsis synopsis;
  std::unordered_map<size_t, size_t> local_block;  // packed key -> local id

  static size_t PackKey(size_t relation_id, size_t block_id) {
    // Relations are few (< 2^10); block ids fit comfortably in 54 bits.
    return (relation_id << 54) | block_id;
  }

  /// The global coordinates of fact `f` of a stored image.
  GlobalFact Global(const Synopsis::ImageFact& f) const {
    const Synopsis::Block& b = synopsis.blocks()[f.block];
    return GlobalFact{b.relation_id, b.block_id, f.tid};
  }
};

/// The globally distinct images of a query with a repeated relation, as a
/// hash set of references (answer << 32 | image) into the synopses being
/// built: no image is copied to dedup it. Two references are equal when
/// their images hold the same global facts; the hash sums per-fact mixes,
/// so it does not depend on the local block order a synopsis stores the
/// facts in.
struct ImageRefs {
  const std::vector<SynopsisBuilder>* builders;

  const SynopsisBuilder& Builder(uint64_t ref) const {
    return (*builders)[ref >> 32];
  }
  const std::vector<Synopsis::ImageFact>& Facts(uint64_t ref) const {
    return Builder(ref).synopsis.images()[ref & UINT32_MAX].facts;
  }

  size_t operator()(uint64_t ref) const {
    uint64_t h = 0;
    for (const Synopsis::ImageFact& f : Facts(ref)) {
      const GlobalFact g = Builder(ref).Global(f);
      h += SplitMix64(
          SplitMix64(SynopsisBuilder::PackKey(g.relation_id, g.block_id)) ^
          g.tid);
    }
    return static_cast<size_t>(h);
  }

  bool operator()(uint64_t a, uint64_t b) const {
    const std::vector<Synopsis::ImageFact>& fa = Facts(a);
    const std::vector<Synopsis::ImageFact>& fb = Facts(b);
    if (fa.size() != fb.size()) return false;
    // Images hold a handful of facts: a quadratic scan beats sorting.
    return std::all_of(fa.begin(), fa.end(), [&](const Synopsis::ImageFact& f) {
      const GlobalFact g = Builder(a).Global(f);
      return std::any_of(fb.begin(), fb.end(),
                         [&](const Synopsis::ImageFact& e) {
                           return Builder(b).Global(e) == g;
                         });
    });
  }
};

/// True iff no relation occurs in two atoms of `q`.
bool IsSelfJoinFree(const ConjunctiveQuery& q) {
  std::unordered_set<size_t> relations;
  for (const Atom& atom : q.atoms()) {
    if (!relations.insert(atom.relation_id).second) return false;
  }
  return true;
}

}  // namespace

double PreprocessResult::Balance() const {
  if (answers_.empty() || stats_.num_distinct_images == 0) return 0.0;
  return static_cast<double>(answers_.size()) /
         static_cast<double>(stats_.num_distinct_images);
}

PreprocessResult BuildSynopses(const Database& db, const ConjunctiveQuery& q,
                               DatabaseIndexCache* cache) {
  Stopwatch watch;
  obs::TraceSpan span("preprocess.build_synopses");
  CQA_OBS_COUNT("preprocess.builds");
  // The columnar plane (chunk tiling, dictionaries, pruning statistics)
  // must be structurally sound before block construction trusts it.
  CQA_AUDIT(audit::CheckColumnarStorage, db);
  BlockIndex block_index = BlockIndex::Build(db);
  // Synopses encode blocks by (relation, block, tid) coordinates; a block
  // structure that fails to partition the relations corrupts every
  // estimate downstream.
  CQA_AUDIT(audit::CheckBlockPartition, db, block_index);
  PreprocessStats stats;

  // For a self-join-free Q each atom maps into its own relation, so an
  // image fixes the fact of every atom and with it the homomorphism:
  // distinct homomorphisms have distinct images, and no image can put two
  // facts into one block. Such a fold needs neither dedup nor the
  // consistency check. Its images come out sorted when the atoms are
  // visited in relation order.
  const bool self_join_free = IsSelfJoinFree(q);
  std::vector<size_t> atoms_by_relation(q.NumAtoms());
  std::iota(atoms_by_relation.begin(), atoms_by_relation.end(), 0);
  std::sort(atoms_by_relation.begin(), atoms_by_relation.end(),
            [&](size_t a, size_t b) {
              return q.atom(a).relation_id < q.atom(b).relation_id;
            });

  std::unordered_map<Tuple, size_t, TupleHash> answer_index;
  std::vector<AnswerSynopsis> answers;
  std::vector<SynopsisBuilder> builders;
  const ImageRefs image_refs{&builders};
  std::unordered_set<uint64_t, ImageRefs, ImageRefs> distinct_images(
      0, image_refs, image_refs);

  CqEvaluator evaluator(&db, cache);
  std::vector<GlobalFact> image;
  // Scratch answer tuple: looked up before anything is inserted, so a
  // homomorphism of a known answer allocates no map node.
  Tuple answer(q.answer_vars().size());
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    ++stats.num_homomorphisms;
    // Translate the image to (rid, bid, tid) coordinates and check
    // consistency: h(Q) |= Σ iff no block receives two distinct tuples.
    image.clear();
    for (size_t atom : atoms_by_relation) {
      const FactRef& f = h.image[atom];
      const BlockAnnotation& ann =
          block_index.relation(f.relation_id).annotation(f.row);
      image.push_back(GlobalFact{f.relation_id, ann.block_id, ann.tuple_id});
    }
    if (!self_join_free) {
      std::sort(image.begin(), image.end());
      image.erase(std::unique(image.begin(), image.end()), image.end());
      for (size_t i = 1; i < image.size(); ++i) {
        if (image[i].relation_id == image[i - 1].relation_id &&
            image[i].block_id == image[i - 1].block_id) {
          return true;  // Inconsistent image; skip.
        }
      }
    }

    for (size_t i = 0; i < answer.size(); ++i) {
      answer[i] = h.assignment[q.answer_vars()[i]];
    }
    auto it = answer_index.find(answer);
    if (it == answer_index.end()) {
      it = answer_index.emplace(answer, builders.size()).first;
      answers.push_back(AnswerSynopsis{answer, Synopsis()});
      builders.emplace_back();
    }
    const size_t answer_id = it->second;
    SynopsisBuilder& builder = builders[answer_id];

    std::vector<Synopsis::ImageFact> facts;
    facts.reserve(image.size());
    for (const GlobalFact& g : image) {
      const size_t key = SynopsisBuilder::PackKey(g.relation_id, g.block_id);
      auto bit = builder.local_block.find(key);
      if (bit == builder.local_block.end()) {
        const size_t size =
            block_index.relation(g.relation_id).block(g.block_id).size();
        bit = builder.local_block
                  .emplace(key, builder.synopsis.AddBlock(Synopsis::Block{
                                    size, g.relation_id, g.block_id}))
                  .first;
      }
      facts.push_back(Synopsis::ImageFact{static_cast<uint32_t>(bit->second),
                                          static_cast<uint32_t>(g.tid)});
    }
    if (self_join_free) {
      builder.synopsis.AddDistinctImage(std::move(facts));
      ++stats.num_images;
    } else if (builder.synopsis.AddImage(std::move(facts))) {
      ++stats.num_images;
      distinct_images.insert(answer_id << 32 |
                             (builder.synopsis.NumImages() - 1));
    }
    return true;
  });

  for (size_t i = 0; i < answers.size(); ++i) {
    answers[i].synopsis = std::move(builders[i].synopsis);
    CQA_OBS_OBSERVE("preprocess.synopsis_images",
                    answers[i].synopsis.NumImages());
    CQA_OBS_OBSERVE("preprocess.synopsis_blocks",
                    answers[i].synopsis.NumBlocks());
  }
  stats.num_distinct_images =
      self_join_free ? stats.num_images : distinct_images.size();
  stats.seconds = watch.ElapsedSeconds();
  CQA_OBS_COUNT_N("preprocess.homomorphisms", stats.num_homomorphisms);
  CQA_OBS_COUNT_N("preprocess.consistent_images", stats.num_images);
  CQA_OBS_COUNT_N("preprocess.answers", answers.size());
  PreprocessResult result(std::move(answers), std::move(block_index), stats);
  // The proof obligation of the skipped dedup: no image of a
  // self-join-free query occurs twice, within an answer or across answers.
  if (self_join_free) CQA_AUDIT(audit::CheckImagesDistinct, result);
  return result;
}

}  // namespace cqa
