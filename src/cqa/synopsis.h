// The encoded admissible pair (H, B): blocks with cardinalities plus
// consistent homomorphic images as (block, tid) fact lists. Immutable
// after construction and therefore safe to share across any number of
// concurrent scheme runs -- samplers and spaces keep their mutable
// scratch elsewhere (see image_index.h). The serving layer relies on
// this to serve cached synopses lock-free.
#ifndef CQABENCH_CQA_SYNOPSIS_H_
#define CQABENCH_CQA_SYNOPSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/tuple.h"

namespace cqa {

/// The admissible pair (H, B) of §4.1 in encoded form (§5 / Appendix C).
///
/// A synopsis collects, for one candidate answer t̄, the consistent
/// homomorphic images H of Q(t̄) in D and the blocks B of the facts those
/// images touch. The approximation schemes are oblivious to the syntactic
/// shape of facts, so the encoding keeps only:
///   * per block: its cardinality (`kcnt`) plus its origin (relation id +
///     block id within the relation) for traceability;
///   * per image: the facts it contains, each as (local block index,
///     tuple id within the block).
/// Facts of a block that appear in no image are represented implicitly by
/// the block cardinality — exactly the integer-identifier encoding
/// enc(syn) the paper derives from the SQL rewriting Q^rew.
class Synopsis {
 public:
  /// A block of B. `size` >= 1; tuple ids within the block are
  /// [0, size). (relation_id, block_id) locate the block in the database's
  /// BlockIndex (useful for debugging and the noise generator).
  struct Block {
    size_t size = 0;
    size_t relation_id = 0;
    size_t block_id = 0;
  };

  /// One fact of an image: tuple `tid` of local block `block`.
  struct ImageFact {
    uint32_t block = 0;
    uint32_t tid = 0;

    friend bool operator==(const ImageFact& a, const ImageFact& b) {
      return a.block == b.block && a.tid == b.tid;
    }
    friend bool operator<(const ImageFact& a, const ImageFact& b) {
      if (a.block != b.block) return a.block < b.block;
      return a.tid < b.tid;
    }
  };

  /// A consistent homomorphic image H_i: facts sorted by block, at most
  /// one fact per block (consistency), non-empty, duplicate-free.
  struct Image {
    std::vector<ImageFact> facts;
  };

  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Image>& images() const { return images_; }
  size_t NumBlocks() const { return blocks_.size(); }
  size_t NumImages() const { return images_.size(); }
  bool Empty() const { return images_.empty(); }

  /// Registers a block and returns its local index.
  size_t AddBlock(Block block);

  /// Adds an image. `facts` need not be sorted; duplicates are removed.
  /// Aborts if the image maps two distinct facts into one block (it would
  /// not be consistent) or references an unknown block/tid.
  /// Returns false if an identical image was already present (H is a set).
  bool AddImage(std::vector<ImageFact> facts);

  /// Adds an image the caller knows to differ from every image present
  /// (the preprocessing fold of a self-join-free query, where distinct
  /// homomorphisms have distinct images). Validates like AddImage but
  /// keeps no dedup index, so such a synopsis carries none.
  void AddDistinctImage(std::vector<ImageFact> facts);

  /// log10 |db(B)| = Σ log10(block size).
  double LogDbSize() const;

  /// w_i = |I_i| / |db(B)| = Π_{blocks of image i} 1/size, for each image.
  /// These drive the symbolic sampling space: |S•|/|db(B)| = Σ_i w_i.
  std::vector<double> ImageWeights() const;

  /// Σ_i w_i (the factor converting symbolic estimates back to R(H, B)).
  double SymbolicToNaturalFactor() const;

  /// A "choice" is one database of db(B): one tuple id per block.
  using Choice = std::vector<uint32_t>;

  /// True iff image `i` is contained in the database selected by `choice`.
  bool ImageContainedIn(size_t i, const Choice& choice) const;

  /// True iff some image is contained in the selected database.
  bool AnyImageContainedIn(const Choice& choice) const;

  std::string DebugString() const;

 private:
  /// Sorts, dedups and validates an image's facts.
  void Canonicalize(std::vector<ImageFact>* facts) const;

  /// Open-addressing slot of `facts`: the slot holding an equal image, or
  /// the empty slot where it belongs.
  size_t FindSlot(const std::vector<ImageFact>& facts) const;

  /// Brings the dedup index up to date with images_ (images added through
  /// AddDistinctImage are indexed on the next AddImage).
  void IndexImages();

  std::vector<Block> blocks_;
  std::vector<Image> images_;
  // Set semantics for AddImage: a hash table of image ids + 1 (0 = empty)
  // over images_, so no image is stored twice. Holds the first
  // `indexed_images_` images; empty unless AddImage was called.
  std::vector<uint32_t> image_slots_;
  size_t indexed_images_ = 0;
};

}  // namespace cqa

#endif  // CQABENCH_CQA_SYNOPSIS_H_
