#include "cqa/synopsis.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/rng.h"

namespace cqa {

size_t Synopsis::AddBlock(Block block) {
  CQA_CHECK(block.size >= 1);
  blocks_.push_back(block);
  return blocks_.size() - 1;
}

void Synopsis::Canonicalize(std::vector<ImageFact>* facts) const {
  CQA_CHECK_MSG(!facts->empty(), "an image must contain at least one fact");
  std::sort(facts->begin(), facts->end());
  facts->erase(std::unique(facts->begin(), facts->end()), facts->end());
  for (size_t i = 0; i < facts->size(); ++i) {
    const ImageFact& f = (*facts)[i];
    CQA_CHECK(f.block < blocks_.size());
    CQA_CHECK(f.tid < blocks_[f.block].size);
    if (i > 0) {
      CQA_CHECK_MSG(f.block != (*facts)[i - 1].block,
                    "inconsistent image: two facts in one block");
    }
  }
}

size_t Synopsis::FindSlot(const std::vector<ImageFact>& facts) const {
  uint64_t h = SplitMix64(facts.size());
  for (const ImageFact& f : facts) {
    h = SplitMix64(h ^ ((static_cast<uint64_t>(f.block) << 32) | f.tid));
  }
  const size_t mask = image_slots_.size() - 1;
  for (size_t slot = h & mask;; slot = (slot + 1) & mask) {
    const uint32_t id = image_slots_[slot];
    if (id == 0 || images_[id - 1].facts == facts) return slot;
  }
}

void Synopsis::IndexImages() {
  // Keep the load factor at most 1/2 so probe chains stay short.
  if (2 * (images_.size() + 1) > image_slots_.size()) {
    size_t capacity = 16;
    while (capacity < 4 * (images_.size() + 1)) capacity *= 2;
    image_slots_.assign(capacity, 0);
    indexed_images_ = 0;
  }
  for (; indexed_images_ < images_.size(); ++indexed_images_) {
    image_slots_[FindSlot(images_[indexed_images_].facts)] =
        static_cast<uint32_t>(indexed_images_ + 1);
  }
}

bool Synopsis::AddImage(std::vector<ImageFact> facts) {
  Canonicalize(&facts);
  IndexImages();
  const size_t slot = FindSlot(facts);
  if (image_slots_[slot] != 0) return false;
  images_.push_back(Image{std::move(facts)});
  image_slots_[slot] = static_cast<uint32_t>(images_.size());
  ++indexed_images_;
  return true;
}

void Synopsis::AddDistinctImage(std::vector<ImageFact> facts) {
  Canonicalize(&facts);
  images_.push_back(Image{std::move(facts)});
}

double Synopsis::LogDbSize() const {
  double log_size = 0.0;
  for (const Block& b : blocks_) {
    log_size += std::log10(static_cast<double>(b.size));
  }
  return log_size;
}

std::vector<double> Synopsis::ImageWeights() const {
  std::vector<double> weights;
  weights.reserve(images_.size());
  for (const Image& image : images_) {
    double w = 1.0;
    for (const ImageFact& f : image.facts) {
      w /= static_cast<double>(blocks_[f.block].size);
    }
    weights.push_back(w);
  }
  return weights;
}

double Synopsis::SymbolicToNaturalFactor() const {
  double total = 0.0;
  for (double w : ImageWeights()) total += w;
  return total;
}

bool Synopsis::ImageContainedIn(size_t i, const Choice& choice) const {
  CQA_CHECK(i < images_.size());
  for (const ImageFact& f : images_[i].facts) {
    if (choice[f.block] != f.tid) return false;
  }
  return true;
}

bool Synopsis::AnyImageContainedIn(const Choice& choice) const {
  for (size_t i = 0; i < images_.size(); ++i) {
    if (ImageContainedIn(i, choice)) return true;
  }
  return false;
}

std::string Synopsis::DebugString() const {
  std::ostringstream os;
  os << "Synopsis{blocks=[";
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (b > 0) os << ", ";
    os << blocks_[b].size;
  }
  os << "], images=[";
  for (size_t i = 0; i < images_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '{';
    for (size_t j = 0; j < images_[i].facts.size(); ++j) {
      if (j > 0) os << ' ';
      os << images_[i].facts[j].block << ':' << images_[i].facts[j].tid;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace cqa
