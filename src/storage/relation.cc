#include "storage/relation.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"

namespace cqa {

std::string TupleToString(const Tuple& t) {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) os << ", ";
    os << t[i];
  }
  os << ')';
  return os.str();
}

Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& positions) {
  Tuple out;
  out.reserve(positions.size());
  for (size_t pos : positions) {
    CQA_CHECK(pos < t.size());
    out.push_back(t[pos]);
  }
  return out;
}

Relation::Relation(const RelationSchema* schema, size_t chunk_capacity)
    : schema_(schema), chunk_capacity_(chunk_capacity) {
  CQA_CHECK(chunk_capacity_ > 0);
  tail_.resize(schema_->arity());
}

size_t Relation::ChunkOf(size_t row, size_t* offset) const {
  CQA_DCHECK(row < num_rows_);
  size_t sealed_rows = num_rows_ - tail_rows_;
  if (row >= sealed_rows) {
    *offset = row - sealed_rows;
    return kTailChunk;
  }
  if (regular_) {
    *offset = row % chunk_capacity_;
    return row / chunk_capacity_;
  }
  // Short chunks exist (forced seals): binary-search the chunk starts.
  size_t lo = 0, hi = chunks_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi + 1) / 2;
    if (chunks_[mid].row0 <= row) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  *offset = row - chunks_[lo].row0;
  return lo;
}

Value Relation::TailValue(size_t offset, size_t col) const {
  const TailColumn& tc = tail_[col];
  switch (schema_->attribute(col).type) {
    case ValueType::kInt:
      return Value(tc.ints[offset]);
    case ValueType::kDouble:
      return Value(tc.doubles[offset]);
    case ValueType::kString:
      return Value(tc.strings[offset]);
  }
  return Value();
}

Value Relation::ValueAt(size_t row, size_t col) const {
  CQA_DCHECK(col < schema_->arity());
  size_t offset = 0;
  size_t c = ChunkOf(row, &offset);
  if (c == kTailChunk) return TailValue(offset, col);
  return chunks_[c].columns[col].GetValue(offset);
}

bool Relation::ValueEquals(size_t row, size_t col, const Value& v) const {
  CQA_DCHECK(col < schema_->arity());
  size_t offset = 0;
  size_t c = ChunkOf(row, &offset);
  if (c != kTailChunk) return chunks_[c].columns[col].ValueEquals(offset, v);
  const TailColumn& tc = tail_[col];
  ValueType type = schema_->attribute(col).type;
  if (v.type() != type) return false;
  switch (type) {
    case ValueType::kInt:
      return tc.ints[offset] == v.AsInt();
    case ValueType::kDouble:
      return tc.doubles[offset] == v.AsDouble();
    case ValueType::kString:
      return tc.strings[offset] == v.AsString();
  }
  return false;
}

bool Relation::CellsEqual(size_t a, size_t b, size_t col) const {
  CQA_DCHECK(col < schema_->arity());
  size_t offset_a = 0, offset_b = 0;
  const size_t chunk_a = ChunkOf(a, &offset_a);
  const size_t chunk_b = ChunkOf(b, &offset_b);
  const TailColumn& tc = tail_[col];
  switch (schema_->attribute(col).type) {
    case ValueType::kInt: {
      auto at = [&](size_t c, size_t offset) {
        return c == kTailChunk ? tc.ints[offset]
                               : chunks_[c].columns[col].IntAt(offset);
      };
      return at(chunk_a, offset_a) == at(chunk_b, offset_b);
    }
    case ValueType::kDouble: {
      auto at = [&](size_t c, size_t offset) {
        return c == kTailChunk ? tc.doubles[offset]
                               : chunks_[c].columns[col].DoubleAt(offset);
      };
      return at(chunk_a, offset_a) == at(chunk_b, offset_b);
    }
    case ValueType::kString: {
      auto at = [&](size_t c, size_t offset) -> const std::string& {
        return c == kTailChunk ? tc.strings[offset]
                               : chunks_[c].columns[col].StringAt(offset);
      };
      return at(chunk_a, offset_a) == at(chunk_b, offset_b);
    }
  }
  return false;
}

bool Relation::RowsEqual(size_t a, size_t b) const {
  if (a == b) return true;
  for (size_t col = 0; col < schema_->arity(); ++col) {
    if (!CellsEqual(a, b, col)) return false;
  }
  return true;
}

bool Relation::SameKey(size_t a, size_t b) const {
  if (!schema_->has_key()) return RowsEqual(a, b);
  for (size_t col : schema_->key_positions()) {
    if (!CellsEqual(a, b, col)) return false;
  }
  return true;
}

Tuple Relation::row(size_t i) const {
  Tuple t;
  t.reserve(schema_->arity());
  for (size_t col = 0; col < schema_->arity(); ++col) {
    t.push_back(ValueAt(i, col));
  }
  return t;
}

std::vector<Tuple> Relation::rows() const {
  std::vector<Tuple> out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(row(i));
  return out;
}

Tuple Relation::KeyOf(size_t i) const {
  CQA_CHECK(i < num_rows_);
  if (!schema_->has_key()) return row(i);
  return ProjectRow(i, schema_->key_positions());
}

Tuple Relation::ProjectRow(size_t i, const std::vector<size_t>& positions)
    const {
  Tuple out;
  out.reserve(positions.size());
  for (size_t pos : positions) {
    CQA_CHECK(pos < schema_->arity());
    out.push_back(ValueAt(i, pos));
  }
  return out;
}

size_t Relation::Insert(Tuple t) {
  CQA_CHECK_MSG(t.size() == schema_->arity(), schema_->name().c_str());
  for (size_t col = 0; col < t.size(); ++col) {
    ValueType want = schema_->attribute(col).type;
    CQA_CHECK_MSG(t[col].type() == want, schema_->name().c_str());
    TailColumn& tc = tail_[col];
    switch (want) {
      case ValueType::kInt:
        tc.ints.push_back(t[col].AsInt());
        break;
      case ValueType::kDouble:
        tc.doubles.push_back(t[col].AsDouble());
        break;
      case ValueType::kString:
        tc.strings.push_back(t[col].AsString());
        break;
    }
  }
  ++tail_rows_;
  ++num_rows_;
  if (tail_rows_ == chunk_capacity_) SealTailChunk();
  return num_rows_ - 1;
}

void Relation::SealTailChunk() {
  Chunk chunk;
  chunk.row0 = num_rows_ - tail_rows_;
  chunk.rows = tail_rows_;
  chunk.columns.reserve(schema_->arity());
  chunk.stats.reserve(schema_->arity());
  for (size_t col = 0; col < schema_->arity(); ++col) {
    TailColumn& tc = tail_[col];
    Segment segment;
    switch (schema_->attribute(col).type) {
      case ValueType::kInt:
        segment = Segment::SealInts(std::move(tc.ints));
        break;
      case ValueType::kDouble:
        segment = Segment::SealDoubles(std::move(tc.doubles));
        break;
      case ValueType::kString:
        segment = Segment::SealStrings(std::move(tc.strings));
        break;
    }
    tc = TailColumn();
    chunk.stats.push_back(BuildChunkColumnStats(segment));
    chunk.columns.push_back(std::move(segment));
  }
  if (chunk.rows != chunk_capacity_) regular_ = false;
  chunks_.push_back(std::move(chunk));
  tail_rows_ = 0;
}

void Relation::SealTail() {
  if (tail_rows_ == 0) return;
  SealTailChunk();
}

void Relation::ForEachRun(
    size_t col, const std::function<void(const ColumnRun&)>& fn) const {
  CQA_CHECK(col < schema_->arity());
  for (const Chunk& chunk : chunks_) {
    fn(chunk.columns[col].Run(chunk.row0));
  }
  if (tail_rows_ > 0) {
    const TailColumn& tc = tail_[col];
    ColumnRun run;
    run.type = schema_->attribute(col).type;
    run.encoding = SegmentEncoding::kPlain;
    run.row0 = num_rows_ - tail_rows_;
    run.length = tail_rows_;
    run.ints = tc.ints.data();
    run.doubles = tc.doubles.data();
    run.strings = tc.strings.data();
    fn(run);
  }
}

namespace {

/// Per-chunk matcher of one (column, constant) conjunct: either a code
/// comparison against a dictionary segment or a typed value comparison.
struct SegmentMatcher {
  const Segment* segment = nullptr;
  const uint32_t* codes = nullptr;  // Non-null iff comparing by code.
  uint32_t code = Segment::kNoCode;
  const Value* want = nullptr;

  bool Matches(size_t offset) const {
    if (codes != nullptr) return codes[offset] == code;
    return segment->ValueEquals(offset, *want);
  }
};

}  // namespace

bool Relation::ScanMatching(const std::vector<size_t>& positions,
                            const Tuple& key,
                            const std::function<bool(size_t)>& fn) const {
  CQA_CHECK(positions.size() == key.size());
  std::vector<SegmentMatcher> matchers(positions.size());
  for (const Chunk& chunk : chunks_) {
    bool skip = false;
    for (size_t i = 0; i < positions.size() && !skip; ++i) {
      skip = !chunk.stats[positions[i]].MayContainEqual(key[i]);
    }
    if (skip) {
      ++chunks_pruned_;
      continue;
    }
    // Resolve dictionary codes once per chunk; an absent code proves the
    // chunk holds no match.
    for (size_t i = 0; i < positions.size() && !skip; ++i) {
      const Segment& segment = chunk.columns[positions[i]];
      matchers[i] = SegmentMatcher{&segment, nullptr, Segment::kNoCode,
                                   &key[i]};
      if (segment.encoding() == SegmentEncoding::kDictionary) {
        matchers[i].code = segment.FindCode(key[i]);
        if (matchers[i].code == Segment::kNoCode) {
          skip = true;
        } else {
          matchers[i].codes = segment.Run(chunk.row0).codes;
        }
      }
    }
    if (skip) {
      ++chunks_pruned_;
      continue;
    }
    for (size_t offset = 0; offset < chunk.rows; ++offset) {
      bool match = true;
      for (const SegmentMatcher& m : matchers) {
        if (!m.Matches(offset)) {
          match = false;
          break;
        }
      }
      if (match && !fn(chunk.row0 + offset)) return false;
    }
  }
  size_t tail_row0 = num_rows_ - tail_rows_;
  for (size_t offset = 0; offset < tail_rows_; ++offset) {
    bool match = true;
    for (size_t i = 0; i < positions.size() && match; ++i) {
      match = ValueEquals(tail_row0 + offset, positions[i], key[i]);
    }
    if (match && !fn(tail_row0 + offset)) return false;
  }
  return true;
}

size_t Relation::MemoryBytes() const {
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) {
    for (const Segment& segment : chunk.columns) {
      bytes += segment.MemoryBytes();
    }
  }
  for (const TailColumn& tc : tail_) {
    bytes += tc.ints.capacity() * sizeof(int64_t) +
             tc.doubles.capacity() * sizeof(double);
    for (const std::string& s : tc.strings) bytes += sizeof(s) + s.capacity();
  }
  return bytes;
}

}  // namespace cqa
