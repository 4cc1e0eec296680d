#include "storage/segment.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace cqa {

const char* SegmentEncodingName(SegmentEncoding encoding) {
  switch (encoding) {
    case SegmentEncoding::kPlain:
      return "plain";
    case SegmentEncoding::kDictionary:
      return "dictionary";
  }
  return "?";
}

Value ColumnRun::ValueAt(size_t i) const {
  CQA_DCHECK(i < length);
  if (encoding == SegmentEncoding::kDictionary) {
    uint32_t code = codes[i];
    CQA_DCHECK(code < dict_size);
    if (type == ValueType::kInt) return Value(int_dict[code]);
    return Value(string_dict[code]);
  }
  switch (type) {
    case ValueType::kInt:
      return Value(ints[i]);
    case ValueType::kDouble:
      return Value(doubles[i]);
    case ValueType::kString:
      return Value(strings[i]);
  }
  return Value();
}

namespace {

/// Row ids of `values` in ascending value order, plus the number of
/// distinct values. This single index sort is all a seal needs: the
/// distinct count picks the encoding, and one walk over the order yields
/// the sorted dictionary and every row's code.
template <typename T>
std::vector<uint32_t> SortedOrder(const std::vector<T>& values,
                                  size_t* distinct) {
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  *distinct = values.empty() ? 0 : 1;
  for (size_t i = 1; i < order.size(); ++i) {
    if (values[order[i - 1]] < values[order[i]]) ++*distinct;
  }
  return order;
}

/// Builds the sorted duplicate-free dictionary and per-row codes from the
/// order SortedOrder returned. Dictionary entries are copies, so their
/// capacity is exactly their length.
template <typename T>
void BuildDictionary(const std::vector<T>& values,
                     const std::vector<uint32_t>& order, size_t distinct,
                     std::vector<T>* dict, std::vector<uint32_t>* codes) {
  dict->reserve(distinct);
  codes->resize(values.size());
  for (uint32_t row : order) {
    if (dict->empty() || dict->back() < values[row]) {
      dict->push_back(values[row]);
    }
    (*codes)[row] = static_cast<uint32_t>(dict->size() - 1);
  }
}

}  // namespace

Segment Segment::SealInts(std::vector<int64_t> values) {
  Segment s;
  s.type_ = ValueType::kInt;
  s.size_ = values.size();
  size_t distinct = 0;
  const std::vector<uint32_t> order = SortedOrder(values, &distinct);
  if (!values.empty() && 2 * distinct <= values.size()) {
    s.encoding_ = SegmentEncoding::kDictionary;
    BuildDictionary(values, order, distinct, &s.int_dict_, &s.codes_);
  } else {
    s.encoding_ = SegmentEncoding::kPlain;
    s.ints_ = std::move(values);
  }
  return s;
}

Segment Segment::SealDoubles(std::vector<double> values) {
  Segment s;
  s.type_ = ValueType::kDouble;
  s.size_ = values.size();
  s.encoding_ = SegmentEncoding::kPlain;
  s.doubles_ = std::move(values);
  return s;
}

Segment Segment::SealStrings(std::vector<std::string> values) {
  Segment s;
  s.type_ = ValueType::kString;
  s.size_ = values.size();
  size_t distinct = 0;
  const std::vector<uint32_t> order = SortedOrder(values, &distinct);
  if (!values.empty() && distinct < values.size()) {
    s.encoding_ = SegmentEncoding::kDictionary;
    BuildDictionary(values, order, distinct, &s.string_dict_, &s.codes_);
  } else {
    s.encoding_ = SegmentEncoding::kPlain;
    s.strings_ = std::move(values);
  }
  return s;
}

Value Segment::GetValue(size_t i) const {
  CQA_DCHECK(i < size_);
  switch (type_) {
    case ValueType::kInt:
      return Value(IntAt(i));
    case ValueType::kDouble:
      return Value(DoubleAt(i));
    case ValueType::kString:
      return Value(StringAt(i));
  }
  return Value();
}

bool Segment::ValueEquals(size_t i, const Value& v) const {
  CQA_DCHECK(i < size_);
  if (v.type() != type_) return false;
  switch (type_) {
    case ValueType::kInt:
      return IntAt(i) == v.AsInt();
    case ValueType::kDouble:
      return DoubleAt(i) == v.AsDouble();
    case ValueType::kString:
      return StringAt(i) == v.AsString();
  }
  return false;
}

ColumnRun Segment::Run(size_t row0) const {
  ColumnRun run;
  run.type = type_;
  run.encoding = encoding_;
  run.row0 = row0;
  run.length = size_;
  if (encoding_ == SegmentEncoding::kDictionary) {
    run.codes = codes_.data();
    run.int_dict = int_dict_.data();
    run.string_dict = string_dict_.data();
    run.dict_size = dict_size();
  } else {
    run.ints = ints_.data();
    run.doubles = doubles_.data();
    run.strings = strings_.data();
  }
  return run;
}

uint32_t Segment::FindCode(const Value& v) const {
  if (encoding_ != SegmentEncoding::kDictionary || v.type() != type_) {
    return kNoCode;
  }
  if (type_ == ValueType::kInt) {
    auto it = std::lower_bound(int_dict_.begin(), int_dict_.end(), v.AsInt());
    if (it == int_dict_.end() || *it != v.AsInt()) return kNoCode;
    return static_cast<uint32_t>(it - int_dict_.begin());
  }
  auto it = std::lower_bound(string_dict_.begin(), string_dict_.end(),
                             v.AsString());
  if (it == string_dict_.end() || *it != v.AsString()) return kNoCode;
  return static_cast<uint32_t>(it - string_dict_.begin());
}

size_t Segment::dict_size() const {
  if (encoding_ != SegmentEncoding::kDictionary) return 0;
  return type_ == ValueType::kInt ? int_dict_.size() : string_dict_.size();
}

size_t Segment::MemoryBytes() const {
  size_t bytes = ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(uint32_t) +
                 int_dict_.capacity() * sizeof(int64_t);
  for (const std::string& s : strings_) bytes += sizeof(s) + s.capacity();
  for (const std::string& s : string_dict_) bytes += sizeof(s) + s.capacity();
  return bytes;
}

}  // namespace cqa
