/// \file property_value.h
/// \brief Dynamically-typed property values attached to vertices and edges
/// of a property graph (§III-A of the Kaskade paper).

#ifndef KASKADE_GRAPH_PROPERTY_VALUE_H_
#define KASKADE_GRAPH_PROPERTY_VALUE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace kaskade::graph {

/// \brief A property value: null, boolean, 64-bit integer, double, or
/// string.
///
/// The property-graph data model attaches key/value pairs to both vertices
/// and edges. Values are compared first by type rank (null < bool < int <
/// double < string), then by value, so they can be used as grouping keys.
class PropertyValue {
 public:
  PropertyValue() : repr_(std::monostate{}) {}
  PropertyValue(bool v) : repr_(v) {}                       // NOLINT
  PropertyValue(int64_t v) : repr_(v) {}                    // NOLINT
  PropertyValue(int v) : repr_(static_cast<int64_t>(v)) {}  // NOLINT
  PropertyValue(double v) : repr_(v) {}                     // NOLINT
  PropertyValue(std::string v) : repr_(std::move(v)) {}     // NOLINT
  PropertyValue(const char* v) : repr_(std::string(v)) {}   // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  /// True for int or double.
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(repr_); }
  int64_t as_int() const { return std::get<int64_t>(repr_); }
  double as_double() const { return std::get<double>(repr_); }
  const std::string& as_string() const { return std::get<std::string>(repr_); }

  /// Numeric value widened to double; 0.0 for non-numeric values.
  double ToDouble() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    if (is_bool()) return as_bool() ? 1.0 : 0.0;
    return 0.0;
  }

  /// Renders the value for display ("null", "true", "42", "1.5", "abc").
  std::string ToString() const;

  bool operator==(const PropertyValue& other) const;
  bool operator!=(const PropertyValue& other) const { return !(*this == other); }
  /// Total order: by type rank, then value (numerics compared as double
  /// within the cross-type numeric case).
  bool operator<(const PropertyValue& other) const;
  /// First-class `<=` (single comparison, not `a < b || a == b`).
  bool operator<=(const PropertyValue& other) const;
  bool operator>(const PropertyValue& other) const { return other < *this; }
  bool operator>=(const PropertyValue& other) const { return other <= *this; }

 private:
  int TypeRank() const { return static_cast<int>(repr_.index()); }

  std::variant<std::monostate, bool, int64_t, double, std::string> repr_;
};

/// \brief A flat list of key/value pairs; small maps dominate so linear
/// scan beats hashing.
///
/// One pointer wide: the entries live in a single heap block holding
/// their count, and an empty map holds no block. Graphs keep one map
/// per vertex and per edge id, most edges carry no properties, and
/// tombstoned view edges release theirs.
class PropertyMap {
 public:
  using Entry = std::pair<std::string, PropertyValue>;

  PropertyMap() = default;
  PropertyMap(std::initializer_list<Entry> init);
  PropertyMap(const PropertyMap& other);
  PropertyMap(PropertyMap&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  PropertyMap& operator=(const PropertyMap& other);
  PropertyMap& operator=(PropertyMap&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~PropertyMap() { Release(); }

  /// Inserts or overwrites `key`.
  void Set(const std::string& key, PropertyValue value);

  /// Returns the value for `key`, or nullptr when absent.
  const PropertyValue* Find(const std::string& key) const;

  /// Returns the value for `key`, or a null PropertyValue when absent.
  PropertyValue GetOrNull(const std::string& key) const;

  bool Contains(const std::string& key) const { return Find(key) != nullptr; }
  size_t size() const { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const { return size() == 0; }

  const Entry* begin() const { return entries(); }
  const Entry* end() const { return entries() + size(); }

  bool operator==(const PropertyMap& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  /// Header of the heap block; `size` entries follow it.
  struct Block {
    size_t size;
  };
  static_assert(alignof(Entry) <= alignof(Block));

  Entry* entries() const {
    return block_ == nullptr ? nullptr : reinterpret_cast<Entry*>(block_ + 1);
  }
  /// Raw block with room for `n` entries; `size` is left to the caller.
  static Block* Allocate(size_t n);
  /// Destroys the entries and frees the block.
  void Release();

  Block* block_ = nullptr;
};

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_PROPERTY_VALUE_H_
