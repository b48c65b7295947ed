#include "graph/property_value.h"

#include <memory>
#include <new>
#include <sstream>

namespace kaskade::graph {

std::string PropertyValue::ToString() const {
  if (is_null()) return "null";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    std::ostringstream os;
    os << as_double();
    return os.str();
  }
  return as_string();
}

bool PropertyValue::operator==(const PropertyValue& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return ToDouble() == other.ToDouble();
  }
  return repr_ == other.repr_;
}

bool PropertyValue::operator<(const PropertyValue& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() < other.as_int();
    return ToDouble() < other.ToDouble();
  }
  if (TypeRank() != other.TypeRank()) return TypeRank() < other.TypeRank();
  return repr_ < other.repr_;
}

bool PropertyValue::operator<=(const PropertyValue& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() <= other.as_int();
    return ToDouble() <= other.ToDouble();
  }
  if (TypeRank() != other.TypeRank()) return TypeRank() < other.TypeRank();
  return repr_ <= other.repr_;
}

PropertyMap::Block* PropertyMap::Allocate(size_t n) {
  return static_cast<Block*>(
      ::operator new(sizeof(Block) + n * sizeof(Entry)));
}

void PropertyMap::Release() {
  if (block_ == nullptr) return;
  std::destroy_n(entries(), block_->size);
  ::operator delete(block_);
  block_ = nullptr;
}

PropertyMap::PropertyMap(std::initializer_list<Entry> init) {
  for (const auto& [k, v] : init) Set(k, v);
}

PropertyMap::PropertyMap(const PropertyMap& other) {
  const size_t n = other.size();
  if (n == 0) return;
  block_ = Allocate(n);
  block_->size = 0;
  try {
    for (const Entry& e : other) {
      new (entries() + block_->size) Entry(e);
      ++block_->size;
    }
  } catch (...) {
    Release();
    throw;
  }
}

PropertyMap& PropertyMap::operator=(const PropertyMap& other) {
  if (this != &other) {
    PropertyMap copy(other);
    std::swap(block_, copy.block_);
  }
  return *this;
}

void PropertyMap::Set(const std::string& key, PropertyValue value) {
  for (Entry* e = entries(); e != entries() + size(); ++e) {
    if (e->first == key) {
      e->second = std::move(value);
      return;
    }
  }
  // Maps hold a handful of keys: grow by exactly one. The new entry is
  // built first, so a throwing copy of `key` leaves the map unchanged.
  const size_t n = size();
  Block* grown = Allocate(n + 1);
  Entry* dst = reinterpret_cast<Entry*>(grown + 1);
  try {
    new (dst + n) Entry(key, std::move(value));
  } catch (...) {
    ::operator delete(grown);
    throw;
  }
  std::uninitialized_move_n(entries(), n, dst);
  grown->size = n + 1;
  Release();
  block_ = grown;
}

const PropertyValue* PropertyMap::Find(const std::string& key) const {
  for (const auto& [k, v] : *this) {
    if (k == key) return &v;
  }
  return nullptr;
}

PropertyValue PropertyMap::GetOrNull(const std::string& key) const {
  const PropertyValue* v = Find(key);
  return v == nullptr ? PropertyValue() : *v;
}

}  // namespace kaskade::graph
