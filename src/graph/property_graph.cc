#include "graph/property_graph.h"

#include <algorithm>
#include <functional>

namespace kaskade::graph {

namespace {

using IndexEntry = std::pair<uint64_t, VertexId>;

uint64_t HashValue(const std::string& value) {
  return std::hash<std::string>{}(value);
}

void InsertEntry(std::vector<IndexEntry>* entries, IndexEntry entry) {
  entries->insert(std::lower_bound(entries->begin(), entries->end(), entry),
                  entry);
}

void EraseEntry(std::vector<IndexEntry>* entries, IndexEntry entry) {
  auto it = std::lower_bound(entries->begin(), entries->end(), entry);
  if (it != entries->end() && *it == entry) entries->erase(it);
}

}  // namespace

Result<VertexId> PropertyGraph::AddVertex(const std::string& type_name,
                                          PropertyMap properties) {
  VertexTypeId type = schema_.FindVertexType(type_name);
  if (type == kInvalidTypeId) {
    return Status::NotFound("unknown vertex type '" + type_name + "'");
  }
  return AddVertexOfType(type, std::move(properties));
}

VertexId PropertyGraph::AddVertexOfType(VertexTypeId type,
                                        PropertyMap properties) {
  VertexId id = static_cast<VertexId>(vertex_types_.size());
  vertex_types_.push_back(type);
  vertex_props_.push_back(std::move(properties));
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  vertex_live_.push_back(true);
  if (type >= vertex_type_counts_.size()) vertex_type_counts_.resize(type + 1, 0);
  ++vertex_type_counts_[type];
  std::lock_guard<std::mutex> lock(index_cache_.mu);
  IndexVertexLocked(id, /*add=*/true);
  return id;
}

Result<EdgeId> PropertyGraph::AddEdge(VertexId source, VertexId target,
                                      const std::string& type_name,
                                      PropertyMap properties) {
  EdgeTypeId type = schema_.FindEdgeType(type_name);
  if (type == kInvalidTypeId) {
    return Status::NotFound("unknown edge type '" + type_name + "'");
  }
  return AddEdgeOfType(source, target, type, std::move(properties));
}

Result<EdgeId> PropertyGraph::AddEdgeOfType(VertexId source, VertexId target,
                                            EdgeTypeId type,
                                            PropertyMap properties) {
  if (source >= NumVertices() || target >= NumVertices()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  const EdgeTypeDecl& decl = schema_.edge_type(type);
  if (vertex_types_[source] != decl.source_type) {
    return Status::InvalidArgument(
        "edge type '" + decl.name + "' requires source type '" +
        schema_.vertex_type_name(decl.source_type) + "' but got '" +
        schema_.vertex_type_name(vertex_types_[source]) + "'");
  }
  if (vertex_types_[target] != decl.target_type) {
    return Status::InvalidArgument(
        "edge type '" + decl.name + "' requires target type '" +
        schema_.vertex_type_name(decl.target_type) + "' but got '" +
        schema_.vertex_type_name(vertex_types_[target]) + "'");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(EdgeRecord{source, target, type});
  edge_props_.push_back(std::move(properties));
  out_edges_[source].push_back(id);
  in_edges_[target].push_back(id);
  edge_live_.push_back(true);
  if (type >= edge_type_counts_.size()) edge_type_counts_.resize(type + 1, 0);
  ++edge_type_counts_[type];
  return id;
}

Status PropertyGraph::RemoveEdge(EdgeId e) {
  if (e >= NumEdges()) return Status::OutOfRange("edge id out of range");
  if (!edge_live_[e]) {
    return Status::FailedPrecondition("edge " + std::to_string(e) +
                                      " was already removed");
  }
  const EdgeRecord& rec = edges_[e];
  auto unlink = [e](std::vector<EdgeId>* list) {
    list->erase(std::find(list->begin(), list->end(), e));
  };
  unlink(&out_edges_[rec.source]);
  unlink(&in_edges_[rec.target]);
  edge_live_[e] = false;
  ++num_removed_edges_;
  --edge_type_counts_[rec.type];
  return Status::OK();
}

Status PropertyGraph::ReleaseEdgeProperties(EdgeId e) {
  if (e >= NumEdges()) return Status::OutOfRange("edge id out of range");
  if (edge_live_[e]) {
    return Status::FailedPrecondition("edge " + std::to_string(e) +
                                      " is live");
  }
  edge_props_[e] = PropertyMap();
  return Status::OK();
}

Status PropertyGraph::RemoveVertex(VertexId v) {
  if (v >= NumVertices()) return Status::OutOfRange("vertex id out of range");
  if (!vertex_live_[v]) {
    return Status::FailedPrecondition("vertex " + std::to_string(v) +
                                      " was already removed");
  }
  if (!out_edges_[v].empty() || !in_edges_[v].empty()) {
    return Status::FailedPrecondition(
        "vertex " + std::to_string(v) + " still has live incident edges");
  }
  {
    std::lock_guard<std::mutex> lock(index_cache_.mu);
    IndexVertexLocked(v, /*add=*/false);
  }
  vertex_live_[v] = false;
  ++num_removed_vertices_;
  --vertex_type_counts_[vertex_types_[v]];
  return Status::OK();
}

Status PropertyGraph::SetVertexProperty(VertexId v, const std::string& key,
                                        PropertyValue value) {
  if (v >= NumVertices()) return Status::OutOfRange("vertex id out of range");
  std::lock_guard<std::mutex> lock(index_cache_.mu);
  for (EqualityIndex& index : index_cache_.indexes) {
    // Dead vertices are in no index, whatever their properties say.
    if (index.type != vertex_types_[v] || index.key != key ||
        !vertex_live_[v]) {
      continue;
    }
    const PropertyValue* old = vertex_props_[v].Find(key);
    if (old != nullptr && old->is_string()) {
      EraseEntry(&index.entries, {HashValue(old->as_string()), v});
    }
    if (value.is_string()) {
      InsertEntry(&index.entries, {HashValue(value.as_string()), v});
    }
  }
  vertex_props_[v].Set(key, std::move(value));
  return Status::OK();
}

Status PropertyGraph::SetEdgeProperty(EdgeId e, const std::string& key,
                                      PropertyValue value) {
  if (e >= NumEdges()) return Status::OutOfRange("edge id out of range");
  edge_props_[e].Set(key, std::move(value));
  return Status::OK();
}

std::vector<VertexId> PropertyGraph::VerticesOfType(VertexTypeId type) const {
  std::vector<VertexId> out;
  out.reserve(NumVerticesOfType(type));
  for (VertexId v = 0; v < vertex_types_.size(); ++v) {
    if (vertex_types_[v] == type && vertex_live_[v]) out.push_back(v);
  }
  return out;
}

void PropertyGraph::IndexVertexLocked(VertexId v, bool add) {
  for (EqualityIndex& index : index_cache_.indexes) {
    if (index.type != vertex_types_[v]) continue;
    const PropertyValue* value = vertex_props_[v].Find(index.key);
    if (value == nullptr || !value->is_string()) continue;
    const IndexEntry entry{HashValue(value->as_string()), v};
    if (add) {
      InsertEntry(&index.entries, entry);
    } else {
      EraseEntry(&index.entries, entry);
    }
  }
}

void PropertyGraph::ProbeStringEquality(VertexTypeId type,
                                        const std::string& key,
                                        const std::string& value,
                                        std::vector<VertexId>* out) const {
  const uint64_t hash = HashValue(value);
  std::lock_guard<std::mutex> lock(index_cache_.mu);
  std::vector<EqualityIndex>& indexes = index_cache_.indexes;
  auto index = std::find_if(
      indexes.begin(), indexes.end(), [&](const EqualityIndex& i) {
        return i.type == type && i.key == key;
      });
  if (index == indexes.end()) {
    EqualityIndex built{type, key, {}};
    for (VertexId v = 0; v < vertex_types_.size(); ++v) {
      if (vertex_types_[v] != type || !vertex_live_[v]) continue;
      const PropertyValue* p = vertex_props_[v].Find(key);
      if (p != nullptr && p->is_string()) {
        built.entries.emplace_back(HashValue(p->as_string()), v);
      }
    }
    std::sort(built.entries.begin(), built.entries.end());
    built.entries.shrink_to_fit();
    indexes.push_back(std::move(built));
    index = indexes.end() - 1;
  }
  const std::vector<IndexEntry>& entries = index->entries;
  for (auto it = std::lower_bound(entries.begin(), entries.end(),
                                  IndexEntry{hash, 0});
       it != entries.end() && it->first == hash; ++it) {
    out->push_back(it->second);
  }
}

bool PropertyGraph::HasEdgeBetween(VertexId source, VertexId target) const {
  if (source >= NumVertices()) return false;
  // Scan the smaller of the two incident lists.
  if (out_edges_[source].size() <= in_edges_[target].size()) {
    for (EdgeId e : out_edges_[source]) {
      if (edges_[e].target == target) return true;
    }
  } else {
    for (EdgeId e : in_edges_[target]) {
      if (edges_[e].source == source) return true;
    }
  }
  return false;
}

size_t PropertyGraph::EstimateSizeBytes() const {
  // Topology: per-vertex type id + two adjacency vectors; per-edge record
  // plus its two adjacency slots.
  size_t bytes = vertex_types_.size() *
                 (sizeof(VertexTypeId) + 2 * sizeof(std::vector<EdgeId>));
  bytes += edges_.size() * (sizeof(EdgeRecord) + 2 * sizeof(EdgeId));
  return bytes;
}

}  // namespace kaskade::graph
