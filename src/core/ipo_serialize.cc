// Binary persistence of an IPO tree.
//
// Layout (little-endian, fixed-width):
//   magic "NIPO", version u32
//   fingerprint: num_rows u64, num_nominal u32, cardinalities u32[]
//                (num_nominal entries, no count prefix)
//   template: per nominal dim, choice count u64 + choice ids u32[]
//   options: A-set flag u8, max_values_per_dim u64
//   skyline: count u64 + row ids u32[]
//   allowed values: per dim, count u64 + value ids u32[]
//   nodes: disqualified sets in construction (preorder) order, each as
//          count u64 + row ids u32[]; the tree SHAPE is a pure function of
//          the allowed-value lists, so no structural metadata is stored.
//          Every A-set row must be a row of the skyline.
//   build stats: num_nodes u64, total_disqualified u64, mdc_conditions u64
//
// The A-set flag once chose between sorted-vector and bitmap A-sets. Both
// wrote A-sets as the row-id lists above, so the byte no longer selects
// anything: Save writes 1, and Load accepts 0 or 1 and builds bitmap
// A-sets either way. Any other value is rejected as malformed.
//
// Primitive encoding rides on common/serialize.h (u32 vectors are
// BinaryWriter::PodVector: u64 count + raw elements), which this format
// originated — the layout predates the shared serializer and is pinned
// byte-identical by tests/ipo_serialize_test.cc.

#include <fstream>

#include "common/serialize.h"
#include "core/ipo_tree.h"

namespace nomsky {

namespace {

constexpr char kMagic[4] = {'N', 'I', 'P', 'O'};
constexpr uint32_t kVersion = 1;

}  // namespace

Status IpoTreeEngine::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::Internal("cannot open '", path, "' for writing");
  }
  BinaryWriter writer(out);
  writer.Magic(kMagic, kVersion);

  const Schema& schema = data_->schema();
  writer.Pod<uint64_t>(data_->num_rows());
  writer.Pod<uint32_t>(static_cast<uint32_t>(schema.num_nominal()));
  for (DimId d : schema.nominal_dims()) {
    writer.Pod<uint32_t>(static_cast<uint32_t>(schema.dim(d).cardinality()));
  }
  for (size_t j = 0; j < schema.num_nominal(); ++j) {
    writer.PodVector(template_->pref(j).choices());
  }
  writer.Pod<uint8_t>(1);  // A-set flag, see the layout above
  writer.Pod<uint64_t>(options_.max_values_per_dim);

  writer.PodVector(skyline_);
  for (const auto& values : allowed_) writer.PodVector(values);

  // Disqualified sets in the same recursion order as BuildSubtree.
  auto write_node = [&](auto&& self, const Node& node) -> void {
    for (const auto& child : node.children) {
      if (child == nullptr) continue;
      // Choice children store an A-set; the φ child (last slot) stores an
      // empty one — writing it uniformly keeps the format simple.
      std::vector<uint32_t> rows;
      child->a_bits.ForEachSetBit(
          [&](size_t i) { rows.push_back(skyline_[i]); });
      writer.PodVector(rows);
      self(self, *child);
    }
  };
  write_node(write_node, *root_);

  writer.Pod<uint64_t>(build_stats_.num_nodes);
  writer.Pod<uint64_t>(build_stats_.total_disqualified);
  writer.Pod<uint64_t>(build_stats_.mdc_conditions);
  out.flush();
  if (!writer.ok()) return Status::Internal("write to '", path, "' failed");
  return Status::OK();
}

IpoTreeEngine::IpoTreeEngine(const Dataset& data, const PreferenceProfile& tmpl,
                             Options options, LoadTag)
    : data_(&data), template_(&tmpl), options_(options) {
  name_ = options_.max_values_per_dim == std::numeric_limits<size_t>::max()
              ? "IPO Tree"
              : "IPO Tree-" + std::to_string(options_.max_values_per_dim);
}

Result<std::unique_ptr<IpoTreeEngine>> IpoTreeEngine::Load(
    const Dataset& data, const PreferenceProfile& tmpl,
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open '", path, "'");
  BinaryReader reader(in);

  uint32_t version = 0;
  if (!reader.Magic(kMagic, &version) || version != kVersion) {
    return Status::InvalidArgument("'", path, "' is not an IPO-tree file");
  }

  const Schema& schema = data.schema();
  uint64_t num_rows = 0;
  uint32_t num_nominal = 0;
  if (!reader.Pod(&num_rows) || !reader.Pod(&num_nominal) ||
      num_rows != data.num_rows() || num_nominal != schema.num_nominal()) {
    return Status::InvalidArgument("'", path,
                                   "' was built over a different dataset");
  }
  for (DimId d : schema.nominal_dims()) {
    uint32_t c = 0;
    if (!reader.Pod(&c) || c != schema.dim(d).cardinality()) {
      return Status::InvalidArgument("'", path,
                                     "' has mismatched nominal cardinalities");
    }
  }
  for (size_t j = 0; j < schema.num_nominal(); ++j) {
    std::vector<uint32_t> choices;
    if (!reader.PodVector(&choices, 1 << 20) ||
        choices != tmpl.pref(j).choices()) {
      return Status::InvalidArgument("'", path,
                                     "' was built with a different template");
    }
  }
  uint8_t aset_flag = 0;
  uint64_t max_values = 0;
  if (!reader.Pod(&aset_flag) || !reader.Pod(&max_values)) {
    return Status::InvalidArgument("'", path, "' truncated (options)");
  }
  if (aset_flag > 1) {
    return Status::InvalidArgument("'", path, "' has a bad A-set flag");
  }

  Options options;
  options.max_values_per_dim = max_values;
  auto engine = std::unique_ptr<IpoTreeEngine>(
      new IpoTreeEngine(data, tmpl, options, LoadTag{}));

  if (!reader.PodVector(&engine->skyline_, num_rows)) {
    return Status::InvalidArgument("'", path, "' truncated (skyline)");
  }
  engine->row_to_pos_.assign(data.num_rows(), 0);
  for (size_t i = 0; i < engine->skyline_.size(); ++i) {
    if (engine->skyline_[i] >= data.num_rows()) {
      return Status::InvalidArgument("'", path, "' has out-of-range rows");
    }
    engine->row_to_pos_[engine->skyline_[i]] = i;
  }

  engine->allowed_.resize(num_nominal);
  engine->allowed_slot_.resize(num_nominal);
  for (size_t j = 0; j < num_nominal; ++j) {
    size_t c = schema.dim(schema.nominal_dims()[j]).cardinality();
    if (!reader.PodVector(&engine->allowed_[j], c)) {
      return Status::InvalidArgument("'", path, "' truncated (allowed)");
    }
    engine->allowed_slot_[j].assign(c, -1);
    for (size_t k = 0; k < engine->allowed_[j].size(); ++k) {
      if (engine->allowed_[j][k] >= c) {
        return Status::InvalidArgument("'", path, "' has bad allowed values");
      }
      engine->allowed_slot_[j][engine->allowed_[j][k]] =
          static_cast<int32_t>(k);
    }
  }
  engine->bitmap_index_ =
      std::make_unique<NominalBitmapIndex>(data, engine->skyline_);

  // Rebuild the tree shape and read A-sets in the same recursion order.
  engine->root_ = std::make_unique<Node>();
  Status read_error = Status::OK();
  auto read_node = [&](auto&& self, Node* node, size_t depth) -> void {
    if (depth == num_nominal || !read_error.ok()) return;
    node->children.resize(engine->allowed_[depth].size() + 1);
    for (size_t k = 0; k < node->children.size(); ++k) {
      auto child = std::make_unique<Node>();
      std::vector<uint32_t> rows;
      if (!reader.PodVector(&rows, engine->skyline_.size())) {
        read_error = Status::InvalidArgument("'", path, "' truncated (nodes)");
        return;
      }
      child->a_bits = DynamicBitset(engine->skyline_.size());
      for (uint32_t r : rows) {
        // row_to_pos_ maps every non-skyline row to 0, so membership needs
        // the round trip: a row outside S would silently disqualify S[0].
        if (r >= engine->row_to_pos_.size() ||
            engine->skyline_[engine->row_to_pos_[r]] != r) {
          read_error =
              Status::InvalidArgument("'", path, "' has bad A-set rows");
          return;
        }
        child->a_bits.set(engine->row_to_pos_[r]);
      }
      self(self, child.get(), depth + 1);
      node->children[k] = std::move(child);
    }
  };
  read_node(read_node, engine->root_.get(), 0);
  NOMSKY_RETURN_NOT_OK(read_error);

  uint64_t num_nodes = 0, total_disq = 0, mdc_conds = 0;
  if (!reader.Pod(&num_nodes) || !reader.Pod(&total_disq) ||
      !reader.Pod(&mdc_conds)) {
    return Status::InvalidArgument("'", path, "' truncated (stats)");
  }
  engine->build_stats_.num_nodes = num_nodes;
  engine->build_stats_.total_disqualified = total_disq;
  engine->build_stats_.mdc_conditions = mdc_conds;
  engine->build_stats_.seconds = 0.0;
  return engine;
}

}  // namespace nomsky
