#include "dominance/kernel.h"

#include "common/logging.h"
#include "common/serialize.h"

namespace nomsky {

namespace {

constexpr size_t kSlotsPerCacheLine = 64 / sizeof(uint64_t);

size_t PaddedSlots(size_t used) {
  if (used == 0) return kSlotsPerCacheLine;
  return (used + kSlotsPerCacheLine - 1) / kSlotsPerCacheLine *
         kSlotsPerCacheLine;
}

// One lane-role mask per 4-slot (AVX2) group: bit l of element g flags
// slot 4g+l as numeric (< nn) resp. nominal (in [nn, nn+nm)). Padding
// lanes are in neither mask, so full-width group compares AND away both
// the padding and the foreign section when a group straddles a boundary.
// The stride is a multiple of 8, so groups never cross rows.
void BuildLaneMasks(size_t nn, size_t nm, size_t stride,
                    std::vector<uint8_t>* num_masks,
                    std::vector<uint8_t>* nom_masks) {
  constexpr size_t kLanes = 4;
  const size_t groups = stride / kLanes;
  num_masks->assign(groups, 0);
  nom_masks->assign(groups, 0);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t l = 0; l < kLanes; ++l) {
      const size_t slot = g * kLanes + l;
      if (slot < nn) {
        (*num_masks)[g] |= static_cast<uint8_t>(1u << l);
      } else if (slot < nn + nm) {
        (*nom_masks)[g] |= static_cast<uint8_t>(1u << l);
      }
    }
  }
}

}  // namespace

CompiledProfile::CompiledProfile(const Schema& schema,
                                 const PreferenceProfile& profile)
    : num_numeric_(schema.num_numeric()),
      num_nominal_(schema.num_nominal()),
      row_slots_(PaddedSlots(schema.num_numeric() + schema.num_nominal())),
      sign_(NumericSigns(schema)) {
  NOMSKY_CHECK(profile.num_nominal() == schema.num_nominal())
      << "profile arity does not match schema";
  rank_offset_.reserve(num_nominal_);
  size_t total = 0;
  for (size_t j = 0; j < num_nominal_; ++j) {
    rank_offset_.push_back(total);
    total += schema.dim(schema.nominal_dims()[j]).cardinality();
  }
  ranks_.assign(total, kUnlistedRank);
  for (size_t j = 0; j < num_nominal_; ++j) {
    const ImplicitPreference& pref = profile.pref(j);
    const std::vector<ValueId>& choices = pref.choices();
    for (size_t pos = 0; pos < choices.size(); ++pos) {
      ranks_[rank_offset_[j] + choices[pos]] = static_cast<uint32_t>(pos);
    }
  }
  BuildLaneMasks(num_numeric_, num_nominal_, row_slots_, &lane4_num_,
                 &lane4_nom_);
}

void PackedBlock::WriteTo(BinaryWriter& writer) const {
  writer.Pod<uint64_t>(stride_);
  writer.PodVector(ids_);
  writer.Bytes(buf_.data(), ids_.size() * stride_ * sizeof(uint64_t));
}

bool PackedBlock::ReadFrom(BinaryReader& reader, uint64_t max_rows,
                           size_t expected_stride) {
  uint64_t stride = 0;
  if (!reader.Pod(&stride)) return false;
  if (expected_stride != 0 && stride != expected_stride) return false;
  // A zero or absurd stride would defeat the row-count sanity bound below.
  if (stride == 0 || stride > (1u << 16)) return false;
  if (!reader.PodVector(&ids_, max_rows)) return false;
  stride_ = static_cast<size_t>(stride);
  const size_t slots = ids_.size() * stride_;
  buf_.EnsureCapacity(slots, 0);
  return reader.Bytes(buf_.data(), slots * sizeof(uint64_t));
}

}  // namespace nomsky
