#include "core/matrix_identity.h"

#include <bit>
#include <cstring>

#include "common/string_util.h"

namespace vs::core {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Mix(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t MixU64(uint64_t hash, uint64_t v) {
  // Fixed little-endian byte order so keys match across platforms.
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return Mix(hash, bytes, sizeof(bytes));
}

uint64_t MixString(uint64_t hash, std::string_view s) {
  // Length prefix keeps concatenated fields unambiguous ("ab"+"c" vs
  // "a"+"bc").
  hash = MixU64(hash, s.size());
  return Mix(hash, s.data(), s.size());
}

uint64_t MixDouble(uint64_t hash, double v) {
  return MixU64(hash, std::bit_cast<uint64_t>(v));
}

constexpr uint64_t kLanePrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kLanePrime2 = 0xc2b2ae3d27d4eb4fULL;

/// One xxh64 accumulator round.  For a fixed accumulator it maps distinct
/// words to distinct results, and for a fixed word it is a bijection of
/// the accumulator, so a change to any one word changes its lane.
uint64_t LaneRound(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kLanePrime2, 31) * kLanePrime1;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  return Mix(kFnvOffset ^ seed, data, size);
}

uint64_t HashSelection(const data::SelectionVector& selection) {
  // Row ids go in pairs, as 64-bit words, round-robin into four
  // independent lanes: 8 rows per stripe.  The length, then the lanes,
  // then the rows after the last full stripe fold through MixU64.
  constexpr size_t kStripe = 8;
  const uint32_t* rows = selection.data();
  const size_t stripes = selection.size() / kStripe;
  uint64_t lanes[4] = {kLanePrime1 + kLanePrime2, kLanePrime2, 0,
                       0 - kLanePrime1};
  for (size_t s = 0; s < stripes; ++s, rows += kStripe) {
    for (int l = 0; l < 4; ++l) {
      const uint64_t word = static_cast<uint64_t>(rows[2 * l]) |
                            static_cast<uint64_t>(rows[2 * l + 1]) << 32;
      lanes[l] = LaneRound(lanes[l], word);
    }
  }
  uint64_t hash = MixU64(kFnvOffset, selection.size());
  for (uint64_t lane : lanes) hash = MixU64(hash, lane);
  for (size_t i = stripes * kStripe; i < selection.size(); ++i) {
    hash = MixU64(hash, selection[i]);
  }
  return hash;
}

uint64_t HashViewSpecs(const std::vector<ViewSpec>& views) {
  uint64_t hash = MixU64(kFnvOffset, views.size());
  for (const ViewSpec& view : views) {
    hash = MixString(hash, view.dimension);
    hash = MixString(hash, view.measure);
    hash = MixU64(hash, static_cast<uint64_t>(view.func));
    hash = MixU64(hash, static_cast<uint64_t>(
                            static_cast<uint32_t>(view.num_bins)));
  }
  return hash;
}

uint64_t HashRegistry(const UtilityFeatureRegistry& registry) {
  uint64_t hash = MixU64(kFnvOffset, registry.size());
  for (const std::string& name : registry.names()) {
    hash = MixString(hash, name);
  }
  return hash;
}

uint64_t HashBuildOptions(const FeatureMatrixOptions& options) {
  uint64_t hash = kFnvOffset;
  hash = MixDouble(hash, options.sample_rate);
  hash = MixU64(hash, options.seed);
  hash = MixU64(hash, options.shared_scan ? 1 : 0);
  // pool and use_kernels are deliberately excluded: both pick an
  // execution strategy, not a result — matrices built either way are
  // interchangeable cache entries.
  return hash;
}

std::string FeatureMatrixCacheKey(std::string_view table_id,
                                  const data::SelectionVector& selection,
                                  const std::vector<ViewSpec>& views,
                                  const UtilityFeatureRegistry& registry,
                                  const FeatureMatrixOptions& options) {
  const uint64_t table_hash = MixString(kFnvOffset, table_id);
  return StrFormat(
      "%016llx-%016llx-%016llx-%016llx-%016llx",
      static_cast<unsigned long long>(table_hash),
      static_cast<unsigned long long>(HashSelection(selection)),
      static_cast<unsigned long long>(HashViewSpecs(views)),
      static_cast<unsigned long long>(HashRegistry(registry)),
      static_cast<unsigned long long>(HashBuildOptions(options)));
}

}  // namespace vs::core
