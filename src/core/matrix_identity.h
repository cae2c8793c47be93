#ifndef VS_CORE_MATRIX_IDENTITY_H_
#define VS_CORE_MATRIX_IDENTITY_H_

/// \file matrix_identity.h
/// \brief Content identity of a feature-matrix build — the key of the
/// cross-session offline-initialization cache.
///
/// Algorithm 1 front-loads its cost into offline initialization: view
/// enumeration plus the view x utility-feature matrix build.  That work is
/// a pure function of
///
///   (table identity, query selection, view space, registry, build options)
///
/// so two sessions with equal inputs compute bit-identical matrices and
/// can share one.  This module turns those inputs into a stable string
/// key:
///
///   * hashes are FNV-1a 64-bit over explicit byte encodings — no
///     std::hash, so keys are stable across platforms and runs; the
///     selection, the one long input, is read as 64-bit words of row-id
///     pairs in four xxh64-style lanes that fold into FNV-1a;
///   * the *selection content* is hashed, not the filter text: two
///     syntactically different filters selecting the same rows share a
///     key, and the same text over a changed table does not;
///   * value-affecting options (sample_rate, seed, shared_scan) are
///     included; the build pool is deliberately excluded — it is a pure
///     execution detail and results are documented identical either way.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature_matrix.h"
#include "core/utility_features.h"
#include "core/view.h"
#include "data/table.h"

namespace vs::core {

/// FNV-1a 64-bit over arbitrary bytes (the shared primitive; exposed for
/// tests and for callers hashing auxiliary identity, e.g. table ids).
uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed = 0);

/// Order-sensitive hash of a selection vector's row ids: its length, four
/// multiply-rotate lanes over row-id pairs, and the last size % 8 rows.
uint64_t HashSelection(const data::SelectionVector& selection);

/// Order-sensitive hash of the view space (dimension, measure, function,
/// bin count per view).
uint64_t HashViewSpecs(const std::vector<ViewSpec>& views);

/// Hash of the registered feature set (names, in registration order).
uint64_t HashRegistry(const UtilityFeatureRegistry& registry);

/// Hash of the value-affecting build options (sample_rate, seed,
/// shared_scan; pool excluded — see file comment).
uint64_t HashBuildOptions(const FeatureMatrixOptions& options);

/// The cache key: "<fnv(table_id)>-<sel>-<views>-<reg>-<opt>" as fixed-width
/// hex.  \p table_id is any stable identifier of the table's content or
/// provenance (the serving layer uses the loaded table's path plus its row
/// count).
std::string FeatureMatrixCacheKey(std::string_view table_id,
                                  const data::SelectionVector& selection,
                                  const std::vector<ViewSpec>& views,
                                  const UtilityFeatureRegistry& registry,
                                  const FeatureMatrixOptions& options);

}  // namespace vs::core

#endif  // VS_CORE_MATRIX_IDENTITY_H_
