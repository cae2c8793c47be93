#ifndef VS_CORE_SESSION_IO_H_
#define VS_CORE_SESSION_IO_H_

/// \file session_io.h
/// \brief Persistence for interactive sessions: the collected labels (and
/// the options that produced them) are the session's ground truth, so
/// saving them lets a user close the tool and resume later — the restore
/// path replays every label into a fresh seeker over a rebuilt feature
/// matrix, arriving at bit-identical estimators.
///
/// Format (line-oriented):
///   viewseeker-session v2
///   k: <int>
///   strategy: <name>
///   views_per_iteration: <int>
///   positive_threshold: <double>
///   seed: <uint64>
///   labels: <count>
///   <view id>\t<label>          (one per labeled view, in label order)
///   crc32: <8 lowercase hex>    (CRC-32 of every byte above this line)
///
/// The `crc32:` trailer detects a torn or bit-rotted save instead of
/// silently replaying a prefix of the labels.  v1 text (the same layout
/// without the trailer) is rejected: every snapshot on disk is v2.
///
/// View identity crosses processes via ViewSpec::Id(), so the restored
/// matrix may be built fresh (even at a different sample rate) as long as
/// it enumerates the same views.

#include <string>

#include "common/result.h"
#include "core/seeker.h"

namespace vs::core {

/// Serializes \p seeker's options and label history.
vs::Result<std::string> SaveSession(const ViewSeeker& seeker);

/// Restores a session over \p matrix: rebuilds the seeker with the saved
/// options and replays every label.  Fails when a saved view id does not
/// exist in the matrix or a label is rejected.
vs::Result<ViewSeeker> RestoreSession(const FeatureMatrix* matrix,
                                      const std::string& text);

}  // namespace vs::core

#endif  // VS_CORE_SESSION_IO_H_
