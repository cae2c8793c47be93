#include "core/session_io.h"

#include <unordered_map>

#include "common/crc32.h"
#include "common/string_util.h"
#include "testing/fault_injection.h"

namespace vs::core {

vs::Result<std::string> SaveSession(const ViewSeeker& seeker) {
  if (VS_FAULT("session_io.save")) {
    return vs::Status::IOError("injected session save failure");
  }
  const ViewSeekerOptions& options = seeker.options();
  std::string out = "viewseeker-session v2\n";
  out += vs::StrFormat("k: %d\n", options.k);
  out += "strategy: " + options.strategy + "\n";
  out += vs::StrFormat("views_per_iteration: %d\n",
                       options.views_per_iteration);
  out += vs::StrFormat("positive_threshold: %.17g\n",
                       options.positive_threshold);
  out += vs::StrFormat("seed: %llu\n",
                       static_cast<unsigned long long>(options.seed));
  out += vs::StrFormat("labels: %zu\n", seeker.num_labeled());
  const auto& views = seeker.features().views();
  for (size_t i = 0; i < seeker.num_labeled(); ++i) {
    const size_t view_index = seeker.labeled()[i];
    out += views[view_index].Id() + "\t" +
           vs::StrFormat("%.17g", seeker.labels()[i]) + "\n";
  }
  out += vs::StrFormat("crc32: %08x\n", vs::Crc32(out));
  return out;
}

namespace {

vs::Result<std::string> ExpectPrefixed(const std::vector<std::string>& lines,
                                       size_t index,
                                       const std::string& prefix) {
  if (index >= lines.size()) {
    return vs::Status::InvalidArgument("truncated session text");
  }
  if (!vs::StartsWith(lines[index], prefix)) {
    return vs::Status::InvalidArgument("expected '" + prefix +
                                       "' line, got: " + lines[index]);
  }
  return std::string(vs::Trim(lines[index].substr(prefix.size())));
}

vs::Result<uint32_t> ParseHex32(std::string_view s) {
  if (s.empty() || s.size() > 8) {
    return vs::Status::InvalidArgument("bad hex crc field");
  }
  uint32_t value = 0;
  for (char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
    else return vs::Status::InvalidArgument("bad hex crc field");
  }
  return value;
}

/// Verifies the v2 `crc32:` trailer: it must be the final line, and the
/// stored checksum must match every byte above it.
vs::Status VerifySessionCrc(const std::string& text) {
  size_t trailer = std::string::npos;
  const size_t at = text.rfind("\ncrc32: ");
  if (at != std::string::npos) {
    trailer = at + 1;
  } else if (vs::StartsWith(text, "crc32: ")) {
    trailer = 0;
  }
  if (trailer == std::string::npos) {
    return vs::Status::InvalidArgument("v2 session missing crc32 trailer");
  }
  size_t eol = text.find('\n', trailer);
  if (eol == std::string::npos) eol = text.size();
  if (!vs::Trim(text.substr(eol)).empty()) {
    return vs::Status::InvalidArgument("v2 crc32 trailer is not final");
  }
  VS_ASSIGN_OR_RETURN(uint32_t stored,
                      ParseHex32(vs::Trim(std::string_view(text).substr(
                          trailer + 7, eol - trailer - 7))));
  const uint32_t computed = vs::Crc32(std::string_view(text).substr(0, trailer));
  if (stored != computed) {
    return vs::Status::InvalidArgument(
        vs::StrFormat("session crc mismatch: stored %08x, computed %08x",
                      stored, computed));
  }
  return vs::Status::OK();
}

}  // namespace

vs::Result<ViewSeeker> RestoreSession(const FeatureMatrix* matrix,
                                      const std::string& text) {
  if (matrix == nullptr) {
    return vs::Status::InvalidArgument("feature matrix is required");
  }
  if (VS_FAULT("session_io.restore")) {
    return vs::Status::IOError("injected session restore failure");
  }
  const std::vector<std::string> lines = vs::Split(text, '\n');
  if (lines.empty()) {
    return vs::Status::InvalidArgument("bad session header");
  }
  if (vs::Trim(lines[0]) != "viewseeker-session v2") {
    return vs::Status::InvalidArgument("bad session header");
  }
  VS_RETURN_IF_ERROR(VerifySessionCrc(text));

  ViewSeekerOptions options;
  VS_ASSIGN_OR_RETURN(std::string k_text, ExpectPrefixed(lines, 1, "k:"));
  VS_ASSIGN_OR_RETURN(int64_t k, vs::ParseInt64(k_text));
  options.k = static_cast<int>(k);
  VS_ASSIGN_OR_RETURN(options.strategy,
                      ExpectPrefixed(lines, 2, "strategy:"));
  VS_ASSIGN_OR_RETURN(std::string vpi_text,
                      ExpectPrefixed(lines, 3, "views_per_iteration:"));
  VS_ASSIGN_OR_RETURN(int64_t vpi, vs::ParseInt64(vpi_text));
  options.views_per_iteration = static_cast<int>(vpi);
  VS_ASSIGN_OR_RETURN(std::string threshold_text,
                      ExpectPrefixed(lines, 4, "positive_threshold:"));
  VS_ASSIGN_OR_RETURN(options.positive_threshold,
                      vs::ParseDouble(threshold_text));
  VS_ASSIGN_OR_RETURN(std::string seed_text,
                      ExpectPrefixed(lines, 5, "seed:"));
  VS_ASSIGN_OR_RETURN(int64_t seed, vs::ParseInt64(seed_text));
  options.seed = static_cast<uint64_t>(seed);
  VS_ASSIGN_OR_RETURN(std::string count_text,
                      ExpectPrefixed(lines, 6, "labels:"));
  VS_ASSIGN_OR_RETURN(int64_t count, vs::ParseInt64(count_text));
  if (count < 0 ||
      static_cast<size_t>(count) + 7 > lines.size()) {
    return vs::Status::InvalidArgument("label count inconsistent");
  }

  // Index the matrix's views by stable id.
  std::unordered_map<std::string, size_t> id_to_index;
  for (size_t i = 0; i < matrix->views().size(); ++i) {
    id_to_index.emplace(matrix->views()[i].Id(), i);
  }

  VS_ASSIGN_OR_RETURN(ViewSeeker seeker, ViewSeeker::Make(matrix, options));
  for (int64_t i = 0; i < count; ++i) {
    const std::string& line = lines[static_cast<size_t>(7 + i)];
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return vs::Status::InvalidArgument("label line missing tab: " + line);
    }
    const std::string id = line.substr(0, tab);
    VS_ASSIGN_OR_RETURN(double label, vs::ParseDouble(line.substr(tab + 1)));
    auto it = id_to_index.find(id);
    if (it == id_to_index.end()) {
      return vs::Status::NotFound("saved view not in this matrix: " + id);
    }
    VS_RETURN_IF_ERROR(seeker.SubmitLabel(it->second, label));
  }
  return seeker;
}

}  // namespace vs::core
