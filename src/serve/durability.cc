#include "serve/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "testing/fault_injection.h"

namespace vs::serve {

namespace {

/// Frames larger than this are treated as corrupt, not allocated: a
/// label record is tens of bytes, so a huge length field means we are
/// reading garbage (or a maliciously truncated file).
constexpr uint32_t kMaxWalRecordBytes = 1u << 20;

constexpr size_t kWalHeaderBytes = 8;  // u32 length + u32 crc

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void PutU32Le(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xffu));
  out.push_back(static_cast<char>((v >> 8) & 0xffu));
  out.push_back(static_cast<char>((v >> 16) & 0xffu));
  out.push_back(static_cast<char>((v >> 24) & 0xffu));
}

uint32_t GetU32Le(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

/// Cached handles into the default registry (amortized registration).
struct DurMetrics {
  obs::Counter* wal_appends;
  obs::Counter* wal_append_fail;
  obs::Counter* wal_fsync_fail;
  obs::Counter* snapshots;
  obs::Counter* snapshot_fail;
  obs::Counter* recovered_sessions;
  obs::Counter* replayed_labels;
  obs::Counter* torn_tails;
  obs::Counter* quarantined;
  obs::Gauge* wal_bytes;
  obs::Gauge* pending_records;

  static const DurMetrics& Get() {
    static const DurMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return DurMetrics{
          r.GetCounter("durability.wal_appends",
                       "journal records made durable"),
          r.GetCounter("durability.wal_append_fail",
                       "journal appends rolled back"),
          r.GetCounter("durability.wal_fsync_fail",
                       "journal fsyncs that poisoned the handle"),
          r.GetCounter("durability.snapshots",
                       "atomic session snapshots written"),
          r.GetCounter("durability.snapshot_fail",
                       "snapshot rotations that failed"),
          r.GetCounter("durability.recovered_sessions",
                       "sessions restored by the startup recovery scan"),
          r.GetCounter("durability.replayed_labels",
                       "labels replayed from journal tails on recovery"),
          r.GetCounter("durability.torn_tails",
                       "journals whose trailing record was torn by a crash"),
          r.GetCounter("durability.quarantined",
                       "unreadable durability files moved to quarantine/"),
          r.GetGauge("durability.wal_bytes",
                     "durable journal bytes pending a snapshot"),
          r.GetGauge("durability.pending_records",
                     "journal records pending a snapshot"),
      };
    }();
    return m;
  }
};

/// Keeps the two pending gauges in sync with the aggregate counters.
void SyncPendingGauges(const internal::DurabilityCounters* counters) {
  if (counters == nullptr) return;
  const DurMetrics& m = DurMetrics::Get();
  m.wal_bytes->Set(static_cast<double>(
      counters->wal_bytes.load(std::memory_order_relaxed)));
  m.pending_records->Set(static_cast<double>(
      counters->pending_records.load(std::memory_order_relaxed)));
}

vs::Status Errno(const char* what, const std::string& path) {
  return vs::Status::IOError(StrFormat("%s %s: %s", what, path.c_str(),
                                       std::strerror(errno)));
}

}  // namespace

std::string EncodeWalRecord(std::string_view payload) {
  std::string out;
  out.reserve(kWalHeaderBytes + payload.size());
  PutU32Le(out, static_cast<uint32_t>(payload.size()));
  PutU32Le(out, Crc32(payload));
  out.append(payload);
  return out;
}

WalScan DecodeWal(std::string_view bytes) {
  WalScan scan;
  size_t pos = 0;
  while (true) {
    if (bytes.size() - pos < kWalHeaderBytes) {
      scan.torn_tail = pos < bytes.size();
      break;
    }
    const uint32_t length = GetU32Le(bytes.data() + pos);
    const uint32_t stored_crc = GetU32Le(bytes.data() + pos + 4);
    if (length > kMaxWalRecordBytes ||
        bytes.size() - pos - kWalHeaderBytes < length) {
      scan.torn_tail = true;
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kWalHeaderBytes, length);
    if (Crc32(payload) != stored_crc) {
      scan.torn_tail = true;
      break;
    }
    scan.records.emplace_back(payload);
    pos += kWalHeaderBytes + length;
  }
  scan.valid_bytes = pos;
  return scan;
}

vs::Result<WalScan> ReadWalFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return WalScan{};  // no journal yet: empty tail
    return Errno("open journal", path);
  }
  std::string bytes;
  char buffer[16384];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      const vs::Status status = Errno("read journal", path);
      ::close(fd);
      return status;
    }
    bytes.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (VS_FAULT("recover.corrupt_record") && !bytes.empty()) {
    // Flip one bit mid-file: the scan must stop there (bad CRC) and keep
    // every record before it — a corrupt record behaves like a torn tail.
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  }
  return DecodeWal(bytes);
}

vs::Result<std::string> ReadFileFully(const std::string& path) {
  if (VS_FAULT("snapshot.read_fail")) {
    return vs::Status::IOError("injected snapshot read failure: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return vs::Status::NotFound("no file: " + path);
    return Errno("open", path);
  }
  std::string bytes;
  char buffer[16384];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      const vs::Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    bytes.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

vs::Status WriteFileAtomic(const std::string& dir,
                           const std::string& file_name,
                           std::string_view content, bool do_fsync) {
  const std::string final_path = dir + "/" + file_name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
             0644);
  if (fd < 0) return Errno("open", tmp_path);
  size_t offset = 0;
  while (offset < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + offset, content.size() - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      const vs::Status status = Errno("write", tmp_path);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return status;
    }
    offset += static_cast<size_t>(n);
  }
  if (do_fsync && ::fsync(fd) != 0) {
    const vs::Status status = Errno("fsync", tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Errno("close", tmp_path);
  }
  if (VS_FAULT("snapshot.rename_fail") ||
      ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return vs::Status::IOError("rename failed: " + tmp_path + " -> " +
                               final_path);
  }
  if (do_fsync) {
    // Make the rename itself durable: fsync the parent directory.
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
  return vs::Status::OK();
}

// ---------------------------------------------------------------- WalWriter

vs::Result<WalWriter> WalWriter::Open(const std::string& path, bool do_fsync,
                                      uint64_t trusted_bytes,
                                      internal::DurabilityCounters* counters) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open journal", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const vs::Status status = Errno("stat journal", path);
    ::close(fd);
    return status;
  }
  // Clip anything past the validated prefix (a torn tail, or bytes we
  // never scanned) so new records cannot land after garbage.
  if (static_cast<uint64_t>(st.st_size) > trusted_bytes) {
    if (::ftruncate(fd, static_cast<off_t>(trusted_bytes)) != 0) {
      const vs::Status status = Errno("truncate journal", path);
      ::close(fd);
      return status;
    }
    if (do_fsync) ::fsync(fd);
  }
  if (::lseek(fd, static_cast<off_t>(trusted_bytes), SEEK_SET) < 0) {
    const vs::Status status = Errno("seek journal", path);
    ::close(fd);
    return status;
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.fsync_ = do_fsync;
  writer.durable_bytes_ = trusted_bytes;
  writer.counters_ = counters;
  if (counters != nullptr && trusted_bytes > 0) {
    counters->wal_bytes.fetch_add(trusted_bytes, std::memory_order_relaxed);
    SyncPendingGauges(counters);
  }
  return writer;
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    fsync_ = other.fsync_;
    broken_ = other.broken_;
    durable_bytes_ = other.durable_bytes_;
    pending_records_ = other.pending_records_;
    counters_ = other.counters_;
    other.fd_ = -1;
    other.durable_bytes_ = 0;
    other.pending_records_ = 0;
    other.counters_ = nullptr;
  }
  return *this;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (counters_ != nullptr) {
    counters_->wal_bytes.fetch_sub(durable_bytes_,
                                   std::memory_order_relaxed);
    counters_->pending_records.fetch_sub(pending_records_,
                                         std::memory_order_relaxed);
    SyncPendingGauges(counters_);
  }
  durable_bytes_ = 0;
  pending_records_ = 0;
}

void WalWriter::Rollback() {
  if (::ftruncate(fd_, static_cast<off_t>(durable_bytes_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(durable_bytes_), SEEK_SET) < 0) {
    // The file may now hold a torn record we cannot remove; refuse
    // further appends until a snapshot rotation resets the journal.
    broken_ = true;
  }
}

vs::Status WalWriter::Append(std::string_view payload) {
  obs::StageTimer stage("durability.wal_append");
  if (fd_ < 0) return vs::Status::FailedPrecondition("journal not open");
  if (broken_) {
    return vs::Status::IOError(
        "journal poisoned by an earlier failure; awaiting snapshot "
        "rotation");
  }
  const std::string frame = EncodeWalRecord(payload);
  // An injected append failure writes half the frame first — exactly the
  // torn state a disk-full or crash mid-write leaves — so the rollback
  // path is exercised for real.
  const bool inject = VS_FAULT("wal.append_fail");
  const size_t intent = inject ? frame.size() / 2 : frame.size();
  size_t offset = 0;
  bool write_ok = true;
  while (offset < intent) {
    const ssize_t n = ::write(fd_, frame.data() + offset, intent - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_ok = false;
      break;
    }
    offset += static_cast<size_t>(n);
  }
  if (inject || !write_ok || offset != frame.size()) {
    if (counters_ != nullptr) {
      counters_->wal_append_failures.fetch_add(1, std::memory_order_relaxed);
    }
    DurMetrics::Get().wal_append_fail->Increment();
    Rollback();
    return vs::Status::IOError("journal append failed (rolled back)");
  }
  if (fsync_) {
    if (VS_FAULT("wal.fsync_fail") || ::fsync(fd_) != 0) {
      // After a failed fsync the kernel may have dropped any subset of
      // the dirty pages; neither the record nor a rollback truncate can
      // be trusted.  Poison the handle — the next snapshot rotation
      // captures the in-memory state and resets the journal.
      broken_ = true;
      if (counters_ != nullptr) {
        counters_->wal_append_failures.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      DurMetrics::Get().wal_fsync_fail->Increment();
      return vs::Status::IOError(
          "journal fsync failed; journal poisoned until next snapshot");
    }
  }
  durable_bytes_ += frame.size();
  ++pending_records_;
  if (counters_ != nullptr) {
    counters_->wal_bytes.fetch_add(frame.size(), std::memory_order_relaxed);
    counters_->pending_records.fetch_add(1, std::memory_order_relaxed);
    counters_->wal_appends.fetch_add(1, std::memory_order_relaxed);
    SyncPendingGauges(counters_);
  }
  DurMetrics::Get().wal_appends->Increment();
  return vs::Status::OK();
}

vs::Status WalWriter::Reset() {
  if (fd_ < 0) return vs::Status::FailedPrecondition("journal not open");
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    broken_ = true;
    return vs::Status::IOError("journal reset failed");
  }
  if (fsync_) {
    // A failed fsync here can only resurrect records that are already in
    // the snapshot; replay skips duplicates, so it is not an error.
    ::fsync(fd_);
  }
  if (counters_ != nullptr) {
    counters_->wal_bytes.fetch_sub(durable_bytes_,
                                   std::memory_order_relaxed);
    counters_->pending_records.fetch_sub(pending_records_,
                                         std::memory_order_relaxed);
    SyncPendingGauges(counters_);
  }
  durable_bytes_ = 0;
  pending_records_ = 0;
  broken_ = false;
  return vs::Status::OK();
}

// ------------------------------------------------------- DurabilityManager

DurabilityManager::DurabilityManager(const DurabilityOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()) {
  DurMetrics::Get();  // register eagerly
}

vs::Status DurabilityManager::Init() {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return vs::Status::IOError("cannot create durability dir " +
                               options_.dir + ": " + ec.message());
  }
  std::filesystem::create_directories(options_.dir + "/quarantine", ec);
  if (ec) {
    return vs::Status::IOError("cannot create quarantine dir: " +
                               ec.message());
  }
  return vs::Status::OK();
}

std::string DurabilityManager::SnapshotPath(const std::string& id) const {
  return options_.dir + "/" + id + ".snap";
}

std::string DurabilityManager::WalPath(const std::string& id) const {
  return options_.dir + "/" + id + ".wal";
}

vs::Status DurabilityManager::SaveSnapshot(const std::string& id,
                                           std::string_view content) {
  obs::StageTimer stage("durability.snapshot");
  const vs::Status status =
      WriteFileAtomic(options_.dir, id + ".snap", content, options_.fsync);
  if (!status.ok()) {
    counters_.snapshot_failures.fetch_add(1, std::memory_order_relaxed);
    DurMetrics::Get().snapshot_fail->Increment();
    return status;
  }
  counters_.snapshots.fetch_add(1, std::memory_order_relaxed);
  counters_.last_snapshot_us.store(clock_->NowMicros(),
                                   std::memory_order_relaxed);
  DurMetrics::Get().snapshots->Increment();
  return vs::Status::OK();
}

vs::Result<WalWriter> DurabilityManager::OpenWal(const std::string& id,
                                                 uint64_t trusted_bytes) {
  return WalWriter::Open(WalPath(id), options_.fsync, trusted_bytes,
                         &counters_);
}

void DurabilityManager::RemoveSession(const std::string& id) {
  ::unlink(SnapshotPath(id).c_str());
  ::unlink(WalPath(id).c_str());
}

void DurabilityManager::Quarantine(const std::string& id) {
  const std::string qdir = options_.dir + "/quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  for (const std::string& path : {SnapshotPath(id), WalPath(id)}) {
    if (!std::filesystem::exists(path, ec)) continue;
    const std::string target =
        qdir + "/" + std::filesystem::path(path).filename().string();
    if (::rename(path.c_str(), target.c_str()) != 0) {
      ::unlink(path.c_str());  // last resort: never re-scan a bad file
    }
  }
  counters_.quarantined.fetch_add(1, std::memory_order_relaxed);
  DurMetrics::Get().quarantined->Increment();
}

void DurabilityManager::CountReplayedLabels(uint64_t n) {
  if (n == 0) return;
  counters_.replayed_labels.fetch_add(n, std::memory_order_relaxed);
  DurMetrics::Get().replayed_labels->Increment(n);
}

void DurabilityManager::CountRecoveredSession() {
  counters_.recovered_sessions.fetch_add(1, std::memory_order_relaxed);
  DurMetrics::Get().recovered_sessions->Increment();
}

vs::Result<WalScan> DurabilityManager::ReadWal(const std::string& id) {
  VS_ASSIGN_OR_RETURN(WalScan scan, ReadWalFile(WalPath(id)));
  if (scan.torn_tail) {
    counters_.torn_tails.fetch_add(1, std::memory_order_relaxed);
    DurMetrics::Get().torn_tails->Increment();
  }
  return scan;
}

vs::Result<std::vector<std::string>> DurabilityManager::ScanForRecovery() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(options_.dir, ec);
  if (ec) {
    return vs::Status::IOError("cannot scan durability dir " +
                               options_.dir + ": " + ec.message());
  }
  std::vector<std::string> snap_ids;
  std::vector<std::string> wal_ids;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (EndsWith(name, ".tmp")) {
      // A crash mid-rotation leaves the temp file; the rename never
      // happened, so it holds no acknowledged state.
      fs::remove(entry.path(), ec);
      continue;
    }
    if (EndsWith(name, ".snap")) {
      snap_ids.push_back(name.substr(0, name.size() - 5));
    } else if (EndsWith(name, ".wal")) {
      wal_ids.push_back(name.substr(0, name.size() - 4));
    }
  }
  std::sort(snap_ids.begin(), snap_ids.end());
  std::sort(wal_ids.begin(), wal_ids.end());

  // A journal without a snapshot cannot be replayed (records are labels
  // over a base state we do not have) — quarantine it for inspection.
  for (const std::string& id : wal_ids) {
    if (!std::binary_search(snap_ids.begin(), snap_ids.end(), id)) {
      Quarantine(id);
    }
  }

  return snap_ids;
}

DurabilityStats DurabilityManager::stats() const {
  DurabilityStats stats;
  stats.wal_bytes = counters_.wal_bytes.load(std::memory_order_relaxed);
  stats.pending_records =
      counters_.pending_records.load(std::memory_order_relaxed);
  stats.wal_appends = counters_.wal_appends.load(std::memory_order_relaxed);
  stats.wal_append_failures =
      counters_.wal_append_failures.load(std::memory_order_relaxed);
  stats.snapshots = counters_.snapshots.load(std::memory_order_relaxed);
  stats.snapshot_failures =
      counters_.snapshot_failures.load(std::memory_order_relaxed);
  stats.recovered_sessions =
      counters_.recovered_sessions.load(std::memory_order_relaxed);
  stats.replayed_labels =
      counters_.replayed_labels.load(std::memory_order_relaxed);
  stats.torn_tails = counters_.torn_tails.load(std::memory_order_relaxed);
  stats.quarantined = counters_.quarantined.load(std::memory_order_relaxed);
  const int64_t last =
      counters_.last_snapshot_us.load(std::memory_order_relaxed);
  stats.last_snapshot_age_seconds =
      last < 0 ? -1.0
               : static_cast<double>(clock_->NowMicros() - last) * 1e-6;
  return stats;
}

}  // namespace vs::serve
