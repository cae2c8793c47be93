#ifndef VS_DATA_TABLE_MEMO_H_
#define VS_DATA_TABLE_MEMO_H_

/// \file table_memo.h
/// \brief Per-table memo of full-table aggregation state: numeric
/// dimension ranges, categorical bin labels and the group-by grids of
/// full-table views.
///
/// In Algorithm 1 the reference view P(v^R) is the same group-by over the
/// whole table D for every query subset, so a (dimension, bin count,
/// measure) grid computed once serves every later exact build,
/// refinement, full-reference materialization and unfiltered query over
/// that table.  A Table is immutable, so entries never go stale: the memo
/// lives and dies with the table.  Copies of a Table share its memo;
/// Table::Make (and therefore Take) starts an empty one.
///
/// GroupByExecutor fills entries lazily.  Callers compute outside the
/// lock and publish once: when two callers race to fill the same key the
/// first published value wins and both use it.  A failed computation
/// publishes nothing.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vs::data {

struct KernelGrid;

/// \brief Identity of one memoized full-table grid: the view's
/// (dimension, bin count, measure).
///
/// The kernel's accumulation order depends only on the bin count and the
/// number of rows scanned, both fixed by the key and the table, so a grid
/// served from the memo is bit-identical to what any kernel executor
/// computes uncached.
struct FullTableGridKey {
  std::string dimension;
  int32_t num_bins = 0;
  std::string measure;

  bool operator<(const FullTableGridKey& other) const;
};

/// \brief Thread-safe memo of full-table ranges and group-by grids.
class TableMemo {
 public:
  TableMemo() = default;
  ~TableMemo();
  TableMemo(const TableMemo&) = delete;
  TableMemo& operator=(const TableMemo&) = delete;

  /// The grid memoized under \p key, or null.  Counts one hit or miss in
  /// the `table_memo.hits` / `table_memo.misses` registry counters.
  std::shared_ptr<const KernelGrid> FindGrid(
      const FullTableGridKey& key) const;

  /// Memoizes \p grid under \p key unless an entry already exists, and
  /// returns the entry that is memoized now (the first published wins).
  std::shared_ptr<const KernelGrid> PublishGrid(
      const FullTableGridKey& key, std::shared_ptr<const KernelGrid> grid);

  /// The memoized non-null [min, max] of numeric \p dimension, if any.
  std::optional<std::pair<double, double>> FindRange(
      const std::string& dimension) const;

  /// Memoizes \p range for \p dimension unless one exists; returns the
  /// memoized range.
  std::pair<double, double> PublishRange(const std::string& dimension,
                                         std::pair<double, double> range);

  /// The memoized bin labels of categorical \p dimension, or null.
  std::shared_ptr<const std::vector<std::string>> FindLabels(
      const std::string& dimension) const;

  /// Memoizes \p labels for \p dimension unless some exist; returns the
  /// memoized labels.  Not counted in bytes().
  std::shared_ptr<const std::vector<std::string>> PublishLabels(
      const std::string& dimension,
      std::shared_ptr<const std::vector<std::string>> labels);

  /// Number of memoized grids.
  size_t num_grids() const;

  /// Number of memoized numeric ranges.
  size_t num_ranges() const;

  /// Bytes held by the memoized grids (bins x 40 B per grid).
  size_t bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<FullTableGridKey, std::shared_ptr<const KernelGrid>> grids_;
  std::map<std::string, std::pair<double, double>> ranges_;
  std::map<std::string, std::shared_ptr<const std::vector<std::string>>>
      labels_;
  size_t bytes_ = 0;
};

}  // namespace vs::data

#endif  // VS_DATA_TABLE_MEMO_H_
