// Historical-run store (§3.4 "Training Methodology", §5.2).
//
// Analytical workloads run the same algorithms repeatedly on newly
// arriving datasets. Profiles of those *actual* runs are far better
// training data than short sample runs (Figures 7b/8b: R^2 improves and
// error drops when history is used), so PREDIcT persists them here and
// merges them into the cost model's training set.

#ifndef PREDICT_CORE_HISTORY_H_
#define PREDICT_CORE_HISTORY_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/features.h"

namespace predict {

/// \brief In-memory store of run profiles, persistable as CSV.
///
/// Thread-safe: Add and the readers may be called concurrently (the
/// PredictionService shares one store across in-flight predictions).
/// Readers return snapshots, never references into the store.
class HistoryStore {
 public:
  HistoryStore() = default;
  HistoryStore(const HistoryStore& other);
  HistoryStore& operator=(const HistoryStore& other);
  HistoryStore(HistoryStore&& other) noexcept;
  HistoryStore& operator=(HistoryStore&& other) noexcept;

  /// Records one run profile.
  void Add(RunProfile profile);

  /// Rows of `algorithm`, in insertion order, excluding dataset
  /// `exclude_dataset` (the paper's evaluation trains on "all other
  /// datasets but the predicted one"); "" excludes nothing.
  std::vector<TrainingRow> TrainingRowsExcluding(
      const std::string& algorithm, const std::string& exclude_dataset) const;

  size_t size() const;

  /// Snapshot of every stored profile.
  std::vector<RunProfile> profiles() const;

  /// CSV persistence. Columns: algorithm,dataset,num_vertices,num_edges,
  /// num_workers,iteration,<7 features>,runtime_seconds. Files written
  /// before the num_workers column existed still load (num_workers = 0).
  ///
  /// SaveToFile is crash-safe: it writes to a temporary file in the same
  /// directory and renames it into place, so a crash mid-save leaves any
  /// previous file intact and never a half-written one.
  ///
  /// LoadFromFile quarantines malformed rows instead of failing the
  /// whole file: well-formed rows load, and `quarantine_note` (when
  /// non-null) receives a summary — count plus the first offending line
  /// — or stays empty when every row parsed. Fail points: history.save
  /// (before the rename), history.load (after open).
  Status SaveToFile(const std::string& path) const;
  static Result<HistoryStore> LoadFromFile(
      const std::string& path, std::string* quarantine_note = nullptr);

 private:
  mutable std::mutex mutex_;
  std::vector<RunProfile> profiles_;
};

}  // namespace predict

#endif  // PREDICT_CORE_HISTORY_H_
