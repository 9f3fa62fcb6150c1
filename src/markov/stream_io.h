#ifndef CALDERA_MARKOV_STREAM_IO_H_
#define CALDERA_MARKOV_STREAM_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "markov/stream.h"
#include "storage/record_file.h"

namespace caldera {

/// Physical organization of a stream on disk (Section 3.4.2).
enum class DiskLayout : uint8_t {
  /// Marginal and CPT sequences in separate files; an access touching only
  /// one sequence reads fewer pages.
  kSeparated = 1,
  /// Marginal+CPT of each timestep co-located in one record; an access
  /// needing both for a timestep pays one lookup.
  kCoClustered = 2,
};

const char* DiskLayoutName(DiskLayout layout);

/// Archives `stream` into directory `dir` using `layout`. Creates
///   dir/meta.bin                      stream metadata + schema
///   dir/marginals.rec + dir/cpts.rec  (separated)
///   dir/stream.rec                    (co-clustered)
/// each record file with its X.rec.dir directory alongside, and syncs
/// them all.
Status WriteStream(const std::string& dir, const MarkovianStream& stream,
                   DiskLayout layout = DiskLayout::kSeparated,
                   uint32_t page_size = kDefaultPageSize);

/// File names inside a stream directory — shared with the ingest/WAL
/// machinery, which journals pre-images of these files before mutating
/// them.
std::string StreamMetaPath(const std::string& dir);
std::string StreamMarginalsPath(const std::string& dir);
std::string StreamCptsPath(const std::string& dir);
std::string StreamCombinedPath(const std::string& dir);

/// The decoded header of dir/meta.bin. Unlike StoredStream::Open this does
/// not open or validate the data files, so it works mid-recovery when the
/// record files are still being repaired.
struct StreamMetaInfo {
  DiskLayout layout = DiskLayout::kSeparated;
  uint64_t length = 0;
  StreamSchema schema;
};
Result<StreamMetaInfo> ReadStreamMeta(const std::string& dir);

/// Rewrites the length field of dir/meta.bin in place, without fsync (the
/// live-ingestion commit path, whose WAL checkpoint syncs it; layout and
/// schema are untouched).
Status UpdateStreamLength(const std::string& dir, uint64_t new_length);

/// Read-only handle to an archived Markovian stream. All reads go through
/// per-file LRU buffer pools; IoStats() aggregates their counters so access
/// methods can report page traffic.
class StoredStream {
 public:
  static Result<std::unique_ptr<StoredStream>> Open(const std::string& dir,
                                                    size_t pool_pages = 256);

  /// Advances the handle to the stream's current length after an append
  /// (RecordFileReader::Refresh on each record file): O(appended
  /// timesteps), and cached pages of committed records stay warm.
  /// Corruption if the layout or schema changed, the stream shrank, or the
  /// record files disagree with the new length.
  Status Refresh();

  /// Reads the marginal distribution of timestep `t`.
  Status ReadMarginal(uint64_t t, Distribution* out);

  /// Reads the CPT into timestep `t` (defined for t in [1, length)).
  Status ReadTransition(uint64_t t, Cpt* out);

  uint64_t length() const { return length_; }
  const StreamSchema& schema() const { return schema_; }
  DiskLayout layout() const { return layout_; }
  const std::string& dir() const { return dir_; }

  BufferPoolStats IoStats() const;
  void ResetStats();

 private:
  StoredStream(std::string dir, DiskLayout layout, uint64_t length,
               StreamSchema schema)
      : dir_(std::move(dir)),
        layout_(layout),
        length_(length),
        schema_(std::move(schema)) {}

  Status ReadCoClustered(uint64_t t, Distribution* marginal, Cpt* transition);
  // Corruption unless every record file holds `length` records.
  Status CheckRecordCounts(uint64_t length) const;

  std::string dir_;
  DiskLayout layout_;
  uint64_t length_;
  StreamSchema schema_;
  // Separated layout:
  std::unique_ptr<RecordFileReader> marginals_;
  std::unique_ptr<RecordFileReader> cpts_;
  // Co-clustered layout:
  std::unique_ptr<RecordFileReader> combined_;
  // Holds a record that straddles pages or sits on a tail page; others
  // parse in their pinned pool page (RecordFileReader::View).
  std::string scratch_;
  // Decode targets for the part of a co-clustered record the caller did
  // not ask for.
  Distribution scratch_marginal_;
  Cpt scratch_cpt_;
};

/// Loads an entire archived stream back into memory (used for index
/// building and validation; archived streams are modest by in-memory
/// standards).
Result<MarkovianStream> LoadStream(StoredStream* stored);

}  // namespace caldera

#endif  // CALDERA_MARKOV_STREAM_IO_H_
