#include "index/mc_index.h"

#include <algorithm>
#include <chrono>

#include "common/encoding.h"
#include "common/logging.h"
#include "storage/file.h"

namespace caldera {

namespace {
constexpr char kMcMagic[8] = {'C', 'L', 'D', 'R', 'M', 'C', 'I', '2'};

// Fixed metadata prefix: magic, alpha, num_levels, stream_length, domain.
// The level counts follow it.
constexpr size_t kMetaPrefixSize = 28;

// Rewrites mc.meta, without fsync: Build syncs it, and the ingest WAL
// snapshots the old contents before the first rewrite of a checkpoint
// window and syncs the new ones at the checkpoint.
Status WriteMcMeta(const std::string& dir, uint64_t stream_length,
                   uint32_t domain, const std::vector<uint64_t>& level_counts,
                   const McIndexOptions& options) {
  std::string meta(kMcMagic, 8);
  PutFixed32(options.alpha, &meta);
  PutFixed32(static_cast<uint32_t>(level_counts.size()), &meta);
  PutFixed64(stream_length, &meta);
  PutFixed32(domain, &meta);
  for (uint64_t count : level_counts) PutFixed64(count, &meta);
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                           File::OpenOrCreate(dir + "/mc.meta"));
  CALDERA_RETURN_IF_ERROR(f->Truncate(0));
  return f->Append(meta);
}

// The one construction loop, behind both Build and Extend: appends to every
// level the entries that LevelCounts(new_length) adds to
// `meta.level_counts`, then rewrites mc.meta.
Status AppendSpine(const std::string& dir, const TransitionSource& transitions,
                   uint64_t new_length, const McMetaSummary& meta,
                   McExtendStats* stats) {
  const McIndexOptions& options = meta.options;
  const std::vector<uint64_t> new_counts =
      McIndex::LevelCounts(new_length, options);
  // Only the newly completed blocks of each level's right spine are
  // composed. Level i composes from level i-1's stored entries, so an
  // extension equals a from-scratch build byte for byte.
  std::string record;
  Cpt entry;
  Cpt part;
  Cpt scratch;
  for (uint32_t level = 1; level <= new_counts.size(); ++level) {
    const uint64_t new_count = new_counts[level - 1];
    const bool exists = level <= meta.level_counts.size();
    const uint64_t old_count = exists ? meta.level_counts[level - 1] : 0;
    if (new_count == old_count) continue;
    const std::string path = McIndex::LevelPath(dir, level);
    std::unique_ptr<RecordFileWriter> writer;
    if (exists) {
      CALDERA_ASSIGN_OR_RETURN(writer, RecordFileWriter::OpenForAppend(path));
      if (writer->num_records() != old_count) {
        return Status::Corruption(
            "MC level " + std::to_string(level) + " holds " +
            std::to_string(writer->num_records()) + " entries but meta says " +
            std::to_string(old_count));
      }
    } else {
      CALDERA_ASSIGN_OR_RETURN(writer, RecordFileWriter::Create(path));
      if (stats != nullptr) ++stats->levels_added;
    }
    // Source for compositions: raw transitions at level 1, the previous
    // level's record file (extended and finalized on the prior iteration)
    // above that.
    std::unique_ptr<RecordFileReader> prev;
    if (level > 1) {
      CALDERA_ASSIGN_OR_RETURN(
          prev, RecordFileReader::Open(McIndex::LevelPath(dir, level - 1),
                                       /*pool_pages=*/4));
    }
    // Child i of block k: raw transition k*alpha+i+1 at level 1, entry
    // k*alpha+i of the level below above that.
    auto read_child = [&](uint64_t k, uint32_t i, Cpt* out) -> Status {
      if (level == 1) return transitions(k * options.alpha + i + 1, out);
      CALDERA_RETURN_IF_ERROR(prev->Get(k * options.alpha + i, &record));
      size_t offset = 0;
      return Cpt::Parse(record, &offset, meta.domain, out);
    };
    for (uint64_t k = old_count; k < new_count; ++k) {
      CALDERA_RETURN_IF_ERROR(read_child(k, 0, &entry));
      for (uint32_t i = 1; i < options.alpha; ++i) {
        CALDERA_RETURN_IF_ERROR(read_child(k, i, &part));
        ComposeCpts(entry, part, &scratch);
        std::swap(entry, scratch);
      }
      record.clear();
      entry.AppendTo(&record);
      CALDERA_RETURN_IF_ERROR(writer->Append(record).status());
      if (stats != nullptr) ++stats->nodes_recomputed;
    }
    CALDERA_RETURN_IF_ERROR(writer->Finalize());
    if (stats != nullptr) ++stats->levels_touched;
  }
  return WriteMcMeta(dir, new_length, meta.domain, new_counts, options);
}

}  // namespace

std::vector<uint64_t> McIndex::LevelCounts(uint64_t stream_length,
                                           const McIndexOptions& options) {
  std::vector<uint64_t> counts;
  if (stream_length < 2 || options.alpha < 2) return counts;
  const uint64_t num_transitions = stream_length - 1;
  // Level i exists while alpha^i <= num_transitions; comparing before
  // multiplying keeps alpha^i from overflowing.
  for (uint64_t span = 1; span <= num_transitions / options.alpha;) {
    span *= options.alpha;
    counts.push_back(num_transitions / span);
  }
  return counts;
}

std::string McIndex::LevelPath(const std::string& dir, uint32_t level) {
  return dir + "/L" + std::to_string(level) + ".rec";
}

Status McIndex::Build(const std::string& dir, TransitionSource transitions,
                      uint64_t length, uint32_t domain,
                      const McIndexOptions& options) {
  if (options.alpha < 2) {
    return Status::InvalidArgument("MC index alpha must be >= 2");
  }
  if (length < 2) {
    return Status::InvalidArgument("stream too short for an MC index");
  }
  CALDERA_RETURN_IF_ERROR(CreateDirectories(dir));
  McMetaSummary empty;
  empty.domain = domain;
  empty.options = options;
  CALDERA_RETURN_IF_ERROR(
      AppendSpine(dir, transitions, length, empty, nullptr));
  for (uint32_t level = 1; level <= LevelCounts(length, options).size();
       ++level) {
    CALDERA_RETURN_IF_ERROR(SyncFile(LevelPath(dir, level)));
    CALDERA_RETURN_IF_ERROR(SyncFile(RecordFileDirPath(LevelPath(dir, level))));
  }
  return SyncFile(dir + "/mc.meta");
}

Status McIndex::Build(const MarkovianStream& stream, const std::string& dir,
                      const McIndexOptions& options) {
  return Build(
      dir,
      [&stream](uint64_t t, Cpt* out) {
        *out = stream.transition(t);
        return Status::Ok();
      },
      stream.length(), stream.schema().state_count(), options);
}

Result<McMetaSummary> McIndex::ReadMeta(const std::string& dir) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                           File::OpenReadOnly(dir + "/mc.meta"));
  std::string meta(f->size(), '\0');
  CALDERA_RETURN_IF_ERROR(f->ReadAt(0, meta.size(), meta.data()));
  if (meta.size() < kMetaPrefixSize ||
      meta.compare(0, 8, kMcMagic, 8) != 0) {
    return Status::Corruption("bad MC index meta in " + dir);
  }
  McMetaSummary out;
  const uint32_t num_levels = GetFixed32(meta.data() + 12);
  if (meta.size() != kMetaPrefixSize + 8 * uint64_t{num_levels}) {
    return Status::Corruption("MC index meta in " + dir + " has " +
                              std::to_string(meta.size()) + " bytes for " +
                              std::to_string(num_levels) + " levels");
  }
  out.options.alpha = GetFixed32(meta.data() + 8);
  out.stream_length = GetFixed64(meta.data() + 16);
  out.domain = GetFixed32(meta.data() + 24);
  size_t offset = kMetaPrefixSize;
  out.level_counts.resize(num_levels);
  for (uint64_t& count : out.level_counts) {
    count = GetFixed64(meta.data() + offset);
    offset += 8;
  }
  if (out.options.alpha < 2) {
    return Status::Corruption("bad MC alpha in " + dir);
  }
  if (out.stream_length < 2) {
    return Status::Corruption("bad MC stream length in " + dir);
  }
  // Pinning every count to the layout ties alpha, the level count and the
  // stream length to each other, so no corrupt field can overflow a level
  // span or steer a lookup past a level file.
  if (out.level_counts != LevelCounts(out.stream_length, out.options)) {
    return Status::Corruption("MC level counts in " + dir +
                              " do not match its length and options");
  }
  return out;
}

Status McIndex::Extend(const std::string& dir, TransitionSource transitions,
                       uint64_t new_length, McExtendStats* stats) {
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, ReadMeta(dir));
  if (new_length < meta.stream_length) {
    return Status::InvalidArgument("MC index extends forward only (" +
                                   std::to_string(meta.stream_length) +
                                   " -> " + std::to_string(new_length) + ")");
  }
  if (new_length == meta.stream_length) return Status::Ok();
  return AppendSpine(dir, transitions, new_length, meta, stats);
}

Result<std::unique_ptr<McIndex>> McIndex::Open(const std::string& dir,
                                               TransitionSource transitions,
                                               size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, ReadMeta(dir));
  auto index = std::unique_ptr<McIndex>(new McIndex());
  index->dir_ = dir;
  index->alpha_ = meta.options.alpha;
  index->domain_size_ = meta.domain;
  index->pool_pages_ = pool_pages;
  index->transitions_ = std::move(transitions);
  index->levels_.resize(1);  // [0] unused (raw stream).
  index->level_spans_.assign(1, 1);
  CALDERA_RETURN_IF_ERROR(index->OpenNewLevels(meta));
  index->stream_length_ = meta.stream_length;
  return index;
}

Status McIndex::OpenNewLevels(const McMetaSummary& meta) {
  for (auto level = static_cast<uint32_t>(levels_.size());
       level <= meta.level_counts.size(); ++level) {
    CALDERA_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordFileReader> reader,
        RecordFileReader::Open(LevelPath(dir_, level), pool_pages_));
    levels_.push_back(std::move(reader));
    level_spans_.push_back(level_spans_.back() * alpha_);
  }
  return Status::Ok();
}

Status McIndex::Refresh() {
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, ReadMeta(dir_));
  if (meta.options.alpha != alpha_ || meta.domain != domain_size_ ||
      meta.stream_length < stream_length_ ||
      meta.level_counts.size() < num_levels()) {
    return Status::Corruption("MC index meta of " + dir_ +
                              " changed alpha or domain, or shrank");
  }
  // Extend writes only the levels whose count grows; the rest are as
  // they were.
  for (uint32_t level = 1; level < levels_.size(); ++level) {
    if (levels_[level]->num_records() != meta.level_counts[level - 1]) {
      CALDERA_RETURN_IF_ERROR(levels_[level]->Refresh());
    }
  }
  CALDERA_RETURN_IF_ERROR(OpenNewLevels(meta));
  // ComputeCpt's decomposition, and so the span-cache key, assume the
  // layout's entry counts.
  for (uint32_t level = 1; level < levels_.size(); ++level) {
    if (levels_[level]->num_records() != meta.level_counts[level - 1]) {
      return Status::Corruption("MC level " + std::to_string(level) +
                                " of " + dir_ + " disagrees with mc.meta");
    }
  }
  stream_length_ = meta.stream_length;
  return Status::Ok();
}

Status McIndex::SetMinLevel(uint32_t level) {
  if (level < 1 || level > levels_.size()) {
    return Status::InvalidArgument("min level must be in [1, num_levels+1]");
  }
  min_level_ = level;
  span_cache_.Clear();
  return Status::Ok();
}

Status McIndex::FetchEntry(uint32_t level, uint64_t block, Cpt* out) {
  ++entry_fetches_;
  PageHandle pin;
  std::string_view record;
  CALDERA_RETURN_IF_ERROR(
      levels_[level]->View(block, &scratch_, &pin, &record));
  size_t offset = 0;
  return Cpt::Parse(record, &offset, domain_size_, out);
}

Status McIndex::ComputeCpt(uint64_t from, uint64_t to, Cpt* out) {
  if (from >= to || to >= stream_length_) {
    return Status::InvalidArgument("ComputeCpt requires from < to < length");
  }
  bool have_result = false;
  uint64_t cur = from;
  const uint32_t max_level = static_cast<uint32_t>(levels_.size()) - 1;
  while (cur < to) {
    // Pick the largest stored level whose aligned block fits in [cur, to);
    // fall back to a raw transition when none (or below min_level_) does.
    uint32_t chosen = 0;
    for (uint32_t level = max_level; level >= min_level_ && level >= 1;
         --level) {
      uint64_t span = level_spans_[level];
      if (cur % span == 0 && cur + span <= to &&
          cur / span < levels_[level]->num_records()) {
        chosen = level;
        break;
      }
    }
    // The first piece decodes straight into `out`; later ones into
    // block_, composed onto `out` through composed_.
    Cpt* piece = have_result ? &block_ : out;
    if (chosen == 0) {
      ++raw_fetches_;
      CALDERA_RETURN_IF_ERROR(transitions_(cur + 1, piece));
      cur += 1;
    } else {
      CALDERA_RETURN_IF_ERROR(
          FetchEntry(chosen, cur / level_spans_[chosen], piece));
      cur += level_spans_[chosen];
    }
    if (have_result) {
      const auto start = std::chrono::steady_clock::now();
      ComposeCpts(*out, block_, &composed_);
      std::swap(*out, composed_);
      compose_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    }
    have_result = true;
  }
  return Status::Ok();
}

Result<std::shared_ptr<const Cpt>> McIndex::GetSpanCpt(uint64_t from,
                                                       uint64_t to) {
  const bool cacheable = to >= from + 2;
  if (cacheable) {
    if (std::shared_ptr<const Cpt> hit = span_cache_.Get(from, to)) {
      ++span_cache_hits_;
      return hit;
    }
    ++span_cache_misses_;
  }
  Cpt composed;
  CALDERA_RETURN_IF_ERROR(ComputeCpt(from, to, &composed));
  auto shared = std::make_shared<const Cpt>(std::move(composed));
  if (cacheable) span_cache_.Put(from, to, shared);
  return shared;
}

uint64_t McIndex::StoredBytes() const {
  uint64_t total = 0;
  for (uint32_t level = std::max(1u, min_level_); level < levels_.size();
       ++level) {
    total += levels_[level]->data_bytes();
  }
  return total;
}

void McIndex::ResetStats() {
  entry_fetches_ = 0;
  raw_fetches_ = 0;
  span_cache_hits_ = 0;
  span_cache_misses_ = 0;
  compose_seconds_ = 0.0;
  for (auto& reader : levels_) {
    if (reader != nullptr) reader->ResetStats();
  }
}

BufferPoolStats McIndex::IoStats() const {
  BufferPoolStats total;
  for (const auto& reader : levels_) {
    if (reader != nullptr) total += reader->stats();
  }
  return total;
}

}  // namespace caldera
