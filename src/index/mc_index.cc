#include "index/mc_index.h"

#include <algorithm>
#include <chrono>

#include "common/encoding.h"
#include "common/logging.h"
#include "storage/file.h"

namespace caldera {

namespace {
constexpr char kMcMagic[8] = {'C', 'L', 'D', 'R', 'M', 'C', 'I', '1'};

std::string LevelPath(const std::string& dir, uint32_t level) {
  return dir + "/L" + std::to_string(level) + ".rec";
}

// Drops entries below `eps`, and rows left empty, building into `scratch`
// and swapping it in.
void TruncateCptRows(Cpt* cpt, double eps, Cpt* scratch) {
  if (eps <= 0) return;
  scratch->Clear();
  for (size_t i = 0; i < cpt->num_rows(); ++i) {
    const Cpt::RowView row = cpt->row(i);
    const size_t before = scratch->nnz();
    for (size_t j = 0; j < row.size(); ++j) {
      if (row.probs[j] >= eps) scratch->PushEntry(row.dsts[j], row.probs[j]);
    }
    if (scratch->nnz() != before) scratch->EndRow(row.src);
  }
  std::swap(*cpt, *scratch);
}

// Fixed metadata prefix: magic, alpha, num_levels, stream_length, domain.
constexpr size_t kMetaPrefixSize = 28;
// Build options after the level counts: truncate_eps f64, max_span u64,
// page_size u32.
constexpr size_t kMetaOptionsSize = 20;

// Writes mc.meta atomically enough for our purposes (the ingest WAL
// snapshots the old contents before any in-place mutation).
Status WriteMcMeta(const std::string& dir, uint64_t stream_length,
                   uint32_t domain, const std::vector<uint64_t>& level_counts,
                   const McIndexOptions& options) {
  std::string meta(kMcMagic, 8);
  PutFixed32(options.alpha, &meta);
  PutFixed32(static_cast<uint32_t>(level_counts.size()), &meta);
  PutFixed64(stream_length, &meta);
  PutFixed32(domain, &meta);
  for (uint64_t count : level_counts) PutFixed64(count, &meta);
  PutDouble(options.truncate_eps, &meta);
  PutFixed64(options.max_span, &meta);
  PutFixed32(options.page_size, &meta);
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                           File::OpenOrCreate(dir + "/mc.meta"));
  CALDERA_RETURN_IF_ERROR(f->Truncate(0));
  CALDERA_RETURN_IF_ERROR(f->Append(meta));
  return f->Sync();
}

}  // namespace

Status McIndex::Build(const MarkovianStream& stream, const std::string& dir,
                      const McIndexOptions& options) {
  if (options.alpha < 2) {
    return Status::InvalidArgument("MC index alpha must be >= 2");
  }
  if (stream.length() < 2) {
    return Status::InvalidArgument("stream too short for an MC index");
  }
  CALDERA_RETURN_IF_ERROR(CreateDirectories(dir));

  const uint64_t num_transitions = stream.length() - 1;
  const uint32_t domain = stream.schema().state_count();
  uint64_t max_span = options.max_span == 0
                          ? num_transitions
                          : std::min(options.max_span, num_transitions);

  // Level 1 entries composed from raw transitions; level i from level i-1.
  // `prev` holds the previous level's entries in memory (halving each
  // level, so peak memory is ~2x level 1).
  std::vector<Cpt> prev;
  std::vector<uint64_t> level_counts;
  uint32_t level = 1;
  uint64_t span = options.alpha;
  std::string record;
  Cpt scratch;
  while (span <= max_span) {
    uint64_t count = num_transitions / span;
    if (count == 0) break;
    std::vector<Cpt> current;
    current.reserve(count);
    CALDERA_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordFileWriter> writer,
        RecordFileWriter::Create(LevelPath(dir, level), options.page_size));
    for (uint64_t k = 0; k < count; ++k) {
      Cpt entry;
      if (level == 1) {
        // Compose raw transitions k*alpha+1 .. (k+1)*alpha.
        entry = stream.transition(k * span + 1);
        for (uint64_t s = 2; s <= span; ++s) {
          ComposeCpts(entry, stream.transition(k * span + s), domain, &scratch);
          std::swap(entry, scratch);
        }
      } else {
        entry = prev[k * options.alpha];
        for (uint32_t j = 1; j < options.alpha; ++j) {
          ComposeCpts(entry, prev[k * options.alpha + j], domain, &scratch);
          std::swap(entry, scratch);
        }
      }
      TruncateCptRows(&entry, options.truncate_eps, &scratch);
      record.clear();
      entry.AppendTo(&record);
      CALDERA_RETURN_IF_ERROR(writer->Append(record).status());
      current.push_back(std::move(entry));
    }
    CALDERA_RETURN_IF_ERROR(writer->Finalize());
    level_counts.push_back(count);
    prev = std::move(current);
    ++level;
    span *= options.alpha;
  }

  return WriteMcMeta(dir, stream.length(), domain, level_counts, options);
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
  const uint32_t alpha = GetFixed32(meta.data() + 8);
  const uint32_t num_levels = GetFixed32(meta.data() + 12);
  out.stream_length = GetFixed64(meta.data() + 16);
  out.domain = GetFixed32(meta.data() + 24);
  if (meta.size() !=
      kMetaPrefixSize + 8 * uint64_t{num_levels} + kMetaOptionsSize) {
    return Status::Corruption("MC index meta in " + dir + " has " +
                              std::to_string(meta.size()) + " bytes for " +
                              std::to_string(num_levels) + " levels");
  }
  if (alpha < 2) return Status::Corruption("bad MC alpha in " + dir);
  if (out.stream_length < 2) {
    return Status::Corruption("bad MC stream length in " + dir);
  }
  // Level i holds floor((length - 1) / alpha^i) >= 1 entries, as Build and
  // Extend write it. Checking every count pins alpha, num_levels and the
  // stream length against each other, so no corrupt field can overflow a
  // level span or steer a lookup past a level file.
  const uint64_t num_transitions = out.stream_length - 1;
  size_t offset = kMetaPrefixSize;
  uint64_t span = 1;
  out.level_counts.reserve(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i, offset += 8) {
    // The level exists only if alpha^(i+1) <= length - 1, which also keeps
    // the product from overflowing.
    const bool fits = span <= num_transitions / alpha;
    if (fits) span *= alpha;
    const uint64_t count = GetFixed64(meta.data() + offset);
    if (!fits || count != num_transitions / span) {
      return Status::Corruption("bad MC level " + std::to_string(i + 1) +
                                " entry count in " + dir);
    }
    out.level_counts.push_back(count);
  }
  out.options.alpha = alpha;
  out.options.truncate_eps = GetDouble(meta.data() + offset);
  out.options.max_span = GetFixed64(meta.data() + offset + 8);
  out.options.page_size = GetFixed32(meta.data() + offset + 16);
  return out;
}

Status McIndex::Extend(const std::string& dir, TransitionSource transitions,
                       uint64_t new_length, McExtendStats* stats) {
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, ReadMeta(dir));
  const McIndexOptions& options = meta.options;
  if (new_length < meta.stream_length) {
    return Status::InvalidArgument("MC index extends forward only (" +
                                   std::to_string(meta.stream_length) +
                                   " -> " + std::to_string(new_length) + ")");
  }
  if (new_length == meta.stream_length) return Status::Ok();

  const uint64_t num_transitions = new_length - 1;
  const uint64_t max_span =
      options.max_span == 0 ? num_transitions
                            : std::min(options.max_span, num_transitions);

  // Walk the levels bottom-up exactly as Build does, but only compose the
  // newly completed blocks of each level's right spine. Level i composes
  // from level i-1's *stored* (already truncated) entries, so the result is
  // byte-identical to a from-scratch build.
  std::vector<uint64_t> new_counts;
  uint32_t level = 1;
  uint64_t span = options.alpha;
  std::string record;
  Cpt entry;
  Cpt part;
  Cpt scratch;
  while (span <= max_span) {
    const uint64_t new_count = num_transitions / span;
    if (new_count == 0) break;
    const uint64_t old_count =
        level <= meta.level_counts.size() ? meta.level_counts[level - 1] : 0;
    if (new_count > old_count) {
      std::unique_ptr<RecordFileWriter> writer;
      if (level <= meta.level_counts.size()) {
        CALDERA_ASSIGN_OR_RETURN(
            writer, RecordFileWriter::OpenForAppend(LevelPath(dir, level)));
        if (writer->num_records() != old_count) {
          return Status::Corruption(
              "MC level " + std::to_string(level) + " holds " +
              std::to_string(writer->num_records()) + " entries but meta says " +
              std::to_string(old_count));
        }
      } else {
        CALDERA_ASSIGN_OR_RETURN(
            writer,
            RecordFileWriter::Create(LevelPath(dir, level), options.page_size));
        if (stats != nullptr) ++stats->levels_added;
      }
      // Source for compositions: raw transitions at level 1, the previous
      // level's record file (extended and finalized on the prior iteration)
      // above that.
      std::unique_ptr<RecordFileReader> prev;
      if (level > 1) {
        CALDERA_ASSIGN_OR_RETURN(
            prev, RecordFileReader::Open(LevelPath(dir, level - 1),
                                         /*pool_pages=*/4));
      }
      for (uint64_t k = old_count; k < new_count; ++k) {
        if (level == 1) {
          CALDERA_RETURN_IF_ERROR(transitions(k * span + 1, &entry));
          for (uint64_t s = 2; s <= span; ++s) {
            CALDERA_RETURN_IF_ERROR(transitions(k * span + s, &part));
            ComposeCpts(entry, part, meta.domain, &scratch);
            std::swap(entry, scratch);
          }
        } else {
          CALDERA_RETURN_IF_ERROR(prev->Get(k * options.alpha, &record));
          size_t offset = 0;
          CALDERA_RETURN_IF_ERROR(
              Cpt::Parse(record, &offset, meta.domain, &entry));
          for (uint32_t j = 1; j < options.alpha; ++j) {
            CALDERA_RETURN_IF_ERROR(
                prev->Get(k * options.alpha + j, &record));
            offset = 0;
            CALDERA_RETURN_IF_ERROR(
                Cpt::Parse(record, &offset, meta.domain, &part));
            ComposeCpts(entry, part, meta.domain, &scratch);
            std::swap(entry, scratch);
          }
        }
        TruncateCptRows(&entry, options.truncate_eps, &scratch);
        record.clear();
        entry.AppendTo(&record);
        CALDERA_RETURN_IF_ERROR(writer->Append(record).status());
        if (stats != nullptr) ++stats->nodes_recomputed;
      }
      CALDERA_RETURN_IF_ERROR(writer->Finalize());
      if (stats != nullptr) ++stats->levels_touched;
    }
    new_counts.push_back(new_count);
    ++level;
    span *= options.alpha;
  }
  return WriteMcMeta(dir, new_length, meta.domain, new_counts, options);
}

Result<std::unique_ptr<McIndex>> McIndex::Open(const std::string& dir,
                                               TransitionSource transitions,
                                               size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, ReadMeta(dir));
  auto index = std::unique_ptr<McIndex>(new McIndex());
  index->dir_ = dir;
  index->alpha_ = meta.options.alpha;
  const auto num_levels = static_cast<uint32_t>(meta.level_counts.size());
  index->stream_length_ = meta.stream_length;
  index->domain_size_ = meta.domain;
  index->transitions_ = std::move(transitions);

  index->levels_.resize(num_levels + 1);  // [0] unused (raw stream).
  index->level_spans_.resize(num_levels + 1);
  index->level_spans_[0] = 1;
  uint64_t span = 1;
  for (uint32_t level = 1; level <= num_levels; ++level) {
    span *= index->alpha_;
    index->level_spans_[level] = span;
    CALDERA_ASSIGN_OR_RETURN(
        index->levels_[level],
        RecordFileReader::Open(LevelPath(dir, level), pool_pages));
  }
  return index;
}

Status McIndex::SetMinLevel(uint32_t level) {
  if (level < 1 || level > levels_.size()) {
    return Status::InvalidArgument("min level must be in [1, num_levels+1]");
  }
  min_level_ = level;
  return Status::Ok();
}

Status McIndex::FetchEntry(uint32_t level, uint64_t block, Cpt* out) {
  ++entry_fetches_;
  CALDERA_RETURN_IF_ERROR(levels_[level]->Get(block, &scratch_));
  size_t offset = 0;
  return Cpt::Parse(scratch_, &offset, domain_size_, out);
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
      ++compositions_;
      const auto start = std::chrono::steady_clock::now();
      ComposeCpts(*out, block_, domain_size_, &composed_);
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
  if (span_cache_.valid() && to >= from + 2) {
    const SpanKey key = span_cache_.KeyFor(from, to, min_level_);
    if (std::shared_ptr<const Cpt> cached = span_cache_.cache->Get(key)) {
      ++span_cache_hits_;
      return cached;
    }
    ++span_cache_misses_;
    Cpt composed;
    CALDERA_RETURN_IF_ERROR(ComputeCpt(from, to, &composed));
    auto shared = std::make_shared<const Cpt>(std::move(composed));
    span_cache_.cache->Put(key, shared);
    return shared;
  }
  Cpt composed;
  CALDERA_RETURN_IF_ERROR(ComputeCpt(from, to, &composed));
  return std::make_shared<const Cpt>(std::move(composed));
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
  compositions_ = 0;
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
