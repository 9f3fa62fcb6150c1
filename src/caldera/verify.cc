#include "caldera/verify.h"

#include <cmath>

#include "common/encoding.h"
#include "index/btc_index.h"
#include "index/btp_index.h"
#include "markov/stream_io.h"

namespace caldera {

namespace {

Status Fail(const std::string& what) { return Status::Corruption(what); }

/// Numeric tolerance of the stochasticity and consistency checks.
constexpr double kTolerance = 1e-6;
/// MC-index entries sampled per level and recomposed from raw CPTs.
constexpr uint64_t kMcSamplesPerLevel = 8;

/// Walks tree index `file`, open as `tree`, against the TreeIndexEntries
/// of the whole stream: keys must match one for one, BT_C values within
/// kTolerance, and the tree may hold nothing more.
Status VerifyTree(const TreeIndexFile& file, BTree* tree, StoredStream* stream,
                  uint64_t* checked) {
  CALDERA_RETURN_IF_ERROR(tree->CheckInvariants());
  const std::string kind = file.is_btc ? "BT_C" : "BT_P";
  const size_t key_size = file.is_btc ? kBtcKeySize : kBtpKeySize;
  const size_t value_size = file.is_btc ? kBtcValueSize : kBtpValueSize;
  const size_t entry_size = key_size + value_size;
  if (tree->options().key_size != key_size ||
      tree->options().value_size != value_size) {
    return Fail(file.path + " does not have the " + kind + " entry layout");
  }
  CALDERA_ASSIGN_OR_RETURN(std::string expected,
                           TreeIndexEntries(file, stream, 0));
  auto mismatch = [&](std::string_view key, const std::string& what) {
    // Both key layouts start with the value and end with the time.
    return Fail(kind + " " + what + " (value=" +
                std::to_string(DecodeU32(key.data())) + ", t=" +
                std::to_string(DecodeU64(key.data() + key_size - 8)) + ")");
  };
  CALDERA_ASSIGN_OR_RETURN(BTree::Cursor cursor, tree->SeekFirst());
  const std::string_view entries(expected);
  for (size_t i = 0; i < entries.size(); i += entry_size) {
    const std::string_view key = entries.substr(i, key_size);
    if (!cursor.valid() || cursor.key() != key) {
      return mismatch(key, "entry missing or out of place");
    }
    if (file.is_btc && std::fabs(GetDouble(cursor.value().data()) -
                                 GetDouble(key.data() + key_size)) >
                           kTolerance) {
      return mismatch(key, "probability mismatch");
    }
    CALDERA_RETURN_IF_ERROR(cursor.Next());
  }
  if (cursor.valid()) {
    return mismatch(cursor.key(), "entry the stream has no mass for");
  }
  *checked += entries.size() / entry_size;
  return Status::Ok();
}

Status VerifyMc(ArchivedStream* archived, const MarkovianStream& stream,
                uint64_t* checked) {
  McIndex* mc = archived->mc();
  uint64_t span = 1;
  for (uint32_t level = 1; level <= mc->num_levels(); ++level) {
    span *= mc->alpha();
    uint64_t blocks = (stream.length() - 1) / span;
    if (blocks == 0) break;
    uint64_t step = std::max<uint64_t>(1, blocks / kMcSamplesPerLevel);
    for (uint64_t block = 0; block < blocks; block += step) {
      // The index entry spans [block*span, (block+1)*span]; because min
      // levels are all present, ComputeCpt over that exact range returns
      // the stored entry itself.
      Cpt entry;
      CALDERA_RETURN_IF_ERROR(
          mc->ComputeCpt(block * span, (block + 1) * span, &entry));
      Cpt direct = stream.transition(block * span + 1);
      for (uint64_t t = block * span + 2; t <= (block + 1) * span; ++t) {
        direct = ComposeCpts(direct, stream.transition(t));
      }
      for (size_t i = 0; i < direct.num_rows(); ++i) {
        const Cpt::RowView row = direct.row(i);
        for (size_t j = 0; j < row.size(); ++j) {
          if (std::fabs(entry.Probability(row.src, row.dsts[j]) -
                        row.probs[j]) > kTolerance) {
            return Fail("MC index entry mismatch at level " +
                        std::to_string(level) + " block " +
                        std::to_string(block));
          }
        }
      }
      ++(*checked);
    }
  }
  return Status::Ok();
}

}  // namespace

std::string VerifyReport::ToString() const {
  return "verified " + std::to_string(timesteps_checked) + " timesteps, " +
         std::to_string(btc_entries_checked) + " BT_C entries, " +
         std::to_string(btp_entries_checked) + " BT_P entries, " +
         std::to_string(mc_entries_checked) + " MC entries";
}

Status VerifyArchivedStream(ArchivedStream* archived, VerifyReport* report) {
  *report = VerifyReport{};
  // Load the stream once (also exercises every record's parse path).
  CALDERA_ASSIGN_OR_RETURN(MarkovianStream stream,
                           LoadStream(archived->stream()));
  report->timesteps_checked = stream.length();
  CALDERA_RETURN_IF_ERROR(stream.Validate(kTolerance));
  for (size_t attr = 0; attr < stream.schema().num_attributes(); ++attr) {
    for (bool is_btc : {true, false}) {
      BTree* tree = is_btc ? archived->btc(attr) : archived->btp(attr);
      if (tree == nullptr) continue;
      const TreeIndexFile file{attr, is_btc,
                               is_btc ? BtcIndexPath(archived->dir(), attr)
                                      : BtpIndexPath(archived->dir(), attr)};
      CALDERA_RETURN_IF_ERROR(VerifyTree(
          file, tree, archived->stream(),
          is_btc ? &report->btc_entries_checked
                 : &report->btp_entries_checked));
    }
  }
  if (archived->mc() != nullptr) {
    CALDERA_RETURN_IF_ERROR(
        VerifyMc(archived, stream, &report->mc_entries_checked));
  }
  return Status::Ok();
}

}  // namespace caldera
