#include "caldera/verify.h"

#include <cmath>
#include <map>

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

/// Aggregates one timestep's state marginal into per-attribute-value
/// probabilities (the quantity both index types store).
std::map<uint32_t, double> AttributeMarginal(const Distribution& marginal,
                                             const StreamSchema& schema,
                                             size_t attr) {
  std::map<uint32_t, double> out;
  for (const Distribution::Entry& e : marginal.entries()) {
    out[schema.AttributeValue(e.value, attr)] += e.prob;
  }
  return out;
}

Status VerifyBtc(ArchivedStream* archived, const MarkovianStream& stream,
                 size_t attr, uint64_t* checked) {
  BTree* tree = archived->btc(attr);
  CALDERA_RETURN_IF_ERROR(tree->CheckInvariants());

  // Expected entry multiset.
  uint64_t expected = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    for (const auto& [value, prob] :
         AttributeMarginal(stream.marginal(t), stream.schema(), attr)) {
      auto got = tree->Get(EncodeBtcKey(value, t));
      CALDERA_RETURN_IF_ERROR(got.status());
      if (!got->has_value()) {
        return Fail("BT_C missing entry (value=" + std::to_string(value) +
                    ", t=" + std::to_string(t) + ")");
      }
      double stored = GetDouble(got->value().data());
      if (std::fabs(stored - std::min(prob, 1.0)) > kTolerance) {
        return Fail("BT_C probability mismatch at t=" + std::to_string(t));
      }
      ++expected;
    }
  }
  if (tree->num_entries() != expected) {
    return Fail("BT_C has " + std::to_string(tree->num_entries()) +
                " entries, expected " + std::to_string(expected));
  }
  *checked += expected;
  return Status::Ok();
}

Status VerifyBtp(ArchivedStream* archived, const MarkovianStream& stream,
                 size_t attr, uint64_t* checked) {
  BTree* tree = archived->btp(attr);
  CALDERA_RETURN_IF_ERROR(tree->CheckInvariants());
  uint64_t expected = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    for (const auto& [value, prob] :
         AttributeMarginal(stream.marginal(t), stream.schema(), attr)) {
      auto got = tree->Get(EncodeBtpKey(value, std::min(prob, 1.0), t));
      CALDERA_RETURN_IF_ERROR(got.status());
      if (!got->has_value()) {
        return Fail("BT_P missing entry (value=" + std::to_string(value) +
                    ", t=" + std::to_string(t) + ")");
      }
      ++expected;
    }
  }
  if (tree->num_entries() != expected) {
    return Fail("BT_P has " + std::to_string(tree->num_entries()) +
                " entries, expected " + std::to_string(expected));
  }
  *checked += expected;
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
    if (archived->btc(attr) != nullptr) {
      CALDERA_RETURN_IF_ERROR(
          VerifyBtc(archived, stream, attr, &report->btc_entries_checked));
    }
    if (archived->btp(attr) != nullptr) {
      CALDERA_RETURN_IF_ERROR(
          VerifyBtp(archived, stream, attr, &report->btp_entries_checked));
    }
  }
  if (archived->mc() != nullptr) {
    CALDERA_RETURN_IF_ERROR(
        VerifyMc(archived, stream, &report->mc_entries_checked));
  }
  return Status::Ok();
}

}  // namespace caldera
