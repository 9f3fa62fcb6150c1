#include "markov/cpt.h"

#include <algorithm>
#include <cmath>

#include "common/encoding.h"
#include "common/logging.h"
#include "markov/kernels.h"

namespace caldera {

void Cpt::SetRow(ValueId src, std::vector<RowEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const RowEntry& a, const RowEntry& b) { return a.dst < b.dst; });
  // Merge duplicate destinations.
  size_t n = 0;
  for (const RowEntry& e : entries) {
    if (n > 0 && entries[n - 1].dst == e.dst) {
      entries[n - 1].prob += e.prob;
    } else {
      entries[n++] = e;
    }
  }
  entries.resize(n);

  if (srcs_.empty() || srcs_.back() < src) {
    for (const RowEntry& e : entries) PushEntry(e.dst, e.prob);
    EndRow(src);
    return;
  }
  // Out of order or a replacement: rebuild with the row in its place.
  Cpt out;
  bool placed = false;
  for (size_t i = 0; i < srcs_.size(); ++i) {
    if (!placed && src <= srcs_[i]) {
      for (const RowEntry& e : entries) out.PushEntry(e.dst, e.prob);
      out.EndRow(src);
      placed = true;
      if (srcs_[i] == src) continue;
    }
    const RowView r = row(i);
    for (size_t j = 0; j < r.size(); ++j) out.PushEntry(r.dsts[j], r.probs[j]);
    out.EndRow(r.src);
  }
  *this = std::move(out);
}

void Cpt::EndRow(ValueId src) {
  CALDERA_CHECK(srcs_.empty() || srcs_.back() < src)
      << "EndRow rows must arrive in ascending src order";
  if (offsets_.empty()) offsets_.push_back(0);
  const uint32_t begin = offsets_.back();
  if (dsts_.size() > begin) {
    // The row's destinations ascend, so its first and last bound it.
    const bool first = dst_end_ == 0;
    dst_begin_ = first ? dsts_[begin] : std::min(dst_begin_, dsts_[begin]);
    dst_end_ = first ? dsts_.back() + 1 : std::max(dst_end_, dsts_.back() + 1);
  }
  srcs_.push_back(src);
  offsets_.push_back(static_cast<uint32_t>(dsts_.size()));
}

void Cpt::Clear() {
  srcs_.clear();
  offsets_.clear();
  dsts_.clear();
  probs_.clear();
  dst_begin_ = dst_end_ = 0;
}

Cpt::RowView Cpt::row(size_t i) const {
  const uint32_t b = offsets_[i];
  const uint32_t n = offsets_[i + 1] - b;
  return RowView{srcs_[i], std::span<const ValueId>(dsts_.data() + b, n),
                 std::span<const double>(probs_.data() + b, n)};
}

std::optional<Cpt::RowView> Cpt::FindRow(ValueId src) const {
  auto it = std::lower_bound(srcs_.begin(), srcs_.end(), src);
  if (it == srcs_.end() || *it != src) return std::nullopt;
  return row(it - srcs_.begin());
}

double Cpt::Probability(ValueId src, ValueId dst) const {
  std::optional<RowView> r = FindRow(src);
  if (!r) return 0.0;
  auto it = std::lower_bound(r->dsts.begin(), r->dsts.end(), dst);
  if (it != r->dsts.end() && *it == dst) return r->probs[it - r->dsts.begin()];
  return 0.0;
}

namespace {

// The kernels' scratch for Propagate and ComposeCpts. Thread-local, so
// repeated calls (a generator propagates once per timestep, an MC index
// build composes one CPT per timestep) allocate no scratch after warm-up.
kernels::PropagationWorkspace& Workspace() {
  static thread_local kernels::PropagationWorkspace workspace;
  return workspace;
}

}  // namespace

Distribution Cpt::Propagate(const Distribution& in) const {
  std::vector<Distribution::Entry> out;
  kernels::Propagate(*this, in, &Workspace(), [&out](ValueId d, double p) {
    out.push_back({d, p});
  });
  return Distribution::FromSorted(std::move(out));
}

Status Cpt::ValidateStochastic(double tol) const {
  for (size_t i = 0; i < srcs_.size(); ++i) {
    double mass = 0;
    for (uint32_t j = offsets_[i]; j < offsets_[i + 1]; ++j) {
      if (!std::isfinite(probs_[j]) || probs_[j] < 0) {
        return Status::Corruption("negative or non-finite CPT entry for src " +
                                  std::to_string(srcs_[i]));
      }
      mass += probs_[j];
    }
    if (std::fabs(mass - 1.0) > tol) {
      return Status::Corruption("CPT row for src " + std::to_string(srcs_[i]) +
                                " sums to " + std::to_string(mass));
    }
  }
  return Status::Ok();
}

size_t Cpt::ByteSize() const {
  return 4 + srcs_.size() * 8 + nnz() * 12;
}

void Cpt::AppendTo(std::string* out) const {
  PutFixed32(static_cast<uint32_t>(srcs_.size()), out);
  for (size_t i = 0; i < srcs_.size(); ++i) {
    PutFixed32(srcs_[i], out);
    PutFixed32(offsets_[i + 1] - offsets_[i], out);
    for (uint32_t j = offsets_[i]; j < offsets_[i + 1]; ++j) {
      PutFixed32(dsts_[j], out);
      PutDouble(probs_[j], out);
    }
  }
}

Status Cpt::Parse(std::string_view data, size_t* offset, uint32_t domain,
                  Cpt* out) {
  out->Clear();
  auto corrupt = [out](const std::string& what) {
    out->Clear();
    return Status::Corruption(what);
  };
  if (*offset + 4 > data.size()) return corrupt("truncated CPT");
  const uint32_t num_rows = GetFixed32(data.data() + *offset);
  *offset += 4;
  // Each row needs at least 8 header bytes; reject absurd counts before
  // decoding them.
  if (*offset + static_cast<uint64_t>(num_rows) * 8 > data.size()) {
    return corrupt("CPT row count exceeds available bytes");
  }
  // One pass, straight into the CSR arrays. The row arrays are sized from
  // the checked row count; the entry arrays grow row by row, each row's
  // count checked against the bytes left first, so no header can size an
  // allocation beyond the record. (Sizing them for all the bytes left would
  // reserve the rest of a multi-record payload, an ingest batch frame, for
  // every table in it.) A reused table already has the capacity.
  out->srcs_.reserve(num_rows);
  out->offsets_.reserve(num_rows + 1);
  if (num_rows > 0) out->offsets_.push_back(0);
  // The destination range, as EndRow would track it.
  ValueId lo = 0;
  ValueId hi = 0;
  size_t at = *offset;
  for (uint32_t i = 0; i < num_rows; ++i) {
    if (at + 8 > data.size()) return corrupt("truncated CPT row header");
    const char* p = data.data() + at;
    const ValueId src = GetFixed32(p);
    const uint32_t count = GetFixed32(p + 4);
    at += 8;
    if (i > 0 && src <= out->srcs_.back()) {
      return corrupt("CPT rows out of order");
    }
    if (src >= domain) {
      return corrupt("CPT source " + std::to_string(src) + " outside domain " +
                     std::to_string(domain));
    }
    if (at + count * 12ull > data.size()) {
      return corrupt("truncated CPT row entries");
    }
    p = data.data() + at;
    at += count * 12ull;
    // Each destination must reach `floor`, one past the row's previous one.
    uint64_t floor = 0;
    for (uint32_t j = 0; j < count; ++j, p += 12) {
      const ValueId dst = GetFixed32(p);
      if (dst < floor) return corrupt("CPT row entries out of order");
      if (dst >= domain) {
        return corrupt("CPT destination " + std::to_string(dst) +
                       " outside domain " + std::to_string(domain));
      }
      floor = uint64_t{dst} + 1;
      out->PushEntry(dst, GetDouble(p + 4));
    }
    if (count > 0) {
      const ValueId first = GetFixed32(data.data() + at - count * 12ull);
      lo = hi == 0 ? first : std::min(lo, first);
      hi = std::max(hi, static_cast<ValueId>(floor));
    }
    out->srcs_.push_back(src);
    out->offsets_.push_back(static_cast<uint32_t>(out->dsts_.size()));
  }
  out->dst_begin_ = lo;
  out->dst_end_ = hi;
  *offset = at;
  return Status::Ok();
}

void ComposeCpts(const Cpt& first, const Cpt& second, Cpt* out) {
  kernels::Compose(first, second, &Workspace(), out);
}

Cpt ComposeCpts(const Cpt& first, const Cpt& second) {
  Cpt out;
  ComposeCpts(first, second, &out);
  return out;
}

}  // namespace caldera
