#ifndef CALDERA_HMM_HMM_H_
#define CALDERA_HMM_HMM_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "markov/cpt.h"
#include "markov/distribution.h"

namespace caldera {

/// A Hidden Markov Model (Section 2.1): the generative model used to smooth
/// noisy sensor streams into Markovian streams. Hidden states are e.g.
/// locations; observation symbols are e.g. "antenna A fired" with a
/// dedicated silence symbol for timesteps with no reading.
class Hmm {
 public:
  Hmm(uint32_t num_states, uint32_t num_symbols)
      : num_states_(num_states), num_symbols_(num_symbols) {}

  uint32_t num_states() const { return num_states_; }
  uint32_t num_symbols() const { return num_symbols_; }

  void SetInitial(Distribution initial) { initial_ = std::move(initial); }
  const Distribution& initial() const { return initial_; }

  /// Sets P(next | state) as a sparse row.
  void SetTransitionRow(uint32_t state, std::vector<Cpt::RowEntry> row) {
    transition_.SetRow(state, std::move(row));
  }
  const Cpt& transition() const { return transition_; }

  /// Sets P(symbol | state) as a sparse row (must sum to 1).
  void SetEmissionRow(uint32_t state, std::vector<Cpt::RowEntry> row) {
    emission_.SetRow(state, std::move(row));
  }
  double EmissionProb(uint32_t state, uint32_t symbol) const {
    return emission_.Probability(state, symbol);
  }
  const Cpt& emission() const { return emission_; }

  /// Checks stochasticity of initial, transition and emission tables and
  /// that every state has both rows.
  Status Validate(double tol = 1e-6) const;

  /// Samples a hidden trajectory and its observation sequence.
  Status Sample(uint64_t length, Rng* rng, std::vector<uint32_t>* states,
                std::vector<uint32_t>* observations) const;

  /// Samples the observation sequence for a GIVEN hidden trajectory (used
  /// by the RFID simulator, whose walks are scripted rather than drawn from
  /// the transition model).
  Status EmitObservations(const std::vector<uint32_t>& states, Rng* rng,
                          std::vector<uint32_t>* observations) const;

 private:
  uint32_t SampleRow(const Cpt::RowView& row, Rng* rng) const;

  uint32_t num_states_;
  uint32_t num_symbols_;
  Distribution initial_;
  Cpt transition_;
  Cpt emission_;
};

/// Column access to a sparse table: Column(c)[r] = P(c | r). For an HMM's
/// emission table column `symbol` holds P(symbol | state) for every state,
/// which the smoothers and Viterbi read at every timestep; for a transition
/// table column `next` holds P(next | src). The constructor turns the
/// table's CSR into per-column (row, prob) lists in O(nnz); Column(c)
/// scatters one column into a reused dense vector indexed by row, in
/// O(size of the previous and new column), and returns at once when `c`
/// repeats (a silence symbol usually does). No dense column-by-row table is
/// built, so memory stays O(rows + nnz).
class CptColumns {
 public:
  /// Entries of `table` outside [0, num_rows) x [0, num_cols) are dropped.
  CptColumns(const Cpt& table, uint32_t num_rows, uint32_t num_cols);

  /// Column `c` (< num_cols) as a dense vector of num_rows entries: the
  /// stored probabilities, bit for bit, and 0 elsewhere. Valid until the
  /// next call.
  const std::vector<double>& Column(uint32_t c);

 private:
  // Column c is rows_/probs_[offsets_[c], offsets_[c + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;
  std::vector<double> probs_;
  std::vector<double> dense_;
  uint32_t current_;  // Column scattered into dense_, or num_cols.
};

}  // namespace caldera

#endif  // CALDERA_HMM_HMM_H_
