#ifndef CALDERA_QUERY_NFA_H_
#define CALDERA_QUERY_NFA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "markov/schema.h"
#include "query/regular_query.h"

namespace caldera {

/// The runtime automaton of one Regular query against one schema.
///
/// The query's linear NFA (states 0..n, state i = "links 0..i-1 consumed")
/// is prefixed with an implicit Sigma* self-loop on state 0 so matches may
/// begin at any timestep; the automaton then accepts a prefix x_1..x_t iff
/// some match ends exactly at t. Because the Reg operator needs
/// *probabilities of runs*, the NFA is determinized lazily by subset
/// construction over "atoms" — bitmasks recording which query predicates a
/// stream state satisfies — making the accept probability exact even for
/// ambiguous queries. Atoms are interned to dense ids at construction, so a
/// transition is one load from a (DFA state x atom id) step table whose
/// entries are filled the first time they are needed.
///
/// Atom bit layout: primary predicate of link i -> bit 2i; loop predicate of
/// link i -> bit 2i+1 (hence the 16-link limit).
class QueryAutomaton {
 public:
  /// The query must already validate against the schema.
  QueryAutomaton(const RegularQuery& query, const StreamSchema& schema);

  /// Atom (predicate bitmask) of an encoded stream state. Precomputed for
  /// the whole domain at construction.
  uint32_t AtomOf(ValueId state) const { return atoms_[atom_ids_[state]]; }

  /// The atom of any state carrying zero mass on every cursor predicate —
  /// what "skipped" timesteps look like to the automaton (negation and Any
  /// bits set, positive bits clear).
  uint32_t null_atom() const { return atoms_[null_atom_id_]; }

  /// Initial DFA state ({NFA state 0}).
  int start_state() const { return 0; }

  /// DFA transition on the atom of stream state `value`, the Reg
  /// operator's per-entry lookup: one load from the step table once the
  /// entry is filled. Equal to Transition(dfa_state, AtomOf(value)).
  /// `dfa_state` must be a state this automaton returned; unlike
  /// Transition, the hot path does not check it.
  int Step(int dfa_state, ValueId value) {
    return StepById(dfa_state, atom_ids_[value]);
  }

  /// DFA transition on any atom. An atom of some stream state, or the null
  /// atom, goes through the step table; any other atom is computed afresh.
  int Transition(int dfa_state, uint32_t atom);

  /// Transition on the null atom; idempotent (delta(delta(S,0),0) ==
  /// delta(S,0)), which is what lets the MC access method collapse an
  /// arbitrarily long skipped span into a single application.
  int NullTransition(int dfa_state) {
    return StepById(dfa_state, null_atom_id_);
  }

  bool IsAccepting(int dfa_state) const { return accepting_[dfa_state]; }

  int num_dfa_states() const { return static_cast<int>(subsets_.size()); }
  size_t num_links() const { return query_.num_links(); }
  const RegularQuery& query() const { return query_; }

 private:
  int StepById(int dfa_state, uint32_t atom_id) {
    const int next = step_[dfa_state * atoms_.size() + atom_id];
    return next >= 0 ? next : FillStep(dfa_state, atom_id);
  }
  int FillStep(int dfa_state, uint32_t atom_id);
  uint64_t SubsetTransition(uint64_t subset, uint32_t atom) const;
  int Intern(uint64_t subset);

  RegularQuery query_;
  size_t n_;                        // Number of links.
  // The distinct atoms of the domain plus the null atom, interned to dense
  // ids at construction.
  std::vector<uint32_t> atoms_;     // Atom id -> atom.
  std::vector<uint32_t> atom_ids_;  // Encoded state -> atom id.
  uint32_t null_atom_id_ = 0;
  std::vector<bool> has_loop_;      // Per link.
  std::vector<uint64_t> subsets_;   // DFA id -> NFA subset bitmask.
  std::unordered_map<uint64_t, int> subset_ids_;
  // The step table: row d, column a holds the DFA state reached from d on
  // atom id a, or -1 until first needed. Interning a DFA state appends its
  // row.
  std::vector<int> step_;
  std::vector<bool> accepting_;
};

}  // namespace caldera

#endif  // CALDERA_QUERY_NFA_H_
