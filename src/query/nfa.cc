#include "query/nfa.h"

#include "common/logging.h"

namespace caldera {

QueryAutomaton::QueryAutomaton(const RegularQuery& query,
                               const StreamSchema& schema)
    : query_(query), n_(query.num_links()) {
  CALDERA_CHECK(n_ >= 1 && n_ <= 16) << "query must have 1..16 links";

  has_loop_.resize(n_);
  for (size_t i = 0; i < n_; ++i) has_loop_[i] = query_.link(i).is_kleene();

  // Intern the atoms of the whole (flat) domain, then the null atom: the
  // atom of a state satisfying no positive predicate.
  std::unordered_map<uint32_t, uint32_t> atom_index;
  auto intern_atom = [&](uint32_t atom) {
    auto [it, added] =
        atom_index.emplace(atom, static_cast<uint32_t>(atoms_.size()));
    if (added) atoms_.push_back(atom);
    return it->second;
  };
  const uint32_t domain = schema.state_count();
  atom_ids_.resize(domain);
  for (ValueId state = 0; state < domain; ++state) {
    uint32_t atom = 0;
    for (size_t i = 0; i < n_; ++i) {
      const QueryLink& link = query_.link(i);
      if (link.primary.Matches(schema, state)) atom |= 1u << (2 * i);
      if (link.is_kleene() && link.loop->Matches(schema, state)) {
        atom |= 1u << (2 * i + 1);
      }
    }
    atom_ids_[state] = intern_atom(atom);
  }
  uint32_t null_atom = 0;
  for (size_t i = 0; i < n_; ++i) {
    const QueryLink& link = query_.link(i);
    if (link.primary.is_negation() || link.primary.is_any()) {
      null_atom |= 1u << (2 * i);
    }
    if (link.is_kleene() &&
        (link.loop->is_negation() || link.loop->is_any())) {
      null_atom |= 1u << (2 * i + 1);
    }
  }
  null_atom_id_ = intern_atom(null_atom);

  // Intern the start state {0}.
  Intern(1);
}

uint64_t QueryAutomaton::SubsetTransition(uint64_t subset,
                                          uint32_t atom) const {
  // State 0 is always present after a transition (Sigma* restart loop).
  uint64_t out = 1;
  for (size_t i = 0; i <= n_; ++i) {
    if ((subset & (1ull << i)) == 0) continue;
    if (i < n_) {
      // Advance i -> i+1 when link i's primary holds.
      if (atom & (1u << (2 * i))) out |= 1ull << (i + 1);
      // Wait in state i when link i's Kleene loop holds (i > 0; state 0's
      // Sigma loop is unconditional and already handled).
      if (i > 0 && has_loop_[i] && (atom & (1u << (2 * i + 1)))) {
        out |= 1ull << i;
      }
    }
    // State n (accept) has no outgoing edges: mass leaves unless a new
    // match also ends here (covered by the advances above).
  }
  return out;
}

int QueryAutomaton::Intern(uint64_t subset) {
  auto it = subset_ids_.find(subset);
  if (it != subset_ids_.end()) return it->second;
  int id = static_cast<int>(subsets_.size());
  subsets_.push_back(subset);
  subset_ids_.emplace(subset, id);
  step_.resize(step_.size() + atoms_.size(), -1);
  accepting_.push_back((subset & (1ull << n_)) != 0);
  return id;
}

int QueryAutomaton::FillStep(int dfa_state, uint32_t atom_id) {
  const int next =
      Intern(SubsetTransition(subsets_[dfa_state], atoms_[atom_id]));
  // Intern may have grown step_, so index it afresh.
  step_[dfa_state * atoms_.size() + atom_id] = next;
  return next;
}

int QueryAutomaton::Transition(int dfa_state, uint32_t atom) {
  CALDERA_DCHECK(dfa_state >= 0 && dfa_state < num_dfa_states());
  for (uint32_t id = 0; id < atoms_.size(); ++id) {
    if (atoms_[id] == atom) return StepById(dfa_state, id);
  }
  return Intern(SubsetTransition(subsets_[dfa_state], atom));
}

}  // namespace caldera
