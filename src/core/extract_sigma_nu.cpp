#include "core/extract_sigma_nu.hpp"

#include <cassert>

namespace nucon {

ExtractSigmaNu::ExtractSigmaNu(Pid self, ExtractOptions opts)
    : core_(self, opts.n),
      opts_(std::move(opts)),
      output_(ProcessSet::full(opts_.n)) {
  assert(opts_.algorithm != nullptr && opts_.n >= 2);
}

void ExtractSigmaNu::step(const Incoming* in, const FdValue& d,
                          std::vector<Outgoing>& out) {
  const NodeRef fresh = core_.on_step(in, d);
  const auto cadence = static_cast<std::uint32_t>(
      effective_gossip_every(opts_.gossip_every, opts_.n));
  if (core_.k() % cadence == 0) {
    core_.gossip_deltas(out);
  }

  if (core_.k() == 1) u_ = fresh;  // line 13

  if (++steps_since_check_ >= opts_.check_every) {
    steps_since_check_ = 0;
    try_emit(fresh);
  }
}

bool ExtractSigmaNu::try_emit(NodeRef fresh) {
  std::span<const NodeRef> chain = core_.fair_chain(u_);
  if (opts_.max_chain != 0 && chain.size() > opts_.max_chain) {
    chain = chain.first(opts_.max_chain);
  }
  const SampleDag& dag = core_.dag();

  // Lines 15-17: look for schedules in Sch(G|u, I_0) and Sch(G|u, I_1) in
  // which this process decides.
  const std::vector<Value> zeros(static_cast<std::size_t>(opts_.n), 0);
  const std::vector<Value> ones(static_cast<std::size_t>(opts_.n), 1);

  ++simulations_;
  const ChainSimOutcome sim0 =
      simulate_chain(dag, chain, opts_.algorithm, zeros, core_.self());
  if (!sim0.observer_decided) return false;

  ++simulations_;
  const ChainSimOutcome sim1 =
      simulate_chain(dag, chain, opts_.algorithm, ones, core_.self());
  if (!sim1.observer_decided) return false;

  // Line 18: participants(S_0) u participants(S_1), where S_0 and S_1 are
  // the shortest deciding prefixes.
  output_ = sim0.prefix_participants | sim1.prefix_participants;
  u_ = fresh;  // line 19
  ++outputs_;
  return true;
}

AutomatonFactory make_extract_sigma_nu(ExtractOptions opts) {
  return [opts](Pid p) { return std::make_unique<ExtractSigmaNu>(p, opts); };
}

}  // namespace nucon
