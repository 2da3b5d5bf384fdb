#include "dag/dag_builder.hpp"

#include <cassert>

namespace nucon {

NodeRef DagCore::on_step(const Incoming* in, const FdValue& d) {
  // Malformed or foreign-sized gossip, or a delta that starts past what
  // this DAG holds, is dropped whole, matching the listing's assumption
  // that messages are DAGs.
  if (in != nullptr) (void)dag_.merge_payload(in->payload, &work_);
  ++k_;
  return dag_.take_sample(self_, d);
}

const std::vector<NodeRef>& DagCore::fair_chain(NodeRef u, int batch) {
  const std::vector<NodeRef>& chain = walk_.walk(dag_, u, batch, work_);
  assert(chain == dag_.fair_chain(u, batch));
  return chain;
}

void DagCore::gossip_deltas(std::vector<Outgoing>& out) const {
  SharedBytes::counters().broadcasts += 1;
  for (Pid r = 0; r < dag_.n(); ++r) {
    if (r != self_) out.push_back({r, dag_.encode_since(dag_.acked_frontier(r))});
  }
}

void gossip_to_others(Pid self, Pid n, SharedBytes payload,
                      std::vector<Outgoing>& out) {
  SharedBytes::counters().broadcasts += 1;
  for (Pid q = 0; q < n; ++q) {
    if (q != self) out.push_back({q, payload});
  }
}

AutomatonFactory make_adag(Pid n, int gossip_every) {
  return [n, gossip_every](Pid p) {
    return std::make_unique<AdagAutomaton>(p, n, gossip_every);
  };
}

ProcessSet participants_of(std::span<const NodeRef> path) {
  ProcessSet out;
  for (const NodeRef& v : path) out.insert(v.q);
  return out;
}

ProcessSet trusted_of(const SampleDag& dag, std::span<const NodeRef> path) {
  ProcessSet out;
  for (const NodeRef& v : path) {
    const FdValue& d = dag.node(v).d;
    if (d.has_quorum()) out |= d.quorum();
  }
  return out;
}

}  // namespace nucon
