#include "dag/sample_dag.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace nucon {

SampleDag::SampleDag(Pid n) : n_(n), chains_(static_cast<std::size_t>(n)) {
  assert(n >= 1 && n <= kMaxProcesses);
}

bool operator==(const SampleDag& a, const SampleDag& b) {
  if (a.n_ != b.n_) return false;
  for (std::size_t q = 0; q < a.chains_.size(); ++q) {
    if (a.chains_[q].nodes != b.chains_[q].nodes) return false;
  }
  return true;
}

const SampleDag::Node& SampleDag::node(NodeRef v) const {
  assert(contains(v));
  return chains_[static_cast<std::size_t>(v.q)].nodes[v.k - 1];
}

std::vector<std::uint32_t> SampleDag::frontier() const {
  std::vector<std::uint32_t> f(static_cast<std::size_t>(n_));
  for (Pid q = 0; q < n_; ++q) f[static_cast<std::size_t>(q)] = count_of(q);
  return f;
}

NodeRef SampleDag::take_sample(Pid p, const FdValue& d) {
  assert(p >= 0 && p < n_);
  append(p, Node{d, frontier()});
  return NodeRef{p, count_of(p)};
}

void SampleDag::append(Pid q, Node node) {
  Chain& chain = chains_[static_cast<std::size_t>(q)];
  chain.starts.push_back(chain.enc.size());
  node.d.encode(chain.enc, n_);
  for (std::uint32_t c : node.vc) chain.enc.uvarint(c);
  chain.nodes.push_back(std::move(node));
}

void SampleDag::merge_from(const SampleDag& other) {
  assert(other.n_ == n_);
  for (Pid q = 0; q < n_; ++q) {
    const auto& theirs = other.chains_[static_cast<std::size_t>(q)].nodes;
    for (std::size_t k = count_of(q); k < theirs.size(); ++k) {
      append(q, theirs[k]);
    }
  }
}

std::size_t SampleDag::total_nodes() const {
  std::size_t total = 0;
  for (const Chain& chain : chains_) total += chain.nodes.size();
  return total;
}

std::uint64_t SampleDag::total_edges() const {
  std::uint64_t total = 0;
  for (const Chain& chain : chains_) {
    for (const Node& node : chain.nodes) {
      total += std::accumulate(node.vc.begin(), node.vc.end(), std::uint64_t{0});
    }
  }
  return total;
}

std::vector<std::uint32_t> SampleDag::acked_frontier(Pid r) const {
  const std::uint32_t j = count_of(r);
  if (j == 0) return std::vector<std::uint32_t>(static_cast<std::size_t>(n_), 0);
  std::vector<std::uint32_t> f = node(NodeRef{r, j}).vc;
  f[static_cast<std::size_t>(r)] = j;
  return f;
}

Bytes SampleDag::encode_since(std::span<const std::uint32_t> from) const {
  assert(from.size() == static_cast<std::size_t>(n_));
  std::vector<std::uint32_t> start(static_cast<std::size_t>(n_));
  for (Pid q = 0; q < n_; ++q) {
    start[static_cast<std::size_t>(q)] =
        std::min(from[static_cast<std::size_t>(q)], count_of(q));
  }
  const bool whole = std::all_of(start.begin(), start.end(),
                                 [](std::uint32_t s) { return s == 0; });
  ByteWriter w;
  w.svarint(whole ? n_ : -n_);
  for (Pid q = 0; q < n_; ++q) {
    const Chain& chain = chains_[static_cast<std::size_t>(q)];
    const std::uint32_t s = start[static_cast<std::size_t>(q)];
    if (!whole) w.uvarint(s);
    w.uvarint(count_of(q) - s);
    const std::size_t offset = s < count_of(q) ? chain.starts[s] : chain.enc.size();
    w.raw(std::span<const std::uint8_t>(chain.enc.buffer()).subspan(offset));
  }
  return w.take();
}

Bytes SampleDag::serialize() const {
  return encode_since(std::vector<std::uint32_t>(static_cast<std::size_t>(n_), 0));
}

bool SampleDag::read_node(ByteReader& r, Pid n, Node* out) {
  const auto d = FdValue::decode(r, n);
  if (!d) return false;
  if (out != nullptr) {
    out->d = *d;
    out->vc.resize(static_cast<std::size_t>(n));
  }
  for (Pid c = 0; c < n; ++c) {
    const auto v = r.uvarint();
    if (!v || *v > std::numeric_limits<std::uint32_t>::max()) return false;
    if (out != nullptr) {
      out->vc[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(*v);
    }
  }
  return true;
}

bool SampleDag::merge_payload(const Bytes& data) {
  ByteReader r(data);
  const auto header = r.svarint();
  if (!header || (*header != n_ && *header != -std::int64_t{n_})) return false;
  const bool delta = *header < 0;

  // Pass 1 validates every node, the ones this DAG already holds included,
  // and notes where each chain's first new node starts and where it ends.
  struct Suffix {
    std::size_t pos = 0;
    std::uint32_t end = 0;
  };
  std::vector<Suffix> suffixes(static_cast<std::size_t>(n_));
  for (Pid q = 0; q < n_; ++q) {
    const auto from = delta ? r.uvarint() : std::optional<std::uint64_t>(0);
    const auto len = r.uvarint();
    // Each node takes at least one byte per process plus its value, so a
    // length beyond the remaining input is malformed.
    if (!from || !len || *from > count_of(q) || *len > r.remaining()) {
      return false;
    }
    const std::uint64_t end = *from + *len;
    if (end > std::numeric_limits<std::uint32_t>::max()) return false;
    Suffix& suffix = suffixes[static_cast<std::size_t>(q)];
    suffix.end = static_cast<std::uint32_t>(end);
    for (std::uint64_t k = *from; k < end; ++k) {
      if (k == count_of(q)) suffix.pos = data.size() - r.remaining();
      if (!read_node(r, n_, nullptr)) return false;
    }
  }
  if (!r.done()) return false;

  // Pass 2 builds only the nodes past this DAG's own counts.
  for (Pid q = 0; q < n_; ++q) {
    const Suffix& suffix = suffixes[static_cast<std::size_t>(q)];
    ByteReader tail(data.data() + suffix.pos, data.size() - suffix.pos);
    for (std::uint32_t k = count_of(q); k < suffix.end; ++k) {
      Node node;
      [[maybe_unused]] const bool ok = read_node(tail, n_, &node);
      assert(ok);
      append(q, std::move(node));
    }
  }
  return true;
}

std::optional<SampleDag> SampleDag::deserialize(const Bytes& data) {
  ByteReader r(data);
  const auto header = r.svarint();
  if (!header || *header == 0 || *header > kMaxProcesses ||
      *header < -std::int64_t{kMaxProcesses}) {
    return std::nullopt;
  }
  SampleDag dag(static_cast<Pid>(*header < 0 ? -*header : *header));
  if (!dag.merge_payload(data)) return std::nullopt;
  return dag;
}

std::vector<NodeRef> SampleDag::cone_topo(NodeRef u) const {
  std::vector<NodeRef> out;
  if (!contains(u)) return out;
  for (Pid q = 0; q < n_; ++q) {
    for (std::uint32_t k = 1; k <= count_of(q); ++k) {
      const NodeRef v{q, k};
      if (in_cone(u, v)) out.push_back(v);
    }
  }
  const auto vc_sum = [this](NodeRef v) {
    const Node& nd = node(v);
    return std::accumulate(nd.vc.begin(), nd.vc.end(), std::uint64_t{0});
  };
  std::stable_sort(out.begin(), out.end(), [&](NodeRef a, NodeRef b) {
    const auto sa = vc_sum(a);
    const auto sb = vc_sum(b);
    if (sa != sb) return sa < sb;
    if (a.q != b.q) return a.q < b.q;
    return a.k < b.k;
  });
  // u has the minimal vc-sum within its own cone, but other nodes may tie;
  // rotate u to the front.
  const auto it = std::find(out.begin(), out.end(), u);
  assert(it != out.end());
  std::rotate(out.begin(), it, it + 1);
  return out;
}

std::vector<NodeRef> SampleDag::greedy_chain(NodeRef u) const {
  std::vector<NodeRef> chain;
  for (NodeRef v : cone_topo(u)) {
    if (chain.empty() || has_edge(chain.back(), v)) chain.push_back(v);
  }
  return chain;
}

std::vector<NodeRef> SampleDag::fair_chain(NodeRef u, int batch) const {
  std::vector<NodeRef> chain;
  if (!contains(u)) return chain;
  assert(batch >= 1);
  chain.push_back(u);

  // used[q] = largest index of q's samples consumed (or permanently
  // skipped: a sample that does not see the current chain tip will not see
  // any later tip either, since tips only move forward).
  std::vector<std::uint32_t> used(static_cast<std::size_t>(n_), 0);
  used[static_cast<std::size_t>(u.q)] = u.k;
  NodeRef last = u;

  const auto extend_own_batch = [&] {
    // (q, k) -> (q, k+1) is always an edge; take up to batch-1 successors.
    for (int i = 1; i < batch && last.k + 1 <= count_of(last.q); ++i) {
      last = NodeRef{last.q, last.k + 1};
      used[static_cast<std::size_t>(last.q)] = last.k;
      chain.push_back(last);
    }
  };
  extend_own_batch();

  while (true) {
    bool extended = false;
    for (Pid offset = 0; offset < n_; ++offset) {
      const Pid q = static_cast<Pid>((last.q + 1 + offset) % n_);
      std::uint32_t k = used[static_cast<std::size_t>(q)] + 1;
      // Advance to q's first sample whose creation view includes `last`
      // (vc[last.q] is nondecreasing in k, so this scan never backtracks).
      while (k <= count_of(q) &&
             node({q, k}).vc[static_cast<std::size_t>(last.q)] < last.k) {
        ++k;
      }
      if (k > count_of(q)) continue;
      used[static_cast<std::size_t>(q)] = k;
      last = NodeRef{q, k};
      chain.push_back(last);
      extend_own_batch();
      extended = true;
      break;
    }
    if (!extended) return chain;
  }
}

}  // namespace nucon
