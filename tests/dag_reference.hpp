// Verbatim definitions the sample-DAG fast paths are tested against: the
// linear fair-chain walk and the two-pass gossip decoder, as they were
// before the walk became resumable and the decoder skipped held bytes.
// Only the public SampleDag interface is used.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "dag/sample_dag.hpp"

namespace nucon::testref {

/// The linear fair_chain: the same walk, with a scan where the library
/// binary-searches and with no state kept between calls.
inline std::vector<NodeRef> fair_chain(const SampleDag& dag, NodeRef u,
                                       int batch = 8) {
  std::vector<NodeRef> chain;
  if (!dag.contains(u)) return chain;
  const Pid n = dag.n();
  chain.push_back(u);

  std::vector<std::uint32_t> used(static_cast<std::size_t>(n), 0);
  used[static_cast<std::size_t>(u.q)] = u.k;
  NodeRef last = u;

  const auto extend_own_batch = [&] {
    for (int i = 1; i < batch && last.k + 1 <= dag.count_of(last.q); ++i) {
      last = NodeRef{last.q, last.k + 1};
      used[static_cast<std::size_t>(last.q)] = last.k;
      chain.push_back(last);
    }
  };
  extend_own_batch();

  while (true) {
    bool extended = false;
    for (Pid offset = 0; offset < n; ++offset) {
      const Pid q = static_cast<Pid>((last.q + 1 + offset) % n);
      std::uint32_t k = used[static_cast<std::size_t>(q)] + 1;
      while (k <= dag.count_of(q) &&
             dag.node({q, k}).vc[static_cast<std::size_t>(last.q)] < last.k) {
        ++k;
      }
      if (k > dag.count_of(q)) continue;
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

struct RefNode {
  FdValue d;
  std::vector<std::uint32_t> vc;

  friend bool operator==(const RefNode&, const RefNode&) = default;
};

/// A DAG as plain per-creator node lists: dag[q][k-1] = node (q, k).
using RefDag = std::vector<std::vector<RefNode>>;

inline RefDag nodes_of(const SampleDag& dag) {
  RefDag out(static_cast<std::size_t>(dag.n()));
  for (Pid q = 0; q < dag.n(); ++q) {
    for (std::uint32_t k = 1; k <= dag.count_of(q); ++k) {
      const SampleDag::Node v = dag.node({q, k});
      out[static_cast<std::size_t>(q)].push_back(
          RefNode{v.d, std::vector<std::uint32_t>(v.vc.begin(), v.vc.end())});
    }
  }
  return out;
}

/// encode_since of a RefDag, node by node.
inline Bytes encode_since(const RefDag& dag, std::span<const std::uint32_t> from) {
  const auto n = static_cast<Pid>(dag.size());
  bool whole = true;
  for (std::size_t q = 0; q < dag.size(); ++q) {
    whole = whole && std::min<std::size_t>(from[q], dag[q].size()) == 0;
  }
  ByteWriter w;
  w.svarint(whole ? n : -n);
  for (std::size_t q = 0; q < dag.size(); ++q) {
    const std::size_t s = std::min<std::size_t>(from[q], dag[q].size());
    if (!whole) w.uvarint(s);
    w.uvarint(dag[q].size() - s);
    for (std::size_t k = s; k < dag[q].size(); ++k) {
      dag[q][k].d.encode(w, n);
      for (std::uint32_t c : dag[q][k].vc) w.uvarint(c);
    }
  }
  return w.take();
}

/// The two-pass decoder's node reader: into `out` unless it is null.
inline bool read_node(ByteReader& r, Pid n, RefNode* out) {
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

/// The two-pass merge_payload: pass 1 validates every node, held ones
/// included; pass 2 decodes the new ones. Plus one rule the two-pass
/// decoder lacked: a new node's view is nowhere below its predecessor's.
/// The merged DAG, or nullopt when the payload is dropped.
inline std::optional<RefDag> merge_payload(const RefDag& dag,
                                           const Bytes& data) {
  const auto n = static_cast<Pid>(dag.size());
  const auto count_of = [&](Pid q) {
    return static_cast<std::uint32_t>(dag[static_cast<std::size_t>(q)].size());
  };
  ByteReader r(data);
  const auto header = r.svarint();
  if (!header || (*header != n && *header != -std::int64_t{n})) {
    return std::nullopt;
  }
  const bool delta = *header < 0;

  struct Suffix {
    std::size_t pos = 0;
    std::uint32_t end = 0;
  };
  std::vector<Suffix> suffixes(static_cast<std::size_t>(n));
  for (Pid q = 0; q < n; ++q) {
    const auto from = delta ? r.uvarint() : std::optional<std::uint64_t>(0);
    const auto len = r.uvarint();
    if (!from || !len || *from > count_of(q) || *len > r.remaining()) {
      return std::nullopt;
    }
    const std::uint64_t end = *from + *len;
    if (end > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
    Suffix& suffix = suffixes[static_cast<std::size_t>(q)];
    suffix.end = static_cast<std::uint32_t>(end);
    for (std::uint64_t k = *from; k < end; ++k) {
      if (k == count_of(q)) suffix.pos = data.size() - r.remaining();
      if (!read_node(r, n, nullptr)) return std::nullopt;
    }
  }
  if (!r.done()) return std::nullopt;

  RefDag out = dag;
  for (Pid q = 0; q < n; ++q) {
    const Suffix& suffix = suffixes[static_cast<std::size_t>(q)];
    auto& chain = out[static_cast<std::size_t>(q)];
    ByteReader tail(data.data() + suffix.pos, data.size() - suffix.pos);
    for (std::uint32_t k = count_of(q); k < suffix.end; ++k) {
      RefNode node;
      if (!read_node(tail, n, &node)) return std::nullopt;
      if (!chain.empty()) {
        for (std::size_t c = 0; c < node.vc.size(); ++c) {
          if (node.vc[c] < chain.back().vc[c]) return std::nullopt;
        }
      }
      chain.push_back(std::move(node));
    }
  }
  return out;
}

}  // namespace nucon::testref
