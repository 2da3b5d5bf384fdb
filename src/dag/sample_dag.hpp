// DAGs of failure-detector samples (paper §4.1).
//
// Nodes are samples (q, d, k): process q saw value d at its k-th query.
// When a process creates a new sample it adds edges from *every* node it
// currently knows to the new node, and processes gossip their DAGs.
//
// Two structural facts make a compact representation exact:
//   1. every process's view is prefix-closed per creator (q's samples
//      arrive in order), so a view is just a frontier vector
//      (max k known per creator);
//   2. a new node's predecessor set is the creator's entire current view,
//      so it is the frontier at creation time — a vector clock.
// Hence edge (q,k) -> (r,j) exists iff k <= vc(r,j)[q], and reachability
// coincides with the edge relation (views are full subgraphs), so the
// paper's "descendants of u" is a single vector-clock comparison.
//
// The same two facts make gossip incremental. Merging is a union of chain
// suffixes, so a sender may omit every node the receiver already holds,
// and it can tell which those are from its own DAG (acked_frontier). Each
// chain keeps its nodes' wire encoding, written once as a node is
// appended, so a payload is a header plus copies of encoded suffixes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/fd_value.hpp"

namespace nucon {

/// Identifies the k-th sample of process q (k is 1-based).
struct NodeRef {
  Pid q = -1;
  std::uint32_t k = 0;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

class SampleDag {
 public:
  struct Node {
    FdValue d;
    /// Creation view: vc[r] = number of r's samples known to the creator
    /// when this node was created (the node's predecessor set).
    std::vector<std::uint32_t> vc;

    friend bool operator==(const Node&, const Node&) = default;
  };

  explicit SampleDag(Pid n);

  /// Same n and the same nodes on every chain (the encoded-chain cache
  /// follows from the nodes).
  friend bool operator==(const SampleDag& a, const SampleDag& b);

  [[nodiscard]] Pid n() const { return n_; }

  /// Number of q's samples present.
  [[nodiscard]] std::uint32_t count_of(Pid q) const {
    return static_cast<std::uint32_t>(
        chains_[static_cast<std::size_t>(q)].nodes.size());
  }

  [[nodiscard]] bool contains(NodeRef v) const {
    return v.q >= 0 && v.q < n_ && v.k >= 1 && v.k <= count_of(v.q);
  }

  [[nodiscard]] const Node& node(NodeRef v) const;

  /// Current frontier (the whole node set, by prefix-closure).
  [[nodiscard]] std::vector<std::uint32_t> frontier() const;

  /// Records p's next sample with the current view as its predecessor set.
  /// Returns the new node.
  NodeRef take_sample(Pid p, const FdValue& d);

  /// Edge (and reachability) test: u -> v.
  [[nodiscard]] bool has_edge(NodeRef u, NodeRef v) const {
    return contains(u) && contains(v) &&
           node(v).vc[static_cast<std::size_t>(u.q)] >= u.k;
  }

  /// v in G|u: v is u itself or a descendant of u.
  [[nodiscard]] bool in_cone(NodeRef u, NodeRef v) const {
    return v == u || has_edge(u, v);
  }

  /// Union with another DAG. Node data for a given (q, k) is immutable and
  /// identical everywhere, so merging appends the chain suffixes this DAG
  /// is missing. The reference the gossip codec is tested against.
  void merge_from(const SampleDag& other);

  [[nodiscard]] std::size_t total_nodes() const;

  /// Total number of edges, i.e. the sum of predecessor-set sizes.
  [[nodiscard]] std::uint64_t total_edges() const;

  /// What process r is known to hold, read off this DAG alone: the
  /// creation view of r's latest sample here, with entry r set to that
  /// sample's index. r held all of it when it took the sample, and DAGs
  /// only grow. All zeros when this DAG holds no sample of r.
  [[nodiscard]] std::vector<std::uint32_t> acked_frontier(Pid r) const;

  /// Gossip payload carrying, for every creator q, q's samples past
  /// from[q] (clamped to what this DAG holds). From the all-zero frontier
  /// it is the whole DAG in the paper's format: n, then per creator the
  /// chain length and its nodes. Otherwise it is a delta: -n, then per
  /// creator the suffix start, the suffix length and its nodes.
  [[nodiscard]] Bytes encode_since(std::span<const std::uint32_t> from) const;

  /// Whole-DAG payload, as the paper's algorithm sends.
  [[nodiscard]] Bytes serialize() const;

  /// Gossip receipt: merges a payload of encode_since, whole or delta. The
  /// whole payload is validated first, and only the nodes this DAG lacks
  /// are then decoded and appended. Returns false, leaving the DAG
  /// unchanged, when the payload is malformed, sized for another n, or has
  /// a suffix starting past what this DAG holds.
  [[nodiscard]] bool merge_payload(const Bytes& data);

  /// The DAG a payload describes on its own (merged into an empty DAG).
  [[nodiscard]] static std::optional<SampleDag> deserialize(const Bytes& data);

  /// All nodes of G|u in a topological order (vc-sums strictly increase
  /// along edges, so sorting by them linearizes the DAG), starting with u.
  [[nodiscard]] std::vector<NodeRef> cone_topo(NodeRef u) const;

  /// Greedy maximal chain (path) through G|u starting at u: walks
  /// cone_topo(u) and keeps each node that has an edge from the previous
  /// kept node. Every consecutive pair is an edge of the DAG, so the
  /// result is a genuine path in the paper's sense. Biased toward one
  /// process's samples (own samples trail the gossip frontier); prefer
  /// fair_chain when the path must cover many processes.
  [[nodiscard]] std::vector<NodeRef> greedy_chain(NodeRef u) const;

  /// The Lemma 4.8-style path through G|u: starting at u, repeatedly
  /// extend with the earliest not-yet-used sample, rotating round-robin
  /// over creators, so every process that keeps sampling appears
  /// infinitely often in the limit. Consecutive nodes are DAG edges.
  ///
  /// Every cross-process switch necessarily skips the other process's
  /// samples that are concurrent with the current tip (about one gossip
  /// round-trip's worth), so after each switch the chain keeps up to
  /// `batch` consecutive samples of the same creator (own successors are
  /// always edges) before rotating again — longer batches give longer
  /// paths at the cost of coarser interleaving.
  [[nodiscard]] std::vector<NodeRef> fair_chain(NodeRef u, int batch = 8) const;

 private:
  /// One creator's samples plus their wire encoding, kept in step.
  struct Chain {
    std::vector<Node> nodes;  ///< nodes[k-1] = the k-th sample
    ByteWriter enc;           ///< the nodes' encodings, back to back
    std::vector<std::size_t> starts;  ///< starts[k-1] = offset of node k
  };

  /// Appends q's next node and its encoding.
  void append(Pid q, Node node);

  /// The one node decoder. Reads a node's value and creation view, into
  /// `out` unless it is null (validation only). False on malformed input,
  /// including a view entry above 2^32-1.
  [[nodiscard]] static bool read_node(ByteReader& r, Pid n, Node* out);

  Pid n_;
  std::vector<Chain> chains_;
};

}  // namespace nucon
