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
//
// A creator's next sample is taken on a DAG that only grew since its last
// one, so creation views never shrink along a chain. merge_payload rejects
// a chain that breaks this, and the fair-chain walk relies on it twice: to
// binary-search a chain for the first sample that sees the tip, and to
// resume a kept walk as the DAG grows (FairWalk).
#pragma once

#include <cassert>
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

/// Exact work counters of one process's sample-DAG path. Plain counts,
/// outside save_state and DAG equality.
struct DagWork {
  std::int64_t nodes_decoded = 0;   ///< new nodes decoded from payloads
  std::int64_t held_skipped = 0;    ///< held nodes skipped by byte compare
  std::int64_t held_validated = 0;  ///< held nodes validated: bytes differed
  std::int64_t walk_searches = 0;   ///< binary searches of fair-chain walks
  std::int64_t walks_resumed = 0;   ///< walks resumed for the same barrier
  /// Walks started from u: the first, or the barrier or batch moved.
  std::int64_t walks_restarted = 0;

  DagWork& operator+=(const DagWork& o) {
    nodes_decoded += o.nodes_decoded;
    held_skipped += o.held_skipped;
    held_validated += o.held_validated;
    walk_searches += o.walk_searches;
    walks_resumed += o.walks_resumed;
    walks_restarted += o.walks_restarted;
    return *this;
  }
};

class SampleDag {
 public:
  /// A view of one node, valid until its DAG changes.
  struct Node {
    const FdValue& d;
    /// Creation view: vc[r] = number of r's samples known to the creator
    /// when this node was created (the node's predecessor set).
    std::span<const std::uint32_t> vc;
  };

  explicit SampleDag(Pid n);

  /// Same n and the same nodes on every chain (the encoded-chain cache
  /// follows from the nodes).
  friend bool operator==(const SampleDag& a, const SampleDag& b);

  [[nodiscard]] Pid n() const { return n_; }

  /// Number of q's samples present.
  [[nodiscard]] std::uint32_t count_of(Pid q) const {
    return static_cast<std::uint32_t>(
        chains_[static_cast<std::size_t>(q)].ds.size());
  }

  [[nodiscard]] bool contains(NodeRef v) const {
    return v.q >= 0 && v.q < n_ && v.k >= 1 && v.k <= count_of(v.q);
  }

  [[nodiscard]] Node node(NodeRef v) const {
    assert(contains(v));
    const Chain& chain = chains_[static_cast<std::size_t>(v.q)];
    const auto n = static_cast<std::size_t>(n_);
    return Node{chain.ds[v.k - 1],
                std::span<const std::uint32_t>(chain.vcs).subspan(
                    (v.k - 1) * n, n)};
  }

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

  /// Gossip receipt: merges a payload of encode_since, whole or delta.
  /// Where a chain's payload re-sends nodes this DAG holds, those bytes are
  /// skipped when they equal this DAG's own encoding of the nodes, and are
  /// validated node by node otherwise. Each new node is decoded once,
  /// straight into its chain, and re-encoded into the chain's cache.
  /// Returns false, leaving the DAG unchanged, when the payload is
  /// malformed, sized for another n, has a suffix starting past what this
  /// DAG holds, or has a new node whose view is below its predecessor's in
  /// some entry. `work`, when given, counts the nodes of an accepted
  /// payload.
  [[nodiscard]] bool merge_payload(ByteView data, DagWork* work = nullptr);

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
  ///
  /// A fresh walk; DagCore keeps one that resumes as its DAG grows.
  [[nodiscard]] std::vector<NodeRef> fair_chain(NodeRef u, int batch = 8) const;

 private:
  /// One creator's samples plus their wire encoding, kept in step.
  struct Chain {
    std::vector<FdValue> ds;         ///< ds[k-1] = the k-th sample's value
    std::vector<std::uint32_t> vcs;  ///< its view at [(k-1)*n, k*n)
    ByteWriter enc;                  ///< the nodes' encodings, back to back
    std::vector<std::size_t> starts;  ///< starts[k-1] = offset of node k
  };

  /// Encodes the chain's nodes that its cache does not hold yet.
  void encode_new(Chain& chain) const;

  /// Decodes the chain's next node from `r` straight into its values and
  /// views, leaving it for encode_new. False on malformed input, a view
  /// entry above 2^32-1, or a view below the predecessor's in some entry;
  /// a partly read node is then left for the caller's rollback.
  [[nodiscard]] bool decode_next(Chain& chain, ByteReader& r);

  /// Reads past one node, validating it as decode_next would except for
  /// the comparison with its predecessor.
  [[nodiscard]] static bool skip_node(ByteReader& r, Pid n);

  Pid n_;
  std::vector<Chain> chains_;
};

/// The walk behind SampleDag::fair_chain, kept so that it can resume after
/// the DAG grows instead of walking again.
///
/// The walk reads the DAG's counts only at its stops: where an own batch
/// runs out of samples, and where a round-robin creator has no unused
/// sample that sees the tip. Every other choice reads nodes, which never
/// change. Each stop records the chain length, the creator, the creator's
/// count and the phase. On growth, the walk up to the first stop the new
/// nodes get past is unchanged, and it continues from there. A
/// round-robin stop is passed only when the creator's newest sample sees
/// the tip: views never shrink along a chain, so if that one does not,
/// none of the new ones does.
class FairWalk {
 public:
  /// SampleDag::fair_chain(u, batch) of `dag`. When the previous call had
  /// the same u and batch, `dag` must be that call's DAG or a DAG grown
  /// from it, and the walk resumes.
  [[nodiscard]] const std::vector<NodeRef>& walk(const SampleDag& dag,
                                                 NodeRef u, int batch,
                                                 DagWork& work);

  /// The chain of the last walk.
  [[nodiscard]] const std::vector<NodeRef>& chain() const { return chain_; }

  /// Forgets the walk, as when its DAG is replaced.
  void clear() {
    chain_.clear();
    stops_.clear();
  }

 private:
  struct Stop {
    std::size_t len = 0;     ///< chain length at the stop
    Pid q = 0;               ///< the creator whose samples ran out
    std::uint32_t count = 0; ///< count_of(q) when last checked
    bool own = false;        ///< own batch, else round robin
    int at = 0;              ///< own: allowance left; round robin: offset
  };

  /// Continues the walk on chain_ from its last node: up to `allowance`
  /// own successors, then round robin from `offset`, to the end.
  void extend(const SampleDag& dag, int allowance, Pid offset,
              DagWork& work);

  int batch_ = 0;
  std::vector<NodeRef> chain_;
  /// used_[q] = index of q's last sample on the chain, 0 if none.
  std::vector<std::uint32_t> used_;
  std::vector<Stop> stops_;
};

}  // namespace nucon
