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
    if (a.chains_[q].ds != b.chains_[q].ds ||
        a.chains_[q].vcs != b.chains_[q].vcs) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> SampleDag::frontier() const {
  std::vector<std::uint32_t> f(static_cast<std::size_t>(n_));
  for (Pid q = 0; q < n_; ++q) f[static_cast<std::size_t>(q)] = count_of(q);
  return f;
}

NodeRef SampleDag::take_sample(Pid p, const FdValue& d) {
  assert(p >= 0 && p < n_);
  Chain& chain = chains_[static_cast<std::size_t>(p)];
  for (Pid q = 0; q < n_; ++q) chain.vcs.push_back(count_of(q));
  chain.ds.push_back(d);
  encode_new(chain);
  return NodeRef{p, count_of(p)};
}

void SampleDag::encode_new(Chain& chain) const {
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t k = chain.starts.size(); k < chain.ds.size(); ++k) {
    chain.starts.push_back(chain.enc.size());
    chain.ds[k].encode(chain.enc, n_);
    for (std::uint32_t c :
         std::span<const std::uint32_t>(chain.vcs).subspan(k * n, n)) {
      chain.enc.uvarint(c);
    }
  }
}

void SampleDag::merge_from(const SampleDag& other) {
  assert(other.n_ == n_);
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t q = 0; q < n; ++q) {
    Chain& chain = chains_[q];
    const Chain& theirs = other.chains_[q];
    for (std::size_t k = chain.ds.size(); k < theirs.ds.size(); ++k) {
      const auto vc = theirs.vcs.begin() + static_cast<std::ptrdiff_t>(k * n);
      chain.vcs.insert(chain.vcs.end(), vc, vc + static_cast<std::ptrdiff_t>(n));
      chain.ds.push_back(theirs.ds[k]);
    }
    encode_new(chain);
  }
}

std::size_t SampleDag::total_nodes() const {
  std::size_t total = 0;
  for (const Chain& chain : chains_) total += chain.ds.size();
  return total;
}

std::uint64_t SampleDag::total_edges() const {
  std::uint64_t total = 0;
  for (const Chain& chain : chains_) {
    total += std::accumulate(chain.vcs.begin(), chain.vcs.end(),
                             std::uint64_t{0});
  }
  return total;
}

std::vector<std::uint32_t> SampleDag::acked_frontier(Pid r) const {
  const std::uint32_t j = count_of(r);
  if (j == 0) return std::vector<std::uint32_t>(static_cast<std::size_t>(n_), 0);
  const auto vc = node(NodeRef{r, j}).vc;
  std::vector<std::uint32_t> f(vc.begin(), vc.end());
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

namespace {

/// One creation-view entry: a varint no larger than 2^32-1.
std::optional<std::uint32_t> read_entry(ByteReader& r) {
  const auto v = r.uvarint();
  if (!v || *v > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

}  // namespace

bool SampleDag::skip_node(ByteReader& r, Pid n) {
  if (!FdValue::decode(r, n)) return false;
  for (Pid c = 0; c < n; ++c) {
    if (!read_entry(r)) return false;
  }
  return true;
}

bool SampleDag::decode_next(Chain& chain, ByteReader& r) {
  const auto d = FdValue::decode(r, n_);
  if (!d) return false;
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t at = chain.vcs.size();
  chain.vcs.resize(at + n);
  for (std::size_t c = 0; c < n; ++c) {
    const auto v = read_entry(r);
    // No A_DAG run shrinks a view along a chain: that would drop an edge
    // (r,j) -> (q,k+1) while (r,j) -> (q,k) exists.
    if (!v || (at != 0 && *v < chain.vcs[at - n + c])) return false;
    chain.vcs[at + c] = *v;
  }
  chain.ds.push_back(*d);
  return true;
}

bool SampleDag::merge_payload(ByteView data, DagWork* work) {
  ByteReader r(data);
  const auto header = r.svarint();
  if (!header || (*header != n_ && *header != -std::int64_t{n_})) return false;
  const bool delta = *header < 0;

  // New nodes are decoded in place and encoded once the whole payload is
  // accepted, so a failure rolls back only the chains' values and views.
  const std::vector<std::uint32_t> held = frontier();
  const auto reject = [&] {
    for (std::size_t q = 0; q < chains_.size(); ++q) {
      chains_[q].ds.resize(held[q]);
      chains_[q].vcs.resize(held[q] * static_cast<std::size_t>(n_));
    }
    return false;
  };
  DagWork done;
  for (Pid q = 0; q < n_; ++q) {
    Chain& chain = chains_[static_cast<std::size_t>(q)];
    const std::uint32_t count = held[static_cast<std::size_t>(q)];
    const auto from = delta ? r.uvarint() : std::optional<std::uint64_t>(0);
    const auto len = r.uvarint();
    // Each node takes at least one byte per process plus its value, so a
    // length beyond the remaining input is malformed.
    if (!from || !len || *from > count || *len > r.remaining()) {
      return reject();
    }
    const std::uint64_t end = *from + *len;
    if (end > std::numeric_limits<std::uint32_t>::max()) return reject();

    // Nodes this DAG holds are never built. Bytes equal to its own
    // encoding of them are well formed by construction.
    const auto held_end =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(end, count));
    if (*from < held_end) {
      const std::size_t lo = chain.starts[*from];
      const std::size_t hi =
          held_end < count ? chain.starts[held_end] : chain.enc.size();
      if (r.skip_prefix(std::span<const std::uint8_t>(chain.enc.buffer())
                            .subspan(lo, hi - lo))) {
        done.held_skipped += held_end - *from;
      } else {
        for (std::uint64_t k = *from; k < held_end; ++k) {
          if (!skip_node(r, n_)) return reject();
        }
        done.held_validated += held_end - *from;
      }
    }
    for (std::uint64_t k = held_end; k < end; ++k) {
      if (!decode_next(chain, r)) return reject();
    }
    done.nodes_decoded += static_cast<std::int64_t>(end - held_end);
  }
  if (!r.done()) return reject();
  for (Chain& chain : chains_) encode_new(chain);
  if (work != nullptr) *work += done;
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
    const auto vc = node(v).vc;
    return std::accumulate(vc.begin(), vc.end(), std::uint64_t{0});
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
  FairWalk walk;
  DagWork work;
  return walk.walk(*this, u, batch, work);
}

const std::vector<NodeRef>& FairWalk::walk(const SampleDag& dag, NodeRef u,
                                           int batch, DagWork& work) {
  assert(batch >= 1);
  if (chain_.empty() || chain_.front() != u || batch != batch_) {
    ++work.walks_restarted;
    clear();
    if (!dag.contains(u)) return chain_;
    batch_ = batch;
    chain_.push_back(u);
    extend(dag, batch - 1, 0, work);
    return chain_;
  }
  ++work.walks_resumed;
  for (std::size_t i = 0; i < stops_.size(); ++i) {
    Stop& stop = stops_[i];
    const std::uint32_t count = dag.count_of(stop.q);
    if (count == stop.count) continue;
    if (!stop.own) {
      const NodeRef tip = chain_[stop.len - 1];
      if (dag.node(NodeRef{stop.q, count})
              .vc[static_cast<std::size_t>(tip.q)] < tip.k) {
        stop.count = count;
        continue;
      }
    }
    // The first stop the growth gets past: the walk diverges here.
    const Stop passed = stop;
    stops_.resize(i);
    chain_.resize(passed.len);
    extend(dag, passed.own ? passed.at : 0, passed.own ? 0 : passed.at, work);
    break;
  }
  return chain_;
}

void FairWalk::extend(const SampleDag& dag, int allowance, Pid offset,
                      DagWork& work) {
  const Pid n = dag.n();
  used_.assign(static_cast<std::size_t>(n), 0);
  for (const NodeRef& v : chain_) used_[static_cast<std::size_t>(v.q)] = v.k;
  while (true) {
    NodeRef last = chain_.back();
    // (q, k) -> (q, k+1) is always an edge; take up to `allowance`
    // successors.
    for (; allowance > 0; --allowance) {
      if (last.k >= dag.count_of(last.q)) {
        stops_.push_back({chain_.size(), last.q, last.k, true, allowance});
        break;
      }
      last = NodeRef{last.q, last.k + 1};
      used_[static_cast<std::size_t>(last.q)] = last.k;
      chain_.push_back(last);
    }
    for (; offset < n; ++offset) {
      const Pid q = static_cast<Pid>((last.q + 1 + offset) % n);
      const std::uint32_t count = dag.count_of(q);
      // q's first unused sample whose creation view includes `last`.
      // vc[last.q] is nondecreasing in k, so this is a binary search.
      std::uint32_t lo = used_[static_cast<std::size_t>(q)] + 1;
      std::uint32_t hi = count + 1;
      if (lo < hi) ++work.walk_searches;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (dag.node(NodeRef{q, mid}).vc[static_cast<std::size_t>(last.q)] <
            last.k) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo > count) {
        stops_.push_back({chain_.size(), q, count, false, offset});
        continue;
      }
      used_[static_cast<std::size_t>(q)] = lo;
      chain_.push_back(NodeRef{q, lo});
      break;
    }
    if (offset == n) return;
    allowance = batch_ - 1;
    offset = 0;
  }
}

}  // namespace nucon
