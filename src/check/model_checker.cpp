#include "check/model_checker.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <future>
#include <memory>
#include <map>
#include <mutex>
#include <thread>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exp/thread_pool.hpp"
#include "sim/step.hpp"

namespace nucon {
namespace {

std::string disagreement_text(Pid a, Value va, Pid b, Value vb) {
  if (b < a) {
    std::swap(a, b);
    std::swap(va, vb);
  }
  return "processes " + std::to_string(a) + " and " + std::to_string(b) +
         " decided " + std::to_string(va) + " vs " + std::to_string(vb);
}

// ---------------------------------------------------------------------------
// The incremental parallel engine (see the header comment for the design).
// ---------------------------------------------------------------------------

/// One automaton's complete encoded state plus its content hash, computed
/// once at encode time and reused by every configuration (and every dedup
/// key) that shares the section.
struct Section {
  Bytes bytes;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
};

using SectionPtr = std::shared_ptr<const Section>;

/// An in-flight message of the canonical configuration encoding. The
/// payload lives in the engine's PayloadPool and is referenced by index,
/// which keeps Wire trivially copyable — wire-list copies are memmoves and
/// frontier teardown is a plain free, with no refcount traffic. h1/h2
/// cache the wire's Zobrist element hash (computed once at send time, see
/// key_of below).
struct Wire {
  Pid to = -1;
  MsgId id;
  std::uint32_t payload = 0;
  std::uint64_t ord = 0;  // (to, sender, seq) packed; integer order is
                          // the canonical wire order
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
};

bool wire_before(const Wire& a, const Wire& b) { return a.ord < b.ord; }

/// Append-only payload store. Chunked so element addresses are stable and
/// the chunk table never reallocates (capacity is reserved up front):
/// the sequential merge appends new payloads while same-layer workers
/// read older indices concurrently — stable addresses plus the pool
/// handoff through the task queue make that race-free. Payloads are
/// interned only for admitted configurations, in merge order, so indices
/// are deterministic for any thread count.
class PayloadPool {
 public:
  PayloadPool() { chunks_.reserve(kMaxChunks); }

  std::uint32_t add(SharedBytes payload) {
    const std::size_t i = size_;
    if ((i & kChunkMask) == 0) {
      assert(chunks_.size() < kMaxChunks && "payload pool exhausted");
      chunks_.push_back(std::make_unique<SharedBytes[]>(kChunkSize));
    }
    chunks_[i >> kChunkBits][i & kChunkMask] = std::move(payload);
    ++size_;
    return static_cast<std::uint32_t>(i);
  }

  [[nodiscard]] const Bytes& at(std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & kChunkMask].get();
  }

 private:
  static constexpr std::size_t kChunkBits = 14;  // 16384 payloads per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMaxChunks = 1 << 16;

  std::vector<std::unique_ptr<SharedBytes[]>> chunks_;
  std::size_t size_ = 0;
};

struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend Key128 operator^(Key128 a, Key128 b) {
    return {a.lo ^ b.lo, a.hi ^ b.hi};
  }
};

/// A compact configuration: complete per-automaton encodings (shared with
/// the parent configuration for the n-1 processes that did not step),
/// packed per-process counters (own_steps << 32 | sends), and the wire
/// list sorted by wire_before. The sorted order makes delivery indices
/// intrinsic to the configuration rather than to the path that reached
/// it. `key` is the configuration's dedup key, maintained incrementally.
struct Config {
  std::vector<SectionPtr> autom;
  std::vector<std::uint64_t> counters;
  std::vector<Wire> wires;
  Key128 key;
};

int own_steps_of(std::uint64_t counter) {
  return static_cast<int>(counter >> 32);
}

std::uint64_t fmix64(std::uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ULL;
  v ^= v >> 33;
  return v;
}

// Two independent 64-bit absorb chains (splitmix-style and murmur-style
// finalizers). A single 64-bit visited key silently prunes an unexplored
// subtree on collision; with two unrelated mixes a prune requires both
// halves to collide. hash_collisions counts how often the widened key
// saved a bucket.

std::uint64_t absorb1(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ULL + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::uint64_t absorb2(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x9ddfea08eb382d69ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 29;
  return h;
}

/// The dedup key is Zobrist-style: the XOR of one element hash per
/// constituent (each process's section + counters; each in-flight wire).
/// XOR lets a child's key be derived from the parent's in O(1) — flip the
/// stepped process's old and new elements, the delivered wire, and the
/// fresh sends. Elements never collide by construction (a process element
/// carries p, a wire element its unique (to, sender, seq)), so the XOR is
/// over a set, never a multiset.
struct Hash2 {
  std::uint64_t a;
  std::uint64_t b;

  explicit Hash2(std::uint64_t seed) : a(seed), b(~seed) {}

  void mix(std::uint64_t v) {
    a = absorb1(a, v);
    b = absorb2(b, v);
  }

  void bytes(const Bytes& data) {
    mix(data.size());
    // Word-at-a-time absorb of the content.
    std::size_t i = 0;
    std::uint64_t word = 0;
    for (std::uint8_t c : data) {
      word = (word << 8) | c;
      if (++i % 8 == 0) {
        mix(word);
        word = 0;
      }
    }
    if (i % 8 != 0) mix(word);
  }

  [[nodiscard]] Key128 key() const { return {a, b}; }
};

Key128 content_hash(const Bytes& data) {
  Hash2 h(0x6e75636f6eULL);  // "nucon"
  h.bytes(data);
  return h.key();
}

/// Element hash of process p's section + packed counters.
Key128 process_element(Pid p, const Section& s, std::uint64_t counter) {
  Hash2 h(0x70726f63ULL);  // "proc"
  h.mix(static_cast<std::uint64_t>(p));
  h.mix(s.h1);
  h.mix(s.h2);
  h.mix(counter);
  return h.key();
}

/// Element hash of an in-flight wire (cached in Wire::h1/h2).
/// `payload_hash` is the content_hash of the payload bytes, so a
/// broadcast's shared buffer is hashed once, not per destination.
Key128 wire_element(Pid to, MsgId id, Key128 payload_hash) {
  Hash2 h(0x77697265ULL);  // "wire"
  h.mix(static_cast<std::uint64_t>(to));
  h.mix(static_cast<std::uint64_t>(id.sender));
  h.mix(id.seq);
  h.mix(payload_hash.lo);
  h.mix(payload_hash.hi);
  return h.key();
}

/// Full (non-incremental) key, used for the root configuration only.
Key128 key_of(const Config& cfg) {
  Key128 k{};
  const Pid n = static_cast<Pid>(cfg.autom.size());
  for (Pid p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    k = k ^ process_element(p, *cfg.autom[i], cfg.counters[i]);
  }
  for (const Wire& w : cfg.wires) k = k ^ Key128{w.h1, w.h2};
  return k;
}

/// First-decider summary carried along each path so a new decision is
/// checked in O(1) instead of rescanning all n decisions per node. Any
/// disagreement anywhere conflicts with the first decider's value.
struct Decided {
  Pid pid = -1;
  Value value = 0;
};

// --- sleep sets ------------------------------------------------------------
//
// A sleep element is a step identified by (process, delivered message id);
// unlike the delivery index, the id survives the parent-to-child wire-list
// reshuffle. The id packs into one word — (p, sender+1, seq) in descending
// bit position — so its integer order IS the canonical enabled order
// (process ascending, lambda before deliveries in (sender, seq) order),
// and every set operation below is a single-word merge-scan.

using StepId = std::uint64_t;
using SleepSet = std::vector<StepId>;  // sorted ascending

constexpr StepId kStepIdNone = ~StepId{0};

StepId step_id_pack(Pid p, Pid sender, std::uint64_t seq) {
  // p, sender < 2^8 and seq < 2^48 — n is single-digit and a process
  // cannot send more messages than there are explored states.
  return (static_cast<StepId>(static_cast<std::uint8_t>(p)) << 56) |
         (static_cast<StepId>(static_cast<std::uint8_t>(sender + 1)) << 48) |
         seq;
}

Pid step_id_pid(StepId id) { return static_cast<Pid>(id >> 56); }

/// Streams the sleep set a child arrives with, in ascending order: the
/// parent's sleep plus the explored steps ordered before it
/// (targets[0..before)), minus every element of the stepping process —
/// same-process steps are the dependent ones (they race on one automaton
/// and its queue), everything else commutes and stays asleep. Streaming
/// lets the merge test duplicates against it without materializing.
struct ChildSleep {
  const StepId* a = nullptr;  // parent sleep
  std::size_t an = 0;
  const StepId* b = nullptr;  // targets
  std::size_t bn = 0;
  Pid skip = -1;
  std::size_t i = 0;
  std::size_t j = 0;

  ChildSleep(const SleepSet& parent, const SleepSet& targets,
             std::size_t before, Pid stepping)
      : a(parent.data()),
        an(parent.size()),
        b(targets.data()),
        bn(before),
        skip(stepping) {}

  StepId next() {
    for (;;) {
      StepId v;
      if (i < an && (j >= bn || a[i] <= b[j])) {
        v = a[i];
        if (j < bn && b[j] == v) ++j;
        ++i;
      } else if (j < bn) {
        v = b[j++];
      } else {
        return kStepIdNone;
      }
      if (step_id_pid(v) != skip) return v;
    }
  }

  [[nodiscard]] SleepSet materialize() {
    SleepSet out;
    out.reserve(an + bn);
    for (StepId v = next(); v != kStepIdNone; v = next()) out.push_back(v);
    return out;
  }
};

/// stored ⊆ cursor's stream? Allocation-free — the common dedup path asks
/// only this question. Consumes the cursor.
bool sleep_subset(const SleepSet& stored, ChildSleep cursor) {
  StepId v = cursor.next();
  for (const StepId s : stored) {
    while (v != kStepIdNone && v < s) v = cursor.next();
    if (v != s) return false;
    v = cursor.next();
  }
  return true;
}

// --- frontier expansion ----------------------------------------------------

struct WorkItem {
  std::uint32_t node = 0;  // witness parent-chain id
  int depth = 0;           // minimum depth of this configuration
  Config cfg;
  Decided decided;
  SleepSet sleep;  // sleep set this configuration was reached with
  /// Reconciliation pass: expand exactly these steps (the ones an earlier
  /// visit left asleep but the new arrival demands). Empty optional for a
  /// normal first expansion.
  std::optional<SleepSet> only;
};

/// Local-transition memo. A step's outcome (post-step section, sends,
/// decision) is a pure function of the stepping process's section, its
/// own-step index (which fixes the failure-detector value), and the
/// delivered payload — NOT of the rest of the configuration. Global
/// configurations are near-products of few distinct local states, so the
/// same local transition recurs across thousands of configurations; the
/// memo replaces restore+step+encode+hash with one table hit. Caching a
/// pure function on any worker cannot perturb results, so determinism
/// across thread counts is untouched.
struct StepMemo {
  struct Key {
    Pid p = -1;
    int own = 0;
    Pid sender = -1;
    std::uint64_t s_h1 = 0;   // stepping process's section content hash
    std::uint64_t s_h2 = 0;
    std::int64_t payload = -1;  // pool index of the delivery, -1 for lambda

    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = absorb1(0x6d656d6fULL, static_cast<std::uint64_t>(k.p));
      h = absorb1(h, static_cast<std::uint64_t>(k.own));
      h = absorb1(h, static_cast<std::uint64_t>(k.sender));
      h = absorb1(h, k.s_h1 ^ k.s_h2);
      h = absorb1(h, static_cast<std::uint64_t>(k.payload));
      return static_cast<std::size_t>(h);
    }
  };

  struct Send {
    Pid to = -1;
    SharedBytes payload;
    Key128 phash;  // payload content hash
  };

  struct Val {
    SectionPtr section;
    std::optional<Value> decision;
    std::vector<Send> sends;
  };

  using ValPtr = std::shared_ptr<const Val>;

  std::unordered_map<Key, ValPtr, KeyHash> map;
};

/// A child configuration in delta form: the local transition's outcome
/// (shared with every candidate that took the same local step), the
/// child's dedup key and updated counter, and the delivered wire's index.
/// The full Config is only materialized (build_config) for candidates
/// that survive dedup AND are below the depth bound — the majority
/// (duplicates and the deepest layer's leaves) never pay for the
/// wire-list copy, and a candidate itself allocates nothing.
struct Candidate {
  McStep step;
  Key128 key;                // the child's dedup key
  StepMemo::ValPtr val;      // post-step section, sends, decision
  std::uint64_t counter = 0; // stepped process's updated packed counter
  int widx = -1;             // delivered wire index in the parent, -1 lambda
  Decided decided;
  bool violation = false;
  std::string violation_text;
};

/// Materializes a candidate's full configuration from its parent's,
/// interning the fresh sends' payloads. Wire ids and element hashes are
/// recomputed here rather than stored per candidate: only survivors pay,
/// and the recompute is a handful of integer mixes.
Config build_config(const Config& parent, const Candidate& c,
                    PayloadPool& pool) {
  Config cfg;
  cfg.key = c.key;
  const auto pi = static_cast<std::size_t>(c.step.p);
  cfg.autom = parent.autom;
  cfg.autom[pi] = c.val->section;
  cfg.counters = parent.counters;
  cfg.counters[pi] = c.counter;
  // The parent's wires minus the delivered one are already in canonical
  // order; each fresh send is placed by binary search instead of
  // re-sorting the whole list.
  const std::vector<StepMemo::Send>& sends = c.val->sends;
  cfg.wires.reserve(parent.wires.size() + sends.size());
  for (std::size_t w = 0; w < parent.wires.size(); ++w) {
    if (static_cast<int>(w) != c.widx) cfg.wires.push_back(parent.wires[w]);
  }
  const std::uint64_t base = (c.counter & 0xFFFFFFFFULL) - sends.size();
  for (std::size_t k = 0; k < sends.size(); ++k) {
    Wire wire;
    wire.to = sends[k].to;
    wire.id = MsgId{c.step.p, base + k + 1};
    wire.ord = step_id_pack(wire.to, wire.id.sender, wire.id.seq);
    const Key128 we = wire_element(wire.to, wire.id, sends[k].phash);
    wire.h1 = we.lo;
    wire.h2 = we.hi;
    wire.payload = pool.add(sends[k].payload);
    const auto at =
        std::upper_bound(cfg.wires.begin(), cfg.wires.end(), wire, wire_before);
    cfg.wires.insert(at, wire);
  }
  return cfg;
}

struct Expansion {
  std::vector<Candidate> cands;
  /// Packed ids of the expanded steps, aligned with cands: the sleep set
  /// cands[i] arrives with is ChildSleep(item.sleep, targets, i, step.p),
  /// computed lazily by the merge — duplicates never materialize one.
  SleepSet targets;
  std::size_t por_skips = 0;
};

/// One expanding thread's reusable state, owned by the search and freed
/// with it. restore_state overwrites an automaton's complete state, so one
/// instance per process serves every expansion the Worker runs, with no
/// construct/destroy per candidate. The memo caches a pure function, so
/// which Worker expands a chunk changes no result.
struct Worker {
  explicit Worker(Pid n) : automata(static_cast<std::size_t>(n)) {}

  std::vector<std::unique_ptr<ConsensusAutomaton>> automata;  // made lazily
  ByteWriter encoder;
  std::vector<McStep> chosen;  // the expanded steps, aligned with chosen_wire
  std::vector<int> chosen_wire;
  std::vector<Outgoing> sends;
  StepMemo memo;

  ConsensusAutomaton& automaton(const McOptions& opts, Pid p) {
    auto& slot = automata[static_cast<std::size_t>(p)];
    if (!slot) slot = opts.make(p, opts.proposals[static_cast<std::size_t>(p)]);
    return *slot;
  }

  SectionPtr encode_section(const Automaton& a) {
    encoder.reset();
    const bool ok = a.save_state(encoder);
    assert(ok);
    (void)ok;
    auto section = std::make_shared<Section>();
    section->bytes = encoder.buffer();
    const Key128 h = content_hash(section->bytes);
    section->h1 = h.lo;
    section->h2 = h.hi;
    return section;
  }
};

/// The Workers of one search, one per expanding thread: a thread keeps
/// its Worker for the whole search, so the memo it fills stays in that
/// thread's caches and allocator arena.
class WorkerList {
 public:
  explicit WorkerList(Pid n) : n_(n) {}

  /// The calling thread's Worker, made on its first call.
  Worker& mine() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Worker>& w = by_thread_[std::this_thread::get_id()];
    if (!w) w = std::make_unique<Worker>(n_);
    return *w;
  }

  std::vector<std::unique_ptr<Worker>> take_all() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::unique_ptr<Worker>> all;
    for (auto& [thread, w] : by_thread_) all.push_back(std::move(w));
    by_thread_.clear();
    return all;
  }

 private:
  const Pid n_;
  std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<Worker>> by_thread_;
};

/// Computes one frontier item's children: pure function of the item (the
/// pool is read-only here), so the parallel layer can run it on any worker
/// in any order.
Expansion expand(const McOptions& opts, const PayloadPool& pool,
                 const WorkItem& item, Worker& worker) {
  Expansion out;
  const Config& cfg = item.cfg;

  // The expanded steps, chosen while walking the enabled steps in
  // canonical order (== ascending packed step id): per process its lambda
  // step, then its pending deliveries in (sender, seq) order. Scratch
  // vectors are reused across calls on the same worker.
  std::vector<McStep>& chosen = worker.chosen;
  std::vector<int>& chosen_wire = worker.chosen_wire;
  chosen.clear();
  chosen_wire.clear();

  if (item.only) {
    // Reconciliation pass: expand exactly the demanded steps. They were
    // enabled when this configuration was first expanded, hence are
    // enabled now (same configuration) — but their delivery indices must
    // be re-derived from the canonical list.
    std::size_t w = 0;
    std::size_t o = 0;
    for (Pid p = 0; p < opts.n && o < item.only->size(); ++p) {
      if ((*item.only)[o] == step_id_pack(p, -1, 0)) {
        out.targets.push_back((*item.only)[o]);
        chosen.push_back({p, -1, MsgId{}});
        chosen_wire.push_back(-1);
        ++o;
      }
      int local = 0;
      while (w < cfg.wires.size() && cfg.wires[w].to == p) {
        if (o < item.only->size() && (*item.only)[o] == cfg.wires[w].ord) {
          out.targets.push_back(cfg.wires[w].ord);
          chosen.push_back({p, local, cfg.wires[w].id});
          chosen_wire.push_back(static_cast<int>(w));
          ++o;
        }
        ++local;
        ++w;
      }
    }
  } else {
    // Normal expansion: every enabled step not asleep. The sleep set is
    // ascending like the enumeration, so one merge-scan suffices.
    std::size_t w = 0;
    std::size_t s = 0;
    const auto awake = [&](StepId id) {
      if (!opts.use_por) return true;
      while (s < item.sleep.size() && item.sleep[s] < id) ++s;
      if (s < item.sleep.size() && item.sleep[s] == id) {
        ++out.por_skips;
        ++s;
        return false;
      }
      return true;
    };
    for (Pid p = 0; p < opts.n; ++p) {
      if (awake(step_id_pack(p, -1, 0))) {
        out.targets.push_back(step_id_pack(p, -1, 0));
        chosen.push_back({p, -1, MsgId{}});
        chosen_wire.push_back(-1);
      }
      int local = 0;
      while (w < cfg.wires.size() && cfg.wires[w].to == p) {
        if (awake(cfg.wires[w].ord)) {
          out.targets.push_back(cfg.wires[w].ord);
          chosen.push_back({p, local, cfg.wires[w].id});
          chosen_wire.push_back(static_cast<int>(w));
        }
        ++local;
        ++w;
      }
    }
  }

  out.cands.reserve(chosen.size());
  std::vector<Outgoing>& sends = worker.sends;
  StepMemo& memo = worker.memo;
  // Backstop against unbounded growth on huge runs; re-warming is cheap
  // relative to the memory.
  if (memo.map.size() > (8u << 20)) memo.map.clear();

  for (std::size_t k = 0; k < chosen.size(); ++k) {
    const McStep& step = chosen[k];
    const auto pi = static_cast<std::size_t>(step.p);
    const Section& before = *cfg.autom[pi];
    const int own = own_steps_of(cfg.counters[pi]) + 1;
    const int widx = chosen_wire[k];

    StepMemo::Key mk;
    mk.p = step.p;
    mk.own = own;
    mk.s_h1 = before.h1;
    mk.s_h2 = before.h2;
    if (widx >= 0) {
      const Wire& wire = cfg.wires[static_cast<std::size_t>(widx)];
      mk.sender = wire.id.sender;
      mk.payload = static_cast<std::int64_t>(wire.payload);
    }

    const auto [mit, fresh] = memo.map.try_emplace(mk);
    if (fresh) {
      ConsensusAutomaton& child = worker.automaton(opts, step.p);
      const bool ok = child.restore(before.bytes);
      assert(ok && "restore_state must accept its own save_state encoding");
      (void)ok;
      const FdValue d = opts.fd(step.p, own);
      sends.clear();
      if (widx >= 0) {
        const Wire& wire = cfg.wires[static_cast<std::size_t>(widx)];
        // No `shared`: workers read the pool's buffers concurrently, and
        // a buffer's decode slot is not synchronized. StepMemo already
        // caches whole transitions per worker.
        const Incoming in{wire.id.sender, pool.at(wire.payload)};
        child.step(&in, d, sends);
      } else {
        child.step(nullptr, d, sends);
      }
      auto v = std::make_shared<StepMemo::Val>();
      v->section = worker.encode_section(child);
      v->decision = child.decision();
      // A broadcast shares one payload buffer across destinations; hash
      // the content once.
      const Bytes* hashed_raw = nullptr;
      bool have_hash = false;
      Key128 payload_hash{};
      v->sends.reserve(sends.size());
      for (Outgoing& o : sends) {
        if (!have_hash || o.payload.raw() != hashed_raw) {
          hashed_raw = o.payload.raw();
          payload_hash = content_hash(o.payload.get());
          have_hash = true;
        }
        v->sends.push_back({o.to, std::move(o.payload), payload_hash});
      }
      mit->second = std::move(v);
    }
    const StepMemo::Val& v = *mit->second;

    Candidate c;
    c.step = step;
    c.widx = widx;
    c.val = mit->second;
    c.counter = (static_cast<std::uint64_t>(own) << 32) |
                ((cfg.counters[pi] & 0xFFFFFFFFULL) + v.sends.size());
    Key128 key = cfg.key;
    if (widx >= 0) {
      const Wire& delivered = cfg.wires[static_cast<std::size_t>(widx)];
      key = key ^ Key128{delivered.h1, delivered.h2};
    }
    std::uint64_t seq = cfg.counters[pi] & 0xFFFFFFFFULL;
    for (const StepMemo::Send& s : v.sends) {
      key = key ^ wire_element(s.to, MsgId{step.p, ++seq}, s.phash);
    }
    key = key ^ process_element(step.p, before, cfg.counters[pi]);
    key = key ^ process_element(step.p, *v.section, c.counter);
    c.key = key;

    c.decided = item.decided;
    if (v.decision) {
      const Value dv = *v.decision;
      if (item.decided.pid < 0) {
        c.decided = Decided{step.p, dv};
      } else if (step.p != item.decided.pid && dv != item.decided.value) {
        c.violation = true;
        c.violation_text = disagreement_text(item.decided.pid,
                                             item.decided.value, step.p, dv);
      }
    }

    out.cands.push_back(std::move(c));
  }
  return out;
}

// --- deterministic sequential merge ----------------------------------------

struct VisitEntry {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t node = 0;
  std::uint32_t next = 0;  // 1-based index of the next entry with equal lo
  int depth = 0;
  bool expanded = false;
  SleepSet sleep;  // transitions not yet explored from this configuration
};

/// The visited set: open-addressing slots keyed by the low key half,
/// chaining to entries (the chain is only ever longer than one on a 64-bit
/// half-key collision). Flat probing costs ~1 cache miss per lookup where
/// a node-based map pays 2-3.
class Visited {
 public:
  Visited() : slots_(kInitialSlots), mask_(kInitialSlots - 1) {}

  /// The entry matching (lo, hi), or nullptr. lo_seen reports whether any
  /// entry with the same low half exists (the collision counter's input).
  VisitEntry* find(std::uint64_t lo, std::uint64_t hi, bool& lo_seen) {
    std::size_t i = fmix64(lo) & mask_;
    while (slots_[i].head != 0) {
      if (slots_[i].lo == lo) {
        lo_seen = true;
        for (std::uint32_t e = slots_[i].head; e != 0;
             e = entries_[e - 1].next) {
          if (entries_[e - 1].hi == hi) return &entries_[e - 1];
        }
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
    lo_seen = false;
    return nullptr;
  }

  /// Inserts a new entry; (lo, hi) must not already be present. The
  /// returned reference is valid until the next insert.
  VisitEntry& insert(VisitEntry entry) {
    if ((entries_.size() + 1) * 10 >= slots_.size() * 7) grow();
    entries_.push_back(std::move(entry));
    place(static_cast<std::uint32_t>(entries_.size()));
    return entries_.back();
  }

  void reserve(std::size_t n) {
    while (n * 10 >= slots_.size() * 7) grow();
  }

  /// Pulls the slot line for an upcoming find into cache; lookups are
  /// effectively random so each one is otherwise a guaranteed miss.
  void prefetch(std::uint64_t lo) const {
    __builtin_prefetch(&slots_[fmix64(lo) & mask_]);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 1024;

  struct Slot {
    std::uint64_t lo = 0;
    std::uint32_t head = 0;  // 1-based entry index; 0 = empty slot
  };

  void place(std::uint32_t id) {
    VisitEntry& entry = entries_[id - 1];
    std::size_t i = fmix64(entry.lo) & mask_;
    while (slots_[i].head != 0 && slots_[i].lo != entry.lo) {
      i = (i + 1) & mask_;
    }
    if (slots_[i].head == 0) {
      slots_[i] = {entry.lo, id};
    } else {
      entry.next = slots_[i].head;
      slots_[i].head = id;
    }
  }

  void grow() {
    slots_.assign(slots_.size() * 2, {});
    mask_ = slots_.size() - 1;
    for (VisitEntry& entry : entries_) entry.next = 0;
    for (std::uint32_t id = 1; id <= entries_.size(); ++id) place(id);
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::vector<VisitEntry> entries_;
};

struct NodeMeta {
  std::uint32_t parent = 0;
  McStep step;
};

/// All mutable search state lives here and is only touched by the merge,
/// which consumes expansions in canonical frontier order — so dedup,
/// budget accounting, and violation selection are identical no matter how
/// many threads produced the expansions.
struct Engine {
  explicit Engine(const McOptions& o) : opts(o) {}

  const McOptions& opts;

  McResult result;
  Visited visited;
  PayloadPool payloads;
  std::vector<NodeMeta> meta;
  std::vector<WorkItem> next;
  bool budget_hit = false;
  bool stop = false;

  void merge(const WorkItem& item, Expansion& e) {
    result.por_skipped += e.por_skips;
    for (const Candidate& c : e.cands) visited.prefetch(c.key.lo);
    for (std::size_t i = 0; i < e.cands.size(); ++i) {
      if (stop) return;
      merge_candidate(item, e.targets, i, e.cands[i]);
    }
  }

  void merge_candidate(const WorkItem& item, const SleepSet& targets,
                       std::size_t index, Candidate& c) {
    const Key128 key = c.key;
    bool lo_seen = false;
    VisitEntry* found = visited.find(key.lo, key.hi, lo_seen);

    if (found == nullptr) {
      if (lo_seen) ++result.hash_collisions;
      if (result.states_explored >= opts.max_states) {
        // The budget check runs before the new configuration is admitted:
        // nothing past max_states is materialized or counted.
        budget_hit = true;
        stop = true;
        return;
      }
      ++result.states_explored;
      const int depth = item.depth + 1;
      result.peak_depth = std::max(result.peak_depth, depth);
      const auto id = static_cast<std::uint32_t>(meta.size());
      meta.push_back({item.node, c.step});
      if (c.violation) {
        result.violation_found = true;
        result.violation = std::move(c.violation_text);
        result.witness = witness_of(id);
        stop = true;
        return;
      }
      const bool expandable = depth < opts.max_depth;
      SleepSet sleep;
      if (expandable && opts.use_por) {
        sleep = ChildSleep(item.sleep, targets, index, c.step.p).materialize();
      }
      visited.insert({key.lo, key.hi, id, 0, depth, expandable, sleep});
      if (expandable) {
        next.push_back(WorkItem{id, depth, build_config(item.cfg, c, payloads),
                                c.decided, std::move(sleep), std::nullopt});
      }
      return;
    }

    // Revisit. A depth-capped leaf was never expanded and never will be
    // (BFS only revisits at >= the stored minimum depth), so any arrival
    // is a pure dedup. An expanded entry must reconcile sleep sets: steps
    // the first visit left asleep but this arrival demands are explored
    // now, from the stored minimum depth, or the reduction would lose
    // states the unreduced search reaches.
    if (!found->expanded) {
      ++result.states_deduped;
      return;
    }
    if (sleep_subset(found->sleep,
                     ChildSleep(item.sleep, targets, index, c.step.p))) {
      ++result.states_deduped;
      return;
    }
    SleepSet arrival =
        ChildSleep(item.sleep, targets, index, c.step.p).materialize();
    SleepSet missing;
    std::set_difference(found->sleep.begin(), found->sleep.end(),
                        arrival.begin(), arrival.end(),
                        std::back_inserter(missing));
    ++result.states_reexpanded;
    SleepSet inter;
    std::set_intersection(found->sleep.begin(), found->sleep.end(),
                          arrival.begin(), arrival.end(),
                          std::back_inserter(inter));
    found->sleep = std::move(inter);
    next.push_back(WorkItem{found->node, found->depth,
                            build_config(item.cfg, c, payloads), c.decided,
                            std::move(arrival), std::move(missing)});
  }

  [[nodiscard]] std::vector<McStep> witness_of(std::uint32_t id) const {
    std::vector<McStep> steps;
    for (std::uint32_t at = id; at != 0; at = meta[at].parent) {
      steps.push_back(meta[at].step);
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }
};

/// Expands one layer over the pool. Chunks are submitted in frontier
/// order with a bounded in-flight window and merged strictly in that
/// order; workers only ever run the pure expand(), so the schedule of
/// workers is invisible to the result.
void parallel_layer(Engine& engine, exp::ThreadPool& pool,
                    WorkerList& per_thread,
                    const std::vector<WorkItem>& frontier) {
  const McOptions& opts = engine.opts;
  const std::size_t workers = std::max(1u, pool.size());
  const std::size_t chunk =
      std::clamp<std::size_t>(frontier.size() / (workers * 4), 1, 256);
  const std::size_t window = workers * 4;

  std::deque<std::pair<std::size_t, std::future<std::vector<Expansion>>>>
      inflight;
  std::size_t submitted = 0;

  const PayloadPool& payloads = engine.payloads;
  const auto submit_next = [&] {
    const std::size_t begin = submitted;
    const std::size_t end = std::min(frontier.size(), begin + chunk);
    submitted = end;
    inflight.emplace_back(
        begin,
        pool.submit([&opts, &per_thread, &payloads, &frontier, begin, end] {
          Worker& worker = per_thread.mine();
          std::vector<Expansion> out;
          out.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            out.push_back(expand(opts, payloads, frontier[i], worker));
          }
          return out;
        }));
  };

  while (!inflight.empty() ||
         (!engine.stop && submitted < frontier.size())) {
    while (!engine.stop && submitted < frontier.size() &&
           inflight.size() < window) {
      submit_next();
    }
    if (inflight.empty()) break;
    const std::size_t begin = inflight.front().first;
    // Futures are always drained, even after a stop: the tasks borrow
    // the frontier, which must outlive them.
    std::vector<Expansion> results = inflight.front().second.get();
    inflight.pop_front();
    if (engine.stop) continue;
    for (std::size_t i = 0; i < results.size(); ++i) {
      engine.merge(frontier[begin + i], results[i]);
      if (engine.stop) break;
    }
  }
}

// ---------------------------------------------------------------------------
// The frozen pre-overhaul engine (model_check_consensus_replay_baseline):
// single-threaded DFS, O(depth) path replay per node, 64-bit dedup over
// each automaton's save_state bytes. Kept as the bench baseline and as the
// reference the parallel engine's verdicts are checked against.
// ---------------------------------------------------------------------------

struct MState {
  explicit MState(Pid n)
      : namer(n), own_steps(static_cast<std::size_t>(n), 0) {}

  std::vector<std::unique_ptr<ConsensusAutomaton>> automata;
  MessageBuffer buffer;
  SendNamer namer;
  std::vector<int> own_steps;
};

/// Takes `step` at logical time t, its index in the path.
void apply(const McOptions& opts, MState& state, const McStep& step, Time t) {
  const Pid p = step.p;
  std::optional<Message> msg;
  if (step.delivery >= 0) {
    assert(static_cast<std::size_t>(step.delivery) <
           state.buffer.pending_for(p));
    msg = state.buffer.take(p, static_cast<std::size_t>(step.delivery));
  }
  const FdValue d = opts.fd(p, ++state.own_steps[static_cast<std::size_t>(p)]);
  std::vector<Outgoing> sends;
  deliver(*state.automata[static_cast<std::size_t>(p)], msg, d, sends);
  for (Outgoing& o : sends) {
    state.buffer.add(state.namer.name(p, std::move(o), t));
  }
}

MState materialize(const McOptions& opts, const std::vector<McStep>& path) {
  MState state(opts.n);
  state.automata.reserve(static_cast<std::size_t>(opts.n));
  for (Pid p = 0; p < opts.n; ++p) {
    state.automata.push_back(
        opts.make(p, opts.proposals[static_cast<std::size_t>(p)]));
  }
  for (std::size_t t = 0; t < path.size(); ++t) {
    apply(opts, state, path[t], static_cast<Time>(t));
  }
  return state;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_bytes(std::uint64_t h, const Bytes& bytes) {
  h = mix64(h, bytes.size());
  for (std::uint8_t b : bytes) h = h * 1099511628211ULL + b;
  return h;
}

std::uint64_t state_key(const McOptions& opts, const MState& state) {
  std::uint64_t h = 0x6e75636f6eULL;
  for (Pid p = 0; p < opts.n; ++p) {
    const auto snap = state.automata[static_cast<std::size_t>(p)]->snapshot();
    h = snap ? hash_bytes(h, *snap) : mix64(h, 0xDEAD);
    h = mix64(h, static_cast<std::uint64_t>(
                     state.own_steps[static_cast<std::size_t>(p)]));
  }
  // In-flight messages, order-normalized (delivery choices enumerate every
  // pending message anyway, so queue order is not behaviorally relevant).
  struct BaselineWire {
    Pid to;
    Pid sender;
    std::uint64_t seq;
    const Bytes* payload;
  };
  std::vector<BaselineWire> wires;
  for (Pid q = 0; q < opts.n; ++q) {
    for (std::size_t i = 0; i < state.buffer.pending_for(q); ++i) {
      const Message& m = state.buffer.peek(q, i);
      wires.push_back({q, m.id.sender, m.id.seq, &m.payload.get()});
    }
  }
  std::sort(wires.begin(), wires.end(),
            [](const BaselineWire& a, const BaselineWire& b) {
              return std::tie(a.to, a.sender, a.seq) <
                     std::tie(b.to, b.sender, b.seq);
            });
  for (const BaselineWire& w : wires) {
    h = mix64(h, static_cast<std::uint64_t>(w.to));
    h = mix64(h, static_cast<std::uint64_t>(w.sender));
    h = mix64(h, w.seq);
    h = hash_bytes(h, *w.payload);
  }
  return h;
}

std::optional<std::string> agreement_violation(const MState& state) {
  for (std::size_t p = 0; p < state.automata.size(); ++p) {
    for (std::size_t q = p + 1; q < state.automata.size(); ++q) {
      const auto dp = state.automata[p]->decision();
      const auto dq = state.automata[q]->decision();
      if (dp && dq && *dp != *dq) {
        return "processes " + std::to_string(p) + " and " + std::to_string(q) +
               " decided " + std::to_string(*dp) + " vs " +
               std::to_string(*dq);
      }
    }
  }
  return std::nullopt;
}

struct Dfs {
  explicit Dfs(const McOptions& o) : opts_ptr(&o) {}

  const McOptions* opts_ptr;
  McResult result;
  std::unordered_set<std::uint64_t> visited;
  std::vector<McStep> path;

  bool budget_exceeded() const {
    return result.states_explored >= opts_ptr->max_states;
  }

  /// Returns true when a violation was found (stop everything).
  bool explore() {
    const McOptions& o = *opts_ptr;
    const MState state = materialize(o, path);
    ++result.states_explored;
    result.peak_depth =
        std::max(result.peak_depth, static_cast<int>(path.size()));

    if (const auto violation = agreement_violation(state)) {
      result.violation_found = true;
      result.violation = *violation;
      result.witness = path;
      return true;
    }

    if (!visited.insert(state_key(o, state)).second) {
      ++result.states_deduped;
      return false;
    }
    if (path.size() >= static_cast<std::size_t>(o.max_depth)) return false;
    if (budget_exceeded()) return false;

    for (Pid p = 0; p < o.n; ++p) {
      const int pending = static_cast<int>(state.buffer.pending_for(p));
      for (int delivery = -1; delivery < pending; ++delivery) {
        path.push_back({p, delivery});
        const bool found = explore();
        path.pop_back();
        if (found) return true;
        if (budget_exceeded()) return false;
      }
    }
    return false;
  }
};

}  // namespace

McResult model_check_consensus_replay_baseline(const McOptions& opts) {
  assert(opts.make != nullptr && opts.fd != nullptr);
  assert(opts.proposals.size() == static_cast<std::size_t>(opts.n));

  Dfs dfs(opts);
  dfs.explore();
  dfs.result.exhausted = !dfs.result.violation_found && !dfs.budget_exceeded();
  return dfs.result;
}

McResult model_check_consensus(const McOptions& opts) {
  assert(opts.make != nullptr && opts.fd != nullptr);
  assert(opts.proposals.size() == static_cast<std::size_t>(opts.n));

  // Build and encode the initial configuration. Every automaton must keep
  // the complete-state contract: the engine's dedup is sound only over
  // complete states.
  Config root;
  Decided decided;
  std::string root_violation;
  root.counters.assign(static_cast<std::size_t>(opts.n), 0);
  for (Pid p = 0; p < opts.n; ++p) {
    const auto a = opts.make(p, opts.proposals[static_cast<std::size_t>(p)]);
    ByteWriter w;
    if (!a->save_state(w)) {
      throw std::invalid_argument("model_check_consensus: process " +
                                  std::to_string(p) +
                                  "'s automaton has no save_state");
    }
    auto section = std::make_shared<Section>();
    section->bytes = w.take();
    const Key128 h = content_hash(section->bytes);
    section->h1 = h.lo;
    section->h2 = h.hi;
    root.autom.push_back(std::move(section));
    if (const auto dv = a->decision()) {
      if (decided.pid >= 0 && *dv != decided.value) {
        root_violation = disagreement_text(decided.pid, decided.value, p, *dv);
      } else if (decided.pid < 0) {
        decided = Decided{p, *dv};
      }
    }
  }

  Engine engine(opts);
  engine.result.states_explored = 1;
  engine.meta.push_back({});
  root.key = key_of(root);
  engine.visited.insert(
      {root.key.lo, root.key.hi, 0, 0, 0, opts.max_depth > 0, {}});
  if (!root_violation.empty()) {
    engine.result.violation_found = true;
    engine.result.violation = std::move(root_violation);
    return engine.result;
  }

  // Declared before the pool, so the pool drains before they are freed.
  WorkerList workers(opts.n);
  std::unique_ptr<exp::ThreadPool> pool;
  if (opts.threads > 1) pool = std::make_unique<exp::ThreadPool>(opts.threads);

  std::vector<WorkItem> frontier;
  if (opts.max_depth > 0) {
    frontier.push_back(
        WorkItem{0, 0, std::move(root), decided, {}, std::nullopt});
  }

  while (!frontier.empty() && !engine.stop) {
    engine.next.clear();
    engine.next.reserve(std::min<std::size_t>(
        4 * frontier.size(), opts.max_states > engine.result.states_explored
                                 ? opts.max_states - engine.result.states_explored
                                 : 0));
    engine.visited.reserve(engine.result.states_explored +
                           4 * frontier.size());
    if (pool != nullptr && frontier.size() > 1) {
      parallel_layer(engine, *pool, workers, frontier);
    } else {
      Worker& worker = workers.mine();
      for (const WorkItem& item : frontier) {
        if (engine.stop) break;
        Expansion e = expand(opts, engine.payloads, item, worker);
        engine.merge(item, e);
      }
    }
    frontier = std::move(engine.next);
    engine.next = {};
  }

  // A Worker's memo holds hundreds of thousands of cold allocations at
  // depth 10; the pool's threads free them in parallel while it drains.
  if (pool != nullptr) {
    for (std::unique_ptr<Worker>& w : workers.take_all()) {
      (void)pool->submit([w = std::move(w)]() mutable { w.reset(); });
    }
  }

  engine.result.exhausted =
      !engine.result.violation_found && !engine.budget_hit;
  return engine.result;
}

StateKey128 state_key128(const Bytes& encoded) {
  const Key128 k = content_hash(encoded);
  return {k.lo, k.hi};
}

StateKey128 process_state_key(Pid p, StateKey128 content) {
  Hash2 h(0x70726f63ULL);  // "proc", same constant as process_element
  h.mix(static_cast<std::uint64_t>(p));
  h.mix(content.lo);
  h.mix(content.hi);
  const Key128 k = h.key();
  return {k.lo, k.hi};
}

std::optional<std::string> replay_witness(const McOptions& opts,
                                          const std::vector<McStep>& witness) {
  assert(opts.make != nullptr && opts.fd != nullptr);
  assert(opts.proposals.size() == static_cast<std::size_t>(opts.n));

  std::vector<std::unique_ptr<ConsensusAutomaton>> automata;
  for (Pid p = 0; p < opts.n; ++p) {
    automata.push_back(opts.make(p, opts.proposals[static_cast<std::size_t>(p)]));
  }
  std::vector<int> own_steps(static_cast<std::size_t>(opts.n), 0);
  MessageBuffer buffer;
  SendNamer namer(opts.n);
  std::vector<Outgoing> sends;
  std::vector<std::size_t> order;

  for (std::size_t t = 0; t < witness.size(); ++t) {
    const McStep& s = witness[t];
    if (s.p < 0 || s.p >= opts.n) return std::nullopt;
    const auto pi = static_cast<std::size_t>(s.p);
    const FdValue d = opts.fd(s.p, ++own_steps[pi]);
    std::optional<Message> msg;
    if (s.delivery >= 0) {
      // The s.delivery-th pending message for p in canonical order.
      const auto k = static_cast<std::size_t>(s.delivery);
      order.resize(buffer.pending_for(s.p));
      if (k >= order.size()) return std::nullopt;
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::nth_element(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(k),
                       order.end(), [&](std::size_t a, std::size_t b) {
                         return buffer.peek(s.p, a).id < buffer.peek(s.p, b).id;
                       });
      msg = buffer.take(s.p, order[k]);
      if (s.msg.sender >= 0 && msg->id != s.msg) return std::nullopt;
    }
    deliver(*automata[pi], msg, d, sends);
    for (Outgoing& o : sends) {
      buffer.add(namer.name(s.p, std::move(o), static_cast<Time>(t)));
    }
  }

  for (Pid p = 0; p < opts.n; ++p) {
    const auto dp = automata[static_cast<std::size_t>(p)]->decision();
    if (!dp) continue;
    for (Pid q = p + 1; q < opts.n; ++q) {
      const auto dq = automata[static_cast<std::size_t>(q)]->decision();
      if (dq && *dq != *dp) return disagreement_text(p, *dp, q, *dq);
    }
  }
  return std::nullopt;
}

}  // namespace nucon
