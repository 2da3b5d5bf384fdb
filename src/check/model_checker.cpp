#include "check/model_checker.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "check/mc_store.hpp"
#include "exp/thread_pool.hpp"
#include "sim/step.hpp"

namespace nucon {
namespace mc {
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
// Keys (see the header comment for the design).
// ---------------------------------------------------------------------------

int own_steps_of(std::uint64_t counter) {
  return static_cast<int>(counter >> 32);
}

// Two independent 64-bit absorb chains (splitmix-style and murmur-style
// finalizers), so that a clash needs both halves to clash.

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

struct Hash2 {
  std::uint64_t a;
  std::uint64_t b;

  explicit Hash2(std::uint64_t seed) : a(seed), b(~seed) {}

  void mix(std::uint64_t v) {
    a = absorb1(a, v);
    b = absorb2(b, v);
  }

  void bytes(ByteView data) {
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

Key128 content_hash(ByteView data) {
  Hash2 h(0x6e75636f6eULL);  // "nucon"
  h.bytes(data);
  return h.key();
}

/// The visited key is Zobrist-style: the XOR of one element hash per
/// constituent (each process's section + counters; each in-flight wire).
/// XOR lets a child's key be derived from the parent's in O(1) — flip the
/// stepped process's old and new elements, the delivered wire, and the
/// fresh sends. Elements never collide by construction (a process element
/// carries p, a wire element its unique (to, sender, seq)), so the XOR is
/// over a set, never a multiset. Elements hash content, not ids, so a
/// Worker derives a child's key before the merge has interned anything.
Key128 process_element(Pid p, Key128 section, std::uint64_t counter) {
  Hash2 h(0x70726f63ULL);  // "proc"
  h.mix(static_cast<std::uint64_t>(p));
  h.mix(section.lo);
  h.mix(section.hi);
  h.mix(counter);
  return h.key();
}

Key128 wire_element(Pid to, MsgId id, Key128 payload) {
  Hash2 h(0x77697265ULL);  // "wire"
  h.mix(static_cast<std::uint64_t>(to));
  h.mix(static_cast<std::uint64_t>(id.sender));
  h.mix(id.seq);
  h.mix(payload.lo);
  h.mix(payload.hi);
  return h.key();
}

// --- sleep sets ------------------------------------------------------------
//
// A sleep element is a step identified by (process, delivered message id);
// unlike the delivery index, the id survives the parent-to-child wire-list
// reshuffle. The id packs into one word — (p, sender+1, seq) in descending
// bit position — so its integer order IS the canonical enabled order
// (process ascending, lambda before deliveries in (sender, seq) order),
// and every set operation below is a single-word merge-scan. A wire's
// packed (to, sender, seq) is the same word, its canonical order key.

using StepId = std::uint64_t;
using SleepView = std::span<const StepId>;  // sorted ascending

constexpr StepId kStepIdNone = ~StepId{0};

StepId step_id_pack(Pid p, Pid sender, std::uint64_t seq) {
  // p, sender < 2^8 and seq < 2^48 — n is single-digit and a process
  // cannot send more messages than there are explored states.
  return (static_cast<StepId>(static_cast<std::uint8_t>(p)) << 56) |
         (static_cast<StepId>(static_cast<std::uint8_t>(sender + 1)) << 48) |
         seq;
}

Pid step_id_pid(StepId id) { return static_cast<Pid>(id >> 56); }

MsgId msg_id_of(StepId ord) {
  return {static_cast<Pid>((ord >> 48) & 0xff) - 1,
          ord & ((std::uint64_t{1} << 48) - 1)};
}

/// Streams the sleep set a child arrives with, in ascending order: the
/// parent's sleep plus the explored steps ordered before it
/// (targets[0..before)), minus every element of the stepping process —
/// same-process steps are the dependent ones (they race on one automaton
/// and its queue), everything else commutes and stays asleep. Streaming
/// lets the merge test duplicates against it without materializing.
struct ChildSleep {
  SleepView a;  // parent sleep
  SleepView b;  // targets before the child's own
  Pid skip = -1;
  std::size_t i = 0;
  std::size_t j = 0;

  ChildSleep(SleepView parent, SleepView targets, std::size_t before,
             Pid stepping)
      : a(parent), b(targets.first(before)), skip(stepping) {}

  StepId next() {
    for (;;) {
      StepId v;
      if (i < a.size() && (j >= b.size() || a[i] <= b[j])) {
        v = a[i];
        if (j < b.size() && b[j] == v) ++j;
        ++i;
      } else if (j < b.size()) {
        v = b[j++];
      } else {
        return kStepIdNone;
      }
      if (step_id_pid(v) != skip) return v;
    }
  }

  void append_to(std::vector<StepId>& out) {
    for (StepId v = next(); v != kStepIdNone; v = next()) out.push_back(v);
  }
};

/// stored ⊆ cursor's stream? Allocation-free — the common dedup path asks
/// only this question. Consumes the cursor.
bool sleep_subset(SleepView stored, ChildSleep cursor) {
  StepId v = cursor.next();
  for (const StepId s : stored) {
    while (v != kStepIdNone && v < s) v = cursor.next();
    if (v != s) return false;
    v = cursor.next();
  }
  return true;
}

// --- configurations ----------------------------------------------------------

/// A stored configuration, read in place: n section ids, then n packed
/// counters (own_steps << 32 | sends) as word pairs, then the in-flight
/// wires in canonical order, three words each: the packed (to, sender,
/// seq) split high/low, and the payload id. The sorted order makes
/// delivery indices intrinsic to the configuration rather than to the path
/// that reached it.
struct ConfigView {
  const std::uint32_t* w = nullptr;
  std::uint32_t size = 0;
  std::size_t n = 0;

  [[nodiscard]] std::uint32_t section(Pid p) const {
    return w[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t counter(Pid p) const {
    const std::uint32_t* c = w + n + 2 * static_cast<std::size_t>(p);
    return (std::uint64_t{c[0]} << 32) | c[1];
  }
  [[nodiscard]] std::size_t wires() const { return (size - 3 * n) / 3; }
  [[nodiscard]] StepId ord(std::size_t i) const {
    const std::uint32_t* x = w + 3 * n + 3 * i;
    return (std::uint64_t{x[0]} << 32) | x[1];
  }
  [[nodiscard]] std::uint32_t payload(std::size_t i) const {
    return w[3 * n + 3 * i + 2];
  }
};

void put_wire(std::vector<std::uint32_t>& out, StepId ord,
              std::uint32_t payload) {
  out.push_back(static_cast<std::uint32_t>(ord >> 32));
  out.push_back(static_cast<std::uint32_t>(ord));
  out.push_back(payload);
}

/// First-decider summary carried along each path so a new decision is
/// checked in O(1) instead of rescanning all n decisions per node. Any
/// disagreement anywhere conflicts with the first decider's value.
struct Decided {
  Pid pid = -1;
  Value value = 0;
};

/// One configuration to expand. Its words live in the store's arena; its
/// sleep sets live in the layer's sleep vector.
struct WorkItem {
  std::uint32_t node = 0;  // store id, also the witness parent-chain id
  int depth = 0;           // minimum depth of this configuration
  const std::uint32_t* cfg = nullptr;
  std::uint32_t cfg_size = 0;
  Key128 key;
  Decided decided;
  std::size_t sleep = 0;  // the sleep set this configuration was reached with
  std::uint32_t sleep_len = 0;
  /// Reconciliation pass: expand exactly these steps (the ones an earlier
  /// visit left asleep but the new arrival demands). Empty for a normal
  /// first expansion; a reconciliation always demands at least one.
  std::size_t only = 0;
  std::uint32_t only_len = 0;
};

// --- transitions -------------------------------------------------------------

/// Content a Worker produced: bytes in the Worker's arena, their hash, and
/// the global id once the merge has interned the content. The merge
/// stores the id and Workers read it, hence the atomic.
struct Blob {
  ByteView bytes;
  Key128 hash;
  std::atomic<std::uint32_t> id{kNoId};

  [[nodiscard]] std::uint32_t known() const { return id.load(); }
};

struct Send {
  Pid to = -1;
  Blob payload;
};

/// The memo key: a step's outcome (post-step section, sends, decision) is
/// a pure function of the stepping process's section, its own-step index
/// (which fixes the failure-detector value), and the delivered message's
/// sender and payload — NOT of the rest of the configuration.
struct MemoKey {
  Pid p = -1;
  int own = 0;
  Pid sender = -1;
  std::uint32_t section = kNoId;
  std::uint32_t payload = kNoId;  // kNoId for lambda

  friend bool operator==(const MemoKey&, const MemoKey&) = default;

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = absorb1(0x6d656d6fULL, static_cast<std::uint64_t>(p));
    h = absorb1(h, static_cast<std::uint64_t>(own));
    h = absorb1(h, static_cast<std::uint64_t>(sender));
    h = absorb1(h, section);
    return absorb1(h, payload);
  }
};

struct Outcome {
  MemoKey key;
  Blob next;  // the post-step section
  std::optional<Value> decision;
  Send* sends = nullptr;  // in the Worker's send arena
  std::uint32_t send_count = 0;
};

/// A child configuration: the local transition's outcome (shared with
/// every candidate that took the same local step), the child's key and
/// updated counter, the delivered wire's index, and the child's words in
/// its Batch. words_len is 0 when some new content had no id yet; the
/// merge then writes the words itself.
struct Candidate {
  McStep step;
  Key128 key;
  Outcome* out = nullptr;
  std::uint64_t counter = 0;  // stepped process's updated packed counter
  int widx = -1;              // delivered wire index in the parent, -1 lambda
  Decided decided;
  bool violation = false;
  std::uint32_t words_len = 0;
  std::size_t words = 0;
};

/// Appends the child configuration's words to `out`: the parent's, with
/// the stepped process's section and counter replaced, the delivered wire
/// dropped and the fresh sends merged in at their canonical places. False
/// when some new content has no id yet (kNoId is written in its place).
bool build_child(ConfigView parent, const Candidate& c,
                 std::vector<std::pair<StepId, std::uint32_t>>& fresh,
                 std::vector<std::uint32_t>& out) {
  const std::size_t n = parent.n;
  const auto pi = static_cast<std::size_t>(c.step.p);
  const std::size_t at = out.size();
  out.insert(out.end(), parent.w, parent.w + 3 * n);
  out[at + pi] = c.out->next.known();
  out[at + n + 2 * pi] = static_cast<std::uint32_t>(c.counter >> 32);
  out[at + n + 2 * pi + 1] = static_cast<std::uint32_t>(c.counter);
  bool complete = out[at + pi] != kNoId;

  const Outcome& o = *c.out;
  fresh.clear();
  std::uint64_t seq = (c.counter & 0xFFFFFFFFULL) - o.send_count;
  for (std::uint32_t i = 0; i < o.send_count; ++i) {
    const std::uint32_t id = o.sends[i].payload.known();
    complete = complete && id != kNoId;
    fresh.emplace_back(step_id_pack(o.sends[i].to, c.step.p, ++seq), id);
  }
  if (!std::is_sorted(fresh.begin(), fresh.end())) {
    std::sort(fresh.begin(), fresh.end());
  }
  std::size_t f = 0;
  for (std::size_t w = 0; w < parent.wires(); ++w) {
    if (static_cast<int>(w) == c.widx) continue;
    const StepId ord = parent.ord(w);
    for (; f < fresh.size() && fresh[f].first < ord; ++f) {
      put_wire(out, fresh[f].first, fresh[f].second);
    }
    put_wire(out, ord, parent.payload(w));
  }
  for (; f < fresh.size(); ++f) put_wire(out, fresh[f].first, fresh[f].second);
  return complete;
}

/// The children of a run of frontier items, in frontier order.
struct Batch {
  std::vector<Candidate> cands;
  std::vector<std::uint32_t> words;  // the candidates' configurations
  /// Packed ids of the expanded steps, aligned with cands: the sleep set
  /// cands[i] arrives with is ChildSleep(item's sleep, its targets, i,
  /// step.p), computed lazily by the merge — duplicates never
  /// materialize one.
  std::vector<StepId> targets;
  struct Item {
    std::size_t end = 0;  // one past the item's last candidate
    std::size_t por_skips = 0;
  };
  std::vector<Item> items;

  void clear() {
    cands.clear();
    words.clear();
    targets.clear();
    items.clear();
  }
};

/// What a layer's expansion reads, all of it fixed while the layer runs:
/// ids interned before it, and the frontier's sleep sets.
struct Layer {
  const McOptions& opts;
  const InternTable& sections;
  const InternTable& payloads;
  const std::vector<StepId>& sleep;
};

/// One expanding thread's reusable state, owned by the search and freed
/// with it. restore_state overwrites an automaton's complete state, so one
/// instance per process serves every expansion the Worker runs. The memo
/// is a flat index into `outcomes`, whose bytes and sends sit in the
/// Worker's arenas, so no entry owns a heap block. It caches a pure
/// function, so which Worker expands a chunk changes no result.
struct Worker {
  explicit Worker(Pid n) : automata(static_cast<std::size_t>(n)) {}

  std::vector<std::unique_ptr<ConsensusAutomaton>> automata;  // made lazily
  ByteWriter encoder;
  std::vector<Outgoing> sends;
  std::vector<std::pair<StepId, std::uint32_t>> fresh;
  IdIndex memo;
  Table<Outcome> outcomes;
  Arena<std::uint8_t> bytes{std::size_t{1} << 16};
  Arena<Send> send_runs{std::size_t{1} << 10};

  void hold(Blob& b, ByteView content) {
    b.bytes = bytes.copy(content);
    b.hash = content_hash(content);
  }

  /// The memoized outcome of `key`'s step, computed on a miss.
  Outcome& outcome(const Layer& layer, const MemoKey& key) {
    const std::uint64_t h = key.hash();
    std::uint32_t id =
        memo.find(h, [&](std::uint32_t i) { return outcomes[i].key == key; });
    if (id != kNoId) return outcomes[id];

    const McOptions& opts = layer.opts;
    auto& slot = automata[static_cast<std::size_t>(key.p)];
    if (!slot) {
      slot = opts.make(key.p, opts.proposals[static_cast<std::size_t>(key.p)]);
    }
    ConsensusAutomaton& a = *slot;
    ByteReader r(layer.sections[key.section].content);
    const bool ok = a.restore_state(r) && r.done();
    assert(ok && "restore_state must accept its own save_state encoding");
    (void)ok;
    const FdValue d = opts.fd(key.p, key.own);
    sends.clear();
    if (key.payload != kNoId) {
      // No `shared`: workers read the interned bytes concurrently, and a
      // sealed buffer's decode slot is not synchronized.
      const Incoming in{key.sender, layer.payloads[key.payload].content};
      a.step(&in, d, sends);
    } else {
      a.step(nullptr, d, sends);
    }

    id = outcomes.append();
    Outcome& o = outcomes[id];
    o.key = key;
    encoder.reset();
    const bool saved = a.save_state(encoder);
    assert(saved);
    (void)saved;
    hold(o.next, encoder.buffer());
    o.decision = a.decision();
    o.sends = send_runs.alloc(sends.size());
    o.send_count = static_cast<std::uint32_t>(sends.size());
    for (std::size_t k = 0; k < sends.size(); ++k) {
      o.sends[k].to = sends[k].to;
      hold(o.sends[k].payload, sends[k].payload.get());
    }
    sends.clear();
    memo.insert(h, id,
                [this](std::uint32_t i) { return outcomes[i].key.hash(); });
    return o;
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

 private:
  const Pid n_;
  std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<Worker>> by_thread_;
};

/// Appends one frontier item's children to `out`: a pure function of the
/// item and what the layer fixes, so the parallel layer can run it on any
/// worker in any order.
void expand(const Layer& layer, const WorkItem& item, Worker& worker,
            Batch& out) {
  const McOptions& opts = layer.opts;
  const ConfigView cfg{item.cfg, item.cfg_size,
                       static_cast<std::size_t>(opts.n)};
  const SleepView sleep(layer.sleep.data() + item.sleep, item.sleep_len);
  const SleepView only(layer.sleep.data() + item.only, item.only_len);

  // One child per expanded step. Steps are walked in canonical order
  // (== ascending packed step id): per process its lambda step, then its
  // pending deliveries in (sender, seq) order. A reconciliation pass takes
  // exactly the demanded steps: they were enabled when this configuration
  // was first expanded, hence are enabled now. A normal pass takes every
  // step not asleep; the sleep set is ascending like the enumeration, so
  // one merge-scan suffices.
  std::size_t por_skips = 0;
  std::size_t s = 0;
  const auto take = [&](StepId id) {
    if (!only.empty()) {
      if (s < only.size() && only[s] == id) {
        ++s;
        return true;
      }
      return false;
    }
    if (!opts.use_por) return true;
    while (s < sleep.size() && sleep[s] < id) ++s;
    if (s < sleep.size() && sleep[s] == id) {
      ++por_skips;
      ++s;
      return false;
    }
    return true;
  };
  const auto child = [&](StepId id, const McStep& step, int widx) {
    out.targets.push_back(id);
    const std::uint64_t counter = cfg.counter(step.p);
    MemoKey mk{step.p, own_steps_of(counter) + 1, -1, cfg.section(step.p),
               kNoId};
    if (widx >= 0) {
      mk.sender = step.msg.sender;
      mk.payload = cfg.payload(static_cast<std::size_t>(widx));
    }
    Outcome& o = worker.outcome(layer, mk);

    Candidate c;
    c.step = step;
    c.widx = widx;
    c.out = &o;
    c.counter = (static_cast<std::uint64_t>(mk.own) << 32) |
                ((counter & 0xFFFFFFFFULL) + o.send_count);
    Key128 key = item.key;
    if (widx >= 0) {
      key = key ^ wire_element(step.p, step.msg,
                               layer.payloads[mk.payload].key);
    }
    std::uint64_t seq = counter & 0xFFFFFFFFULL;
    for (std::uint32_t i = 0; i < o.send_count; ++i) {
      key = key ^ wire_element(o.sends[i].to, MsgId{step.p, ++seq},
                               o.sends[i].payload.hash);
    }
    key = key ^ process_element(step.p, layer.sections[mk.section].key,
                                counter);
    key = key ^ process_element(step.p, o.next.hash, c.counter);
    c.key = key;

    c.decided = item.decided;
    if (o.decision) {
      if (item.decided.pid < 0) {
        c.decided = Decided{step.p, *o.decision};
      } else if (step.p != item.decided.pid &&
                 *o.decision != item.decided.value) {
        c.violation = true;
      }
    }
    c.words = out.words.size();
    if (build_child(cfg, c, worker.fresh, out.words)) {
      c.words_len = static_cast<std::uint32_t>(out.words.size() - c.words);
    } else {
      out.words.resize(c.words);
    }
    out.cands.push_back(c);
  };
  std::size_t w = 0;
  for (Pid p = 0; p < opts.n; ++p) {
    if (take(step_id_pack(p, -1, 0))) {
      child(step_id_pack(p, -1, 0), {p, -1, MsgId{}}, -1);
    }
    for (int local = 0; w < cfg.wires() && step_id_pid(cfg.ord(w)) == p;
         ++local, ++w) {
      if (take(cfg.ord(w))) {
        child(cfg.ord(w), {p, local, msg_id_of(cfg.ord(w))},
              static_cast<int>(w));
      }
    }
  }
  out.items.push_back({out.cands.size(), por_skips});
}

// --- deterministic sequential merge ----------------------------------------

/// A configuration reached: how it was first reached (its parent, and
/// the step as its delivery index and packed id) and, once stored, its
/// minimum depth and the transitions not yet explored from it.
struct Node {
  std::uint32_t parent = 0;
  int delivery = -1;
  StepId step = 0;
  int depth = 0;
  bool expanded = false;
  std::uint32_t sleep_len = 0;
  std::size_t sleep = 0;  // in Engine::sleep
};

/// All mutable search state lives here and is only touched by the merge,
/// which consumes expansions in canonical frontier order — so interning,
/// dedup, budget accounting, and violation selection are identical no
/// matter how many threads produced the expansions.
struct Engine {
  Engine(const McOptions& o, Key128 mask) : opts(o), key_mask(mask) {}

  const McOptions& opts;
  const Key128 key_mask;  // ANDed into every visited key; all ones but in tests

  McResult result;
  InternTable sections;
  InternTable payloads;
  ConfigStore store;
  std::vector<Node> nodes;    // by store id
  std::vector<StepId> sleep;  // the nodes' sleep sets
  std::vector<WorkItem> next;
  std::vector<StepId> layer_sleep;  // the frontier's sleep sets
  std::vector<StepId> next_sleep;   // next's
  bool budget_hit = false;
  bool stop = false;
  // Merge scratch.
  std::vector<std::uint32_t> words;
  std::vector<std::pair<StepId, std::uint32_t>> fresh;
  const Batch* batch = nullptr;  // the one being merged

  void merge(const WorkItem& item, const Batch& batch, std::size_t begin,
             const Batch::Item& range) {
    this->batch = &batch;
    result.por_skipped += range.por_skips;
    for (std::size_t k = begin; k < range.end; ++k) {
      store.prefetch(batch.cands[k].key & key_mask);
    }
    const SleepView targets(batch.targets.data() + begin, range.end - begin);
    for (std::size_t k = begin; k < range.end && !stop; ++k) {
      merge_candidate(item, targets, k - begin, batch.cands[k]);
    }
  }

  /// Finds (or, with `add`, interns) the candidate's new content and
  /// publishes the ids in its Blobs. False when some content is not
  /// interned yet, which no stored configuration can then contain.
  bool resolve(const Candidate& c, bool add) {
    const auto id_of = [add](InternTable& table, Blob& b) {
      if (b.known() == kNoId) {
        b.id = add ? table.intern(b.hash, b.bytes)
                   : table.find(b.hash, b.bytes).id;
      }
      return b.known() != kNoId;
    };
    bool known = id_of(sections, c.out->next);
    for (std::uint32_t i = 0; i < c.out->send_count; ++i) {
      known = id_of(payloads, c.out->sends[i].payload) && known;
    }
    return known;
  }

  /// The candidate's words: its Worker's, or written here once `resolve`
  /// has found (with `add`, interned) its new content. `complete` is false
  /// while some of that content is not interned.
  std::span<const std::uint32_t> child_words(const WorkItem& item,
                                             const Candidate& c, bool add,
                                             bool& complete) {
    complete = true;
    if (c.words_len != 0) return {batch->words.data() + c.words, c.words_len};
    resolve(c, add);
    words.clear();
    complete = build_child(
        {item.cfg, item.cfg_size, static_cast<std::size_t>(opts.n)}, c, fresh,
        words);
    return words;
  }

  /// Stores `child` under `key` as the last node; returns its item
  /// skeleton (node, depth, words, key).
  WorkItem admit(Key128 key, std::span<const std::uint32_t> child) {
    const std::uint32_t id = store.insert(key & key_mask, child);
    assert(id + 1 == nodes.size());
    const std::span<const std::uint32_t> stored = store[id].content;
    WorkItem item;
    item.node = id;
    item.depth = nodes[id].depth;
    item.cfg = stored.data();
    item.cfg_size = static_cast<std::uint32_t>(stored.size());
    item.key = key;
    return item;
  }

  void merge_candidate(const WorkItem& item, SleepView targets,
                       std::size_t index, const Candidate& c) {
    bool complete = true;
    std::span<const std::uint32_t> child = child_words(item, c, false, complete);
    const ConfigStore::Found found = store.find(c.key & key_mask, child);

    if (found.id == kNoId) {
      if (found.key_seen) ++result.hash_collisions;
      if (result.states_explored >= opts.max_states) {
        // The budget check runs before the new configuration is admitted:
        // nothing past max_states is interned, stored or counted.
        budget_hit = true;
        stop = true;
        return;
      }
      ++result.states_explored;
      const int depth = item.depth + 1;
      result.peak_depth = std::max(result.peak_depth, depth);
      const auto id = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back({item.node, c.step.delivery, targets[index]});
      if (c.violation) {
        result.violation_found = true;
        result.violation =
            disagreement_text(item.decided.pid, item.decided.value, c.step.p,
                              *c.out->decision);
        result.witness = witness_of(id);
        stop = true;
        return;
      }
      if (!complete) child = child_words(item, c, true, complete);
      Node& node = nodes.back();
      node.depth = depth;
      node.expanded = depth < opts.max_depth;
      node.sleep = sleep.size();
      if (node.expanded && opts.use_por) {
        ChildSleep(layer_view(item), targets, index, c.step.p)
            .append_to(sleep);
      }
      node.sleep_len = static_cast<std::uint32_t>(sleep.size() - node.sleep);
      WorkItem admitted = admit(c.key, child);
      if (!node.expanded) return;
      admitted.decided = c.decided;
      admitted.sleep = next_sleep.size();
      admitted.sleep_len = node.sleep_len;
      next_sleep.insert(next_sleep.end(),
                        sleep.begin() + static_cast<std::ptrdiff_t>(node.sleep),
                        sleep.end());
      next.push_back(admitted);
      return;
    }

    // Revisit. A depth-capped leaf was never expanded and never will be
    // (BFS only revisits at >= the stored minimum depth), so any arrival
    // is a pure dedup. An expanded entry must reconcile sleep sets: steps
    // the first visit left asleep but this arrival demands are explored
    // now, from the stored minimum depth, or the reduction would lose
    // states the unreduced search reaches.
    Node& visit = nodes[found.id];
    const SleepView stored(sleep.data() + visit.sleep, visit.sleep_len);
    if (!visit.expanded ||
        sleep_subset(stored,
                     ChildSleep(layer_view(item), targets, index, c.step.p))) {
      ++result.states_deduped;
      return;
    }
    ++result.states_reexpanded;
    WorkItem again;
    again.node = found.id;
    again.depth = visit.depth;
    const std::span<const std::uint32_t> cfg = store[found.id].content;
    again.cfg = cfg.data();
    again.cfg_size = static_cast<std::uint32_t>(cfg.size());
    again.key = c.key;
    again.decided = c.decided;
    // The arrival's sleep set, then the steps it demands (stored minus
    // arrival); the stored set keeps what both leave asleep.
    again.sleep = next_sleep.size();
    ChildSleep(layer_view(item), targets, index, c.step.p)
        .append_to(next_sleep);
    again.sleep_len =
        static_cast<std::uint32_t>(next_sleep.size() - again.sleep);
    next_sleep.reserve(next_sleep.size() + stored.size());
    const SleepView arrival(next_sleep.data() + again.sleep, again.sleep_len);
    again.only = next_sleep.size();
    std::set_difference(stored.begin(), stored.end(), arrival.begin(),
                        arrival.end(), std::back_inserter(next_sleep));
    again.only_len = static_cast<std::uint32_t>(next_sleep.size() - again.only);
    StepId* kept = sleep.data() + visit.sleep;
    std::uint32_t kept_len = 0;
    for (std::size_t i = 0, j = 0; i < stored.size(); ++i) {
      while (j < arrival.size() && arrival[j] < stored[i]) ++j;
      if (j < arrival.size() && arrival[j] == stored[i]) {
        kept[kept_len++] = stored[i];
      }
    }
    visit.sleep_len = kept_len;
    next.push_back(again);
  }

  [[nodiscard]] SleepView layer_view(const WorkItem& item) const {
    return {layer_sleep.data() + item.sleep, item.sleep_len};
  }

  [[nodiscard]] std::vector<McStep> witness_of(std::uint32_t id) const {
    std::vector<McStep> steps;
    for (std::uint32_t at = id; at != 0; at = nodes[at].parent) {
      const Node& node = nodes[at];
      steps.push_back({step_id_pid(node.step), node.delivery,
                       msg_id_of(node.step)});
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }
};

/// Expands one layer over the pool. Chunks are submitted in frontier
/// order with a bounded in-flight window and merged strictly in that
/// order; workers only ever run the pure expand(), so the schedule of
/// workers is invisible to the result.
void parallel_layer(Engine& engine, const Layer& layer, exp::ThreadPool& pool,
                    WorkerList& per_thread,
                    const std::vector<WorkItem>& frontier) {
  const std::size_t workers = std::max(1u, pool.size());
  const std::size_t chunk =
      std::clamp<std::size_t>(frontier.size() / (workers * 4), 1, 256);
  const std::size_t window = workers * 4;

  std::deque<std::pair<std::size_t, std::future<Batch>>> inflight;
  std::size_t submitted = 0;

  const auto submit_next = [&] {
    const std::size_t begin = submitted;
    const std::size_t end = std::min(frontier.size(), begin + chunk);
    submitted = end;
    inflight.emplace_back(
        begin, pool.submit([&layer, &per_thread, &frontier, begin, end] {
          Worker& worker = per_thread.mine();
          Batch out;
          for (std::size_t i = begin; i < end; ++i) {
            expand(layer, frontier[i], worker, out);
          }
          return out;
        }));
  };

  // Futures are always drained, even after a stop or a throw: the tasks
  // borrow the frontier and the layer, which must outlive them.
  try {
    while (!inflight.empty() ||
           (!engine.stop && submitted < frontier.size())) {
      while (!engine.stop && submitted < frontier.size() &&
             inflight.size() < window) {
        submit_next();
      }
      if (inflight.empty()) break;
      const std::size_t first = inflight.front().first;
      const Batch batch = inflight.front().second.get();
      inflight.pop_front();
      std::size_t begin = 0;
      for (std::size_t i = 0; i < batch.items.size() && !engine.stop; ++i) {
        engine.merge(frontier[first + i], batch, begin, batch.items[i]);
        begin = batch.items[i].end;
      }
    }
  } catch (...) {
    for (auto& [first, pending] : inflight) {
      if (pending.valid()) pending.wait();
    }
    throw;
  }
}

}  // namespace

McResult model_check_masked(const McOptions& opts, Key128 key_mask) {
  assert(opts.make != nullptr && opts.fd != nullptr);
  assert(opts.proposals.size() == static_cast<std::size_t>(opts.n));

  // Build and encode the initial configuration. Every automaton must keep
  // the complete-state contract: the engine's dedup is sound only over
  // complete states.
  Engine engine(opts, key_mask);
  const auto n = static_cast<std::size_t>(opts.n);
  Decided decided;
  std::string root_violation;
  Key128 key;
  engine.words.assign(3 * n, 0);
  for (Pid p = 0; p < opts.n; ++p) {
    const auto a = opts.make(p, opts.proposals[static_cast<std::size_t>(p)]);
    ByteWriter w;
    if (!a->save_state(w)) {
      throw std::invalid_argument("model_check_consensus: process " +
                                  std::to_string(p) +
                                  "'s automaton has no save_state");
    }
    const Key128 h = content_hash(w.buffer());
    engine.words[static_cast<std::size_t>(p)] =
        engine.sections.intern(h, w.buffer());
    key = key ^ process_element(p, h, 0);
    if (const auto dv = a->decision()) {
      if (decided.pid >= 0 && *dv != decided.value) {
        root_violation = disagreement_text(decided.pid, decided.value, p, *dv);
      } else if (decided.pid < 0) {
        decided = Decided{p, *dv};
      }
    }
  }

  engine.result.states_explored = 1;
  engine.nodes.emplace_back().expanded = opts.max_depth > 0;
  WorkItem root = engine.admit(key, engine.words);
  root.decided = decided;
  if (!root_violation.empty()) {
    engine.result.violation_found = true;
    engine.result.violation = std::move(root_violation);
  }

  // Declared before the pool, so the pool drains before they are freed.
  WorkerList workers(opts.n);
  std::unique_ptr<exp::ThreadPool> pool;
  if (opts.threads > 1) pool = std::make_unique<exp::ThreadPool>(opts.threads);

  std::vector<WorkItem> frontier;
  if (opts.max_depth > 0 && root_violation.empty()) frontier.push_back(root);

  Batch batch;
  while (!frontier.empty() && !engine.stop) {
    engine.next.clear();
    engine.next.reserve(std::min<std::size_t>(
        4 * frontier.size(), opts.max_states > engine.result.states_explored
                                 ? opts.max_states - engine.result.states_explored
                                 : 0));
    engine.next_sleep.clear();
    const Layer layer{opts, engine.sections, engine.payloads,
                      engine.layer_sleep};
    if (pool != nullptr && frontier.size() > 1) {
      parallel_layer(engine, layer, *pool, workers, frontier);
    } else {
      Worker& worker = workers.mine();
      for (const WorkItem& item : frontier) {
        if (engine.stop) break;
        batch.clear();
        expand(layer, item, worker, batch);
        engine.merge(item, batch, 0, batch.items.front());
      }
    }
    frontier.swap(engine.next);
    engine.layer_sleep.swap(engine.next_sleep);
  }

  engine.result.sections_interned = engine.sections.size();
  engine.result.payloads_interned = engine.payloads.size();
  engine.result.exhausted =
      !engine.result.violation_found && !engine.budget_hit;
  return engine.result;
}

}  // namespace mc

McResult model_check_consensus(const McOptions& opts) {
  return mc::model_check_masked(
      opts, {~std::uint64_t{0}, ~std::uint64_t{0}});
}

StateKey128 state_key128(const Bytes& encoded) {
  const mc::Key128 k = mc::content_hash(encoded);
  return {k.lo, k.hi};
}

StateKey128 process_state_key(Pid p, StateKey128 content) {
  mc::Hash2 h(0x70726f63ULL);  // "proc", same constant as process_element
  h.mix(static_cast<std::uint64_t>(p));
  h.mix(content.lo);
  h.mix(content.hi);
  const mc::Key128 k = h.key();
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
      if (dq && *dq != *dp) return mc::disagreement_text(p, *dp, q, *dq);
    }
  }
  return std::nullopt;
}

}  // namespace nucon
