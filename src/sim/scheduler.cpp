#include "sim/scheduler.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "prof/profiler.hpp"
#include "sim/step.hpp"
#include "trace/trace_recorder.hpp"
#include "util/rng.hpp"

namespace nucon {
namespace {

/// A delivery decision: which pending message (index into the queue of p)
/// the next step receives, and how the choice was made (metrics/tracing).
struct Delivery {
  std::size_t index = 0;
  bool forced = false;    // fairness backstop fired
  bool shuffled = false;  // random pick instead of FIFO head
};

/// Picks which message, if any, the next step of p receives.
std::optional<Delivery> choose_delivery(const MessageBuffer& buffer, Pid p,
                                        Time now, const SchedulerOptions& opts,
                                        Rng& rng) {
  const std::size_t pending = buffer.pending_for(p);
  if (pending == 0) return std::nullopt;

  // Fairness backstop (admissibility property (7)): stale messages are
  // delivered oldest-first no matter what the random policy says. The
  // scheduler stamps sent_at with the global clock and each per-destination
  // queue is FIFO, so the queue head IS the oldest pending message — no
  // scan needed (the checked invariant below).
  const Time oldest = buffer.peek(p, 0).sent_at;
#ifndef NDEBUG
  for (std::size_t i = 1; i < pending; ++i) {
    assert(buffer.peek(p, i).sent_at >= oldest &&
           "scheduler queues must be FIFO in sent_at order");
  }
#endif
  if (now - oldest > opts.max_message_age) {
    return Delivery{0, /*forced=*/true, /*shuffled=*/false};
  }

  if (rng.chance(static_cast<std::uint64_t>(opts.lambda_percent), 100)) {
    return std::nullopt;
  }
  if (rng.chance(static_cast<std::uint64_t>(opts.shuffle_percent), 100)) {
    return Delivery{rng.below(pending), false, /*shuffled=*/true};
  }
  return Delivery{0, false, false};  // oldest in FIFO order
}

/// Timed-mode delivery: the earliest-ready pending message, FIFO order on
/// ties; lambda when nothing has matured yet. Deterministic — no Rng — so
/// timed runs replay from (options, seed) like untimed ones. Maturity is
/// eager delivery, which discharges admissibility property (7) directly.
std::optional<Delivery> choose_delivery_timed(const MessageBuffer& buffer,
                                              Pid p, Time now) {
  const std::size_t pending = buffer.pending_for(p);
  std::optional<std::size_t> best;
  Time best_ready = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    const Time ready = buffer.peek(p, i).ready_at;
    if (ready > now) continue;
    if (!best || ready < best_ready) {
      best = i;
      best_ready = ready;
    }
  }
  if (!best) return std::nullopt;
  return Delivery{*best, false, false};
}

}  // namespace

SimResult simulate(const FailurePattern& fp, Oracle& oracle,
                   const AutomatonFactory& make,
                   const SchedulerOptions& opts) {
  const Pid n = fp.n();
  SimResult result(fp);
  result.automata.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) result.automata.push_back(make(p));

  // Resolved once so decide detection below is a plain virtual call per
  // step, not a dynamic_cast per step.
  std::vector<ConsensusAutomaton*> consensus(static_cast<std::size_t>(n));
  std::vector<bool> decided(static_cast<std::size_t>(n), false);
  for (Pid p = 0; p < n; ++p) {
    consensus[static_cast<std::size_t>(p)] =
        dynamic_cast<ConsensusAutomaton*>(result.automata[static_cast<std::size_t>(p)].get());
  }

  // Hot-loop metric handles (references into result.metrics stay stable).
  trace::MetricsRegistry& metrics = result.metrics;
  std::int64_t& m_steps = metrics.counter("scheduler.steps");
  std::int64_t& m_lambda = metrics.counter("scheduler.lambda_steps");
  std::int64_t& m_delivers = metrics.counter("scheduler.delivers");
  std::int64_t& m_forced = metrics.counter("scheduler.forced_deliveries");
  std::int64_t& m_shuffled = metrics.counter("scheduler.shuffled_deliveries");
  std::int64_t& m_sends = metrics.counter("scheduler.sends");
  std::int64_t& m_decides = metrics.counter("scheduler.decides");
  trace::Histogram& m_delay = metrics.histogram("scheduler.delivery_delay");
  trace::Histogram& m_payload = metrics.histogram("scheduler.payload_bytes");
  // Messages examined when the fairness backstop fires: with the
  // destination-sharded buffer this is the length of ONE shard (the
  // stale destination's FIFO), not the global pending count — the
  // histogram makes that win visible in reports.
  trace::Histogram& m_scan = metrics.histogram("scheduler.pending_scan_length");
  // Registered lazily: runs without the injection hook must keep
  // byte-identical metrics content.
  std::int64_t* m_injected =
      opts.inject_delivery ? &metrics.counter("scheduler.injected_choices")
                           : nullptr;

  const bool hash_states =
      opts.trace != nullptr && opts.trace->options().state_hashes;
  std::vector<std::uint64_t> last_state_hash(static_cast<std::size_t>(n), 0);

  // Collectors may be reused across runs (the n-scaling bench accumulates
  // per grid row), so the deterministic fold at the end charges only the
  // calls THIS run added.
  std::array<std::int64_t, prof::kPhaseCount> prof_calls_before{};
  if (opts.profile != nullptr) {
    for (int i = 0; i < prof::kPhaseCount; ++i) {
      prof_calls_before[static_cast<std::size_t>(i)] =
          opts.profile->phase(static_cast<prof::Phase>(i)).calls;
    }
  }

  Rng rng(opts.seed);
  MessageBuffer buffer;
  SendNamer namer(n);

  const ProcessSet schedulable = opts.restrict_to.empty()
                                     ? ProcessSet::full(n)
                                     : opts.restrict_to;
  const bool timed = opts.timing.enabled;

  Time now = 0;
  std::int64_t steps_taken = 0;
  std::int64_t round_index = 0;
  std::vector<Pid> order;
  std::vector<Outgoing> sends;

  // Lap-based step timer: null collector = one predictable branch per
  // phase boundary.
  prof::StepProbe probe(opts.profile);

  while (steps_taken < opts.max_steps) {
    // One macro round: every process that is alive when its turn comes
    // takes exactly one step, in a fresh random order. This yields
    // property (6): correct processes take infinitely many steps.
    order.clear();
    for (Pid p : schedulable) order.push_back(p);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }

    bool anyone_stepped = false;
    for (Pid p : order) {
      ++now;
      if (!fp.alive_at(p, now)) continue;
      // A speed-skewed process burns its slot without stepping on most
      // rounds; it still counts as alive so the all-crashed exit below
      // never fires on a purely slow (but correct) system.
      anyone_stepped = true;
      if (timed && round_index % opts.timing.speed_of(p) != 0) continue;

      probe.begin();
      std::optional<Delivery> delivery;
      bool injected = false;
      if (opts.inject_delivery) {
        const std::size_t pending = buffer.pending_for(p);
        const int choice = opts.inject_delivery(p, now, pending);
        if (choice != kInjectDefer) {
          injected = true;
          ++*m_injected;
          if (choice >= 0 && pending > 0) {
            delivery = Delivery{static_cast<std::size_t>(choice) % pending,
                                false, false};
          }
          // kInjectLambda (or an index with nothing pending) stays nullopt.
        }
      }
      if (!injected) {
        delivery = timed ? choose_delivery_timed(buffer, p, now)
                         : choose_delivery(buffer, p, now, opts, rng);
      }
      std::optional<Message> msg;
      if (delivery && delivery->forced) {
        m_scan.add(static_cast<std::int64_t>(buffer.pending_for(p)));
      }
      if (delivery) msg = buffer.take(p, delivery->index);
      probe.lap(prof::Phase::kDeliveryChoice);

      const FdValue d = oracle.value(p, now);
      probe.lap(prof::Phase::kOracleSample);

      StepRecord rec;
      rec.p = p;
      rec.d = d;
      rec.t = now;
      if (msg) rec.received = msg->id;
      if (opts.record_run) result.run.steps.push_back(rec);

      ++m_steps;
      NUCON_TRACE(opts.trace, on_step(rec));
      NUCON_TRACE(opts.trace, on_oracle_query(p, now, d));
      if (msg) {
        ++m_delivers;
        m_forced += delivery->forced;
        m_shuffled += delivery->shuffled;
        m_delay.add(now - msg->sent_at);
        NUCON_TRACE(opts.trace, on_deliver(p, *msg, now, delivery->forced));
      } else {
        ++m_lambda;
      }
      probe.lap(prof::Phase::kTraceHook);

      deliver(*result.automata[static_cast<std::size_t>(p)], msg, d, sends);
      probe.lap(prof::Phase::kAutomatonStep);

      for (Outgoing& o : sends) {
        Message m = namer.name(p, std::move(o), now);
        if (timed) m.ready_at += opts.timing.message_delay(p, m.id.seq, m.to);
        result.bytes_sent += m.payload.size();
        ++result.messages_sent;
        ++m_sends;
        m_payload.add(static_cast<std::int64_t>(m.payload.size()));
        NUCON_TRACE(opts.trace, on_send(p, m));
        buffer.add(std::move(m));
      }
      probe.lap(prof::Phase::kPayloadEncode);

      if (hash_states) {
        const auto snap =
            result.automata[static_cast<std::size_t>(p)]->snapshot();
        if (snap) {
          const std::uint64_t h = trace::state_hash_of(*snap);
          auto& last = last_state_hash[static_cast<std::size_t>(p)];
          if (h != last) {
            last = h;
            opts.trace->on_state_transition(p, now, h);
          }
        }
      }

      ConsensusAutomaton* c = consensus[static_cast<std::size_t>(p)];
      if (c != nullptr && !decided[static_cast<std::size_t>(p)]) {
        if (const auto decision = c->decision()) {
          decided[static_cast<std::size_t>(p)] = true;
          ++m_decides;
          NUCON_TRACE(opts.trace, on_decide(p, now, *decision));
        }
      }

      if (opts.on_step) opts.on_step(rec, result.automata);
      // State hashing, decide detection and the observer are bookkeeping
      // like the earlier record/trace block: charged to the same phase.
      probe.lap(prof::Phase::kTraceHook);
      probe.finish();

      if (++steps_taken >= opts.max_steps) break;
    }
    ++round_index;

#ifndef NDEBUG
    // Shard/global bookkeeping agreement: the per-destination queue sizes
    // must always sum to the buffer's global pending count.
    {
      std::size_t shard_sum = 0;
      for (Pid q = 0; q < n; ++q) shard_sum += buffer.pending_for(q);
      assert(shard_sum == buffer.total_pending());
    }
#endif

    if (opts.stop_when && opts.stop_when(result.automata)) {
      result.stopped_by_predicate = true;
      break;
    }
    // All schedulable processes crashed: nothing further can happen.
    if (!anyone_stepped) break;
  }

  result.steps_taken = static_cast<std::size_t>(steps_taken);
  result.end_time = now;
  result.undelivered_at_end = buffer.total_pending();
  metrics.counter("scheduler.end_time") = now;
  metrics.counter("scheduler.undelivered_at_end") =
      static_cast<std::int64_t>(result.undelivered_at_end);

  // Deterministic side of the profile: per-phase call counts are a pure
  // function of the run, so they join the registry (and thus the sweep
  // fold) as `prof.<phase>.calls`. Registered only when a collector is
  // attached — unprofiled runs keep byte-identical metrics. Tick timings
  // stay in the collector; they are wall-clock and belong to the
  // include_timings side of reports.
  if (opts.profile != nullptr) {
    for (int i = 0; i < prof::kPhaseCount; ++i) {
      const auto ph = static_cast<prof::Phase>(i);
      metrics.counter(std::string("prof.") + prof::phase_name(ph) +
                      ".calls") +=
          opts.profile->phase(ph).calls -
          prof_calls_before[static_cast<std::size_t>(i)];
    }
  }
  return result;
}

SimResult simulate_consensus(const FailurePattern& fp, Oracle& oracle,
                             const ConsensusFactory& make,
                             const std::vector<Value>& proposals,
                             SchedulerOptions opts) {
  // A hard error, not an assert: release builds (and the sweep engine's
  // worker threads) must reject a malformed grid point instead of indexing
  // past the end of the proposal vector.
  if (proposals.size() != static_cast<std::size_t>(fp.n())) {
    throw std::invalid_argument(
        "simulate_consensus: proposals.size() must equal fp.n()");
  }
  if (!opts.stop_when) {
    opts.stop_when = [&fp](const std::vector<std::unique_ptr<Automaton>>& a) {
      return all_correct_decided(fp, a);
    };
  }
  const AutomatonFactory factory = [&make, &proposals](Pid p) {
    return make(p, proposals[static_cast<std::size_t>(p)]);
  };
  return simulate(fp, oracle, factory, opts);
}

bool all_correct_decided(
    const FailurePattern& fp,
    const std::vector<std::unique_ptr<Automaton>>& automata) {
  for (Pid p : fp.correct()) {
    const auto* c =
        dynamic_cast<const ConsensusAutomaton*>(automata[static_cast<std::size_t>(p)].get());
    if (c == nullptr || !c->decision()) return false;
  }
  return true;
}

}  // namespace nucon
