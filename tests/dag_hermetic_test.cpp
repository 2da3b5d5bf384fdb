// The fair-chain walk DagCore keeps across steps is not state. An
// automaton that has already run and then restores save_state bytes, and a
// clone taken mid-run, must behave exactly like a fresh automaton restored
// from the same bytes: the same sends, emulated output, output count,
// save_state bytes and walked chain at every step.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/stacked_nuc.hpp"
#include "fd/composed.hpp"
#include "fd/omega.hpp"
#include "fd/sigma_nu.hpp"

namespace nucon {
namespace {

constexpr Pid kWatched = 0;

/// The transformation inside an automaton under test.
using TransformOf = std::function<const SigmaNuToPlus&(const Automaton&)>;

/// One step's input to one process, as a run delivered it.
struct Input {
  std::optional<std::pair<Pid, Bytes>> msg;
  FdValue d;
};

/// Process kWatched along one run: each step's input, and after the step
/// its save_state bytes and the barrier its walk started from.
struct Trace {
  std::vector<Input> inputs;
  std::vector<Bytes> states;
  std::vector<NodeRef> barriers;
};

class Recorder final : public Automaton {
 public:
  Recorder(std::unique_ptr<Automaton> inner, TransformOf transform_of,
           Trace* trace)
      : inner_(std::move(inner)), transform_of_(std::move(transform_of)),
        trace_(trace) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    if (trace_ != nullptr) {
      Input input{std::nullopt, d};
      if (in != nullptr) {
        input.msg.emplace(in->from,
                          Bytes(in->payload.begin(), in->payload.end()));
      }
      trace_->inputs.push_back(std::move(input));
    }
    inner_->step(in, d, out);
    if (trace_ != nullptr) {
      ByteWriter w;
      EXPECT_TRUE(inner_->save_state(w));
      trace_->states.push_back(w.take());
      trace_->barriers.push_back(
          transform_of_(*inner_).core().walked_chain().front());
    }
  }

 private:
  std::unique_ptr<Automaton> inner_;
  TransformOf transform_of_;
  Trace* trace_;
};

Trace record(const FailurePattern& fp, Oracle& oracle,
             const AutomatonFactory& make, const TransformOf& transform_of,
             std::uint64_t seed, std::int64_t steps) {
  Trace trace;
  const AutomatonFactory recorded = [&](Pid p) -> std::unique_ptr<Automaton> {
    return std::make_unique<Recorder>(make(p), transform_of,
                                      p == kWatched ? &trace : nullptr);
  };
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  (void)simulate(fp, oracle, recorded, opts);
  return trace;
}

struct Observed {
  std::vector<std::pair<Pid, Bytes>> sends;
  FdValue output;
  std::int64_t outputs = 0;
  Bytes state;
  std::vector<NodeRef> walked;
};

Observed step_observed(Automaton& a, const Input& input,
                       const TransformOf& transform_of) {
  const Incoming in{input.msg ? input.msg->first : -1,
                    input.msg ? ByteView(input.msg->second) : ByteView()};
  std::vector<Outgoing> out;
  a.step(input.msg ? &in : nullptr, input.d, out);
  Observed o;
  for (const Outgoing& m : out) o.sends.emplace_back(m.to, m.payload.get());
  const SigmaNuToPlus& t = transform_of(a);
  o.output = t.emulated_output();
  o.outputs = t.outputs_produced();
  ByteWriter w;
  EXPECT_TRUE(a.save_state(w));
  o.state = w.take();
  o.walked = t.core().walked_chain();
  return o;
}

testing::AssertionResult same(const Observed& a, const Observed& b) {
  if (a.sends != b.sends) return testing::AssertionFailure() << "sends differ";
  if (a.output != b.output) return testing::AssertionFailure() << "outputs differ";
  if (a.outputs != b.outputs) {
    return testing::AssertionFailure() << "output counts differ";
  }
  if (a.state != b.state) return testing::AssertionFailure() << "states differ";
  if (a.walked != b.walked) {
    return testing::AssertionFailure() << "walked chains differ";
  }
  return testing::AssertionSuccess();
}

constexpr std::size_t kStepsAfter = 150;

/// Steps a fresh automaton through a's first t+1 inputs, then restores b's
/// state after step t2 into it and into another fresh automaton, and feeds
/// both b's inputs from step t2+1 on. The pairs (t, t2) are those where
/// the restored state walks next from the very barrier the stepped
/// automaton last walked from, so a walk kept across the restore would be
/// resumed on the wrong DAG.
void expect_restore_hermetic(const AutomatonFactory& make,
                             const TransformOf& transform_of, const Trace& a,
                             const Trace& b) {
  std::size_t pairs = 0;
  for (std::size_t t = 0; t < a.inputs.size() && pairs < 8; t += 3) {
    for (std::size_t t2 = 0; t2 + 1 < b.inputs.size(); ++t2) {
      if (a.barriers[t] != b.barriers[t2 + 1] || a.states[t] == b.states[t2]) {
        continue;
      }
      auto x = make(kWatched);
      for (std::size_t i = 0; i <= t; ++i) {
        (void)step_observed(*x, a.inputs[i], transform_of);
      }
      auto y = make(kWatched);
      ASSERT_TRUE(x->restore(b.states[t2]));
      ASSERT_TRUE(y->restore(b.states[t2]));
      for (std::size_t i = t2 + 1;
           i < b.inputs.size() && i <= t2 + kStepsAfter; ++i) {
        const Observed ox = step_observed(*x, b.inputs[i], transform_of);
        const Observed oy = step_observed(*y, b.inputs[i], transform_of);
        ASSERT_TRUE(same(ox, oy))
            << "stepped " << t + 1 << ", restored step " << t2
            << ", then step " << i;
        ASSERT_EQ(ox.state, b.states[i]) << "step " << i;
      }
      ++pairs;
      break;
    }
  }
  EXPECT_GE(pairs, 4u);
}

/// Clones an automaton after a's first t+1 inputs and restores its
/// save_state bytes into a fresh one; all three then take a's remaining
/// inputs.
void expect_clone_hermetic(const AutomatonFactory& make,
                           const TransformOf& transform_of, const Trace& a,
                           std::size_t t) {
  auto x = make(kWatched);
  for (std::size_t i = 0; i <= t; ++i) {
    (void)step_observed(*x, a.inputs[i], transform_of);
  }
  auto z = x->clone();
  ASSERT_NE(z, nullptr);
  ByteWriter w;
  ASSERT_TRUE(x->save_state(w));
  auto y = make(kWatched);
  ASSERT_TRUE(y->restore(w.take()));
  for (std::size_t i = t + 1; i < a.inputs.size(); ++i) {
    const Observed ox = step_observed(*x, a.inputs[i], transform_of);
    const Observed oz = step_observed(*z, a.inputs[i], transform_of);
    const Observed oy = step_observed(*y, a.inputs[i], transform_of);
    ASSERT_TRUE(same(ox, oz)) << "clone, step " << i;
    ASSERT_TRUE(same(ox, oy)) << "restored, step " << i;
    ASSERT_EQ(ox.state, a.states[i]) << "step " << i;
  }
}

FailurePattern pattern() {
  FailurePattern fp(3);
  fp.set_crash(2, 400);
  return fp;
}

SigmaNuOptions sigma_nu_options(std::uint64_t seed) {
  SigmaNuOptions so;
  so.stabilize_at = 60;
  so.seed = seed;
  so.faulty = FaultyQuorumBehavior::kAdversarialDisjoint;
  return so;
}

TEST(KeptWalkHermetic, SigmaNuToPlusRestoreAndClone) {
  const FailurePattern fp = pattern();
  const AutomatonFactory make = make_sigma_nu_to_plus(fp.n());
  const TransformOf transform_of = [](const Automaton& a) -> const SigmaNuToPlus& {
    return static_cast<const SigmaNuToPlus&>(a);
  };
  std::vector<Trace> runs;
  for (std::uint64_t seed : {1ull, 2ull}) {
    SigmaNuOracle oracle(fp, sigma_nu_options(seed));
    runs.push_back(record(fp, oracle, make, transform_of, seed, 1500));
  }
  expect_restore_hermetic(make, transform_of, runs[0], runs[1]);
  expect_restore_hermetic(make, transform_of, runs[1], runs[0]);
  expect_clone_hermetic(make, transform_of, runs[0], 120);
}

TEST(KeptWalkHermetic, StackedNucRestoreAndClone) {
  const FailurePattern fp = pattern();
  const AutomatonFactory make = [&fp](Pid p) -> std::unique_ptr<Automaton> {
    return std::make_unique<StackedNuc>(p, p % 2, fp.n());
  };
  const TransformOf transform_of = [](const Automaton& a) -> const SigmaNuToPlus& {
    return static_cast<const StackedNuc&>(a).transformation();
  };
  std::vector<Trace> runs;
  for (std::uint64_t seed : {1ull, 2ull}) {
    OmegaOptions oo;
    oo.stabilize_at = 80;
    oo.seed = seed;
    OmegaOracle omega(fp, oo);
    SigmaNuOracle sigma_nu(fp, sigma_nu_options(seed + 0x51));
    ComposedOracle oracle(omega, sigma_nu);
    runs.push_back(record(fp, oracle, make, transform_of, seed, 1500));
  }
  expect_restore_hermetic(make, transform_of, runs[0], runs[1]);
  expect_restore_hermetic(make, transform_of, runs[1], runs[0]);
  expect_clone_hermetic(make, transform_of, runs[0], 120);
}

}  // namespace
}  // namespace nucon
