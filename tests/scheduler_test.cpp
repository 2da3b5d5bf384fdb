#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include "fd/scripted.hpp"

namespace nucon {
namespace {

/// Counts its own steps and the messages it received; sends one greeting
/// to every process on its first step.
class GreeterAutomaton final : public Automaton {
 public:
  explicit GreeterAutomaton(Pid n) : n_(n) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    (void)d;
    ++steps_;
    if (in != nullptr) ++received_;
    if (steps_ == 1) {
      ByteWriter w;
      w.u8(42);
      broadcast(n_, w.take(), out);
    }
  }

  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    w.uvarint(static_cast<std::uint64_t>(steps_));
    w.uvarint(static_cast<std::uint64_t>(received_));
    return true;
  }

  int steps_ = 0;
  int received_ = 0;

 private:
  Pid n_;
};

AutomatonFactory make_greeter(Pid n) {
  return [n](Pid) { return std::make_unique<GreeterAutomaton>(n); };
}

ScriptedOracle null_oracle() {
  return ScriptedOracle([](Pid, Time) { return FdValue{}; });
}

SchedulerOptions quick(std::uint64_t seed, std::int64_t steps) {
  SchedulerOptions o;
  o.seed = seed;
  o.max_steps = steps;
  return o;
}

TEST(Scheduler, EveryCorrectProcessSteps) {
  const FailurePattern fp(5);
  auto oracle = null_oracle();
  const SimResult sim = simulate(fp, oracle, make_greeter(5), quick(1, 500));

  const ReplayOutcome replayed = replay(sim.run, 5, make_greeter(5));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  const auto stats = admissibility_stats(sim.run, 5, replayed);
  for (Pid p = 0; p < 5; ++p) {
    // Macro-round scheduling: everyone gets 500/5 = 100 steps exactly.
    EXPECT_EQ(stats.steps_by_process[static_cast<std::size_t>(p)], 100) << p;
  }
}

TEST(Scheduler, CrashedProcessStopsStepping) {
  FailurePattern fp(3);
  fp.set_crash(1, 50);
  auto oracle = null_oracle();
  const SimResult sim = simulate(fp, oracle, make_greeter(3), quick(2, 600));

  for (const StepRecord& s : sim.run.steps) {
    if (s.p == 1) {
      EXPECT_LT(s.t, 50);
    }
  }
  EXPECT_FALSE(check_run_structure(sim.run));
}

TEST(Scheduler, RunStructureAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FailurePattern fp(4);
    if (seed % 2 == 0) fp.set_crash(static_cast<Pid>(seed % 4), 30);
    auto oracle = null_oracle();
    const SimResult sim = simulate(fp, oracle, make_greeter(4), quick(seed, 400));
    const auto violation = check_run_structure(sim.run);
    EXPECT_FALSE(violation) << *violation;
  }
}

TEST(Scheduler, AllMessagesToCorrectEventuallyDelivered) {
  // Greeters send once; with the fairness backstop, a long run leaves no
  // message to a correct process undelivered (admissibility property (7)).
  const FailurePattern fp(4);
  auto oracle = null_oracle();
  const SimResult sim = simulate(fp, oracle, make_greeter(4), quick(3, 2000));

  const ReplayOutcome replayed = replay(sim.run, 4, make_greeter(4));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(admissibility_stats(sim.run, 4, replayed).undelivered_to_correct, 0u);
}

TEST(Scheduler, ForcedDeliveryScanLengthIsMeasuredAndDeterministic) {
  // The destination-sharded MessageBuffer makes choose_delivery O(own
  // queue); the fairness backstop is the one path that still reads a
  // process's full pending count, and the scheduler histograms that
  // count per forced delivery. One sample per forced delivery, strictly
  // positive (a forced delivery implies a nonempty queue), and — being
  // an integer histogram fed in schedule order — byte-deterministic.
  const FailurePattern fp(4);
  auto o1 = null_oracle();
  const SimResult a = simulate(fp, o1, make_greeter(4), quick(11, 2000));
  const auto& scan = a.metrics.histograms().at("scheduler.pending_scan_length");
  EXPECT_EQ(scan.count(),
            a.metrics.counter_value("scheduler.forced_deliveries"));
  if (scan.count() > 0) {
    EXPECT_GE(scan.min(), 1);
  }

  auto o2 = null_oracle();
  const SimResult b = simulate(fp, o2, make_greeter(4), quick(11, 2000));
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(Scheduler, DeterministicForSameSeed) {
  const FailurePattern fp(4);
  auto o1 = null_oracle();
  auto o2 = null_oracle();
  const SimResult a = simulate(fp, o1, make_greeter(4), quick(77, 300));
  const SimResult b = simulate(fp, o2, make_greeter(4), quick(77, 300));
  ASSERT_EQ(a.run.steps.size(), b.run.steps.size());
  for (std::size_t i = 0; i < a.run.steps.size(); ++i) {
    EXPECT_EQ(a.run.steps[i].p, b.run.steps[i].p);
    EXPECT_EQ(a.run.steps[i].t, b.run.steps[i].t);
    EXPECT_EQ(a.run.steps[i].received, b.run.steps[i].received);
  }
}

TEST(Scheduler, DifferentSeedsInterleaveDifferently) {
  const FailurePattern fp(4);
  auto o1 = null_oracle();
  auto o2 = null_oracle();
  const SimResult a = simulate(fp, o1, make_greeter(4), quick(1, 300));
  const SimResult b = simulate(fp, o2, make_greeter(4), quick(2, 300));
  bool any_difference = false;
  for (std::size_t i = 0; i < std::min(a.run.steps.size(), b.run.steps.size()); ++i) {
    any_difference = any_difference || a.run.steps[i].p != b.run.steps[i].p ||
                     a.run.steps[i].received != b.run.steps[i].received;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Scheduler, RestrictToLimitsParticipants) {
  const FailurePattern fp(6);
  auto oracle = null_oracle();
  SchedulerOptions opts = quick(5, 300);
  opts.restrict_to = ProcessSet{0, 2};
  const SimResult sim = simulate(fp, oracle, make_greeter(6), opts);
  EXPECT_EQ(sim.run.participants(), (ProcessSet{0, 2}));
}

TEST(Scheduler, StopWhenFires) {
  const FailurePattern fp(3);
  auto oracle = null_oracle();
  SchedulerOptions opts = quick(6, 100000);
  opts.stop_when = [](const std::vector<std::unique_ptr<Automaton>>& a) {
    return static_cast<const GreeterAutomaton*>(a[0].get())->steps_ >= 10;
  };
  const SimResult sim = simulate(fp, oracle, make_greeter(3), opts);
  EXPECT_TRUE(sim.stopped_by_predicate);
  EXPECT_LT(sim.run.steps.size(), 100u);
}

TEST(Scheduler, OracleValuesRecordedInRun) {
  const FailurePattern fp(2);
  ScriptedOracle oracle([](Pid p, Time) { return FdValue::of_leader(p); });
  const SimResult sim = simulate(fp, oracle, make_greeter(2), quick(7, 50));
  for (const StepRecord& s : sim.run.steps) {
    EXPECT_EQ(s.d, FdValue::of_leader(s.p));
  }
}

TEST(Scheduler, ReplayReproducesFinalStates) {
  FailurePattern fp(4);
  fp.set_crash(2, 80);
  auto oracle = null_oracle();
  const SimResult sim = simulate(fp, oracle, make_greeter(4), quick(9, 700));

  const ReplayOutcome replayed = replay(sim.run, 4, make_greeter(4));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  for (Pid p = 0; p < 4; ++p) {
    EXPECT_EQ(sim.automata[static_cast<std::size_t>(p)]->snapshot(),
              replayed.automata[static_cast<std::size_t>(p)]->snapshot())
        << p;
  }
}

TEST(Replay, RejectsUnsentMessage) {
  nucon::Run run((FailurePattern(2)));
  StepRecord s;
  s.p = 0;
  s.t = 1;
  s.received = MsgId{1, 1};  // never sent
  run.steps.push_back(s);
  const ReplayOutcome outcome = replay(run, 2, make_greeter(2));
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("not applicable"), std::string::npos);
}

TEST(RunStructure, DetectsDecreasingTimes) {
  nucon::Run run((FailurePattern(2)));
  run.steps.push_back({0, std::nullopt, FdValue{}, 10});
  run.steps.push_back({1, std::nullopt, FdValue{}, 5});
  EXPECT_TRUE(check_run_structure(run));
}

TEST(RunStructure, DetectsStepsAfterCrash) {
  FailurePattern fp(2);
  fp.set_crash(0, 3);
  nucon::Run run(fp);
  run.steps.push_back({0, std::nullopt, FdValue{}, 5});
  EXPECT_TRUE(check_run_structure(run));
}

TEST(RunStructure, DetectsSameProcessSameTime) {
  nucon::Run run((FailurePattern(2)));
  run.steps.push_back({0, std::nullopt, FdValue{}, 4});
  run.steps.push_back({0, std::nullopt, FdValue{}, 4});
  EXPECT_TRUE(check_run_structure(run));
}

}  // namespace
}  // namespace nucon
