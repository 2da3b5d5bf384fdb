// The heartbeat-implemented detectors (fd/impl/): module-level unit tests,
// recorded bare-module histories checked against their detector classes
// across a crash matrix, and hosted runs whose recorded history — the
// values the algorithm actually consumed — passes the same checkers.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/sweep.hpp"
#include "fd/history.hpp"
#include "fd/impl/host.hpp"
#include "fd/scripted.hpp"
#include "sim/scheduler.hpp"

namespace nucon {
namespace {

ScriptedOracle null_oracle() {
  return ScriptedOracle([](Pid, Time) { return FdValue{}; });
}

// --- HeartbeatFd unit tests -------------------------------------------------

TEST(HeartbeatFd, ResolvedDefaultsScaleWithN) {
  const HeartbeatOptions r = HeartbeatOptions{}.resolved(5);
  EXPECT_EQ(r.heartbeat_every, 10);
  EXPECT_EQ(r.timeout_init, 20);
  EXPECT_EQ(r.timeout_increment, 10);
  EXPECT_EQ(r.timeout_max, 160);

  HeartbeatOptions tight;
  tight.timeout_init = 100;
  tight.timeout_max = 7;  // below init: clamped up, never below init
  EXPECT_EQ(tight.resolved(3).timeout_max, 100);
}

TEST(HeartbeatFd, SuspectsASilentPeerAfterItsTimeout) {
  // n=2 resolved: heartbeat_every=4, timeout_init=8.
  HeartbeatFd hb(0, 2, HeartbeatMode::kDiamondS, {});
  std::vector<Outgoing> out;
  for (int i = 0; i < 8; ++i) hb.step(nullptr, FdValue{}, out);
  EXPECT_TRUE(hb.suspected().empty()) << "suspected before the timeout ran out";
  hb.step(nullptr, FdValue{}, out);  // local_time 9 > timeout 8
  EXPECT_EQ(hb.suspected(), ProcessSet{1});
  EXPECT_EQ(hb.output(), FdValue::of_suspects(ProcessSet{1}));
  EXPECT_EQ(hb.mistakes(), 0);
}

TEST(HeartbeatFd, MistakeUnsuspectsAndWidensTheTimeout) {
  HeartbeatFd hb(0, 2, HeartbeatMode::kDiamondS, {});
  std::vector<Outgoing> out;
  for (int i = 0; i < 9; ++i) hb.step(nullptr, FdValue{}, out);
  ASSERT_EQ(hb.suspected(), ProcessSet{1});
  ASSERT_EQ(hb.timeout_of(1), 8);

  const Bytes heartbeat;  // empty payload: the sender id is the message
  const Incoming in{1, heartbeat};
  hb.step(&in, FdValue{}, out);
  EXPECT_TRUE(hb.suspected().empty());
  EXPECT_EQ(hb.mistakes(), 1);
  EXPECT_EQ(hb.timeout_of(1), 12);  // init 8 + increment 4

  // The widened timeout now tolerates the same silence.
  for (int i = 0; i < 12; ++i) hb.step(nullptr, FdValue{}, out);
  EXPECT_TRUE(hb.suspected().empty());
  hb.step(nullptr, FdValue{}, out);
  EXPECT_EQ(hb.suspected(), ProcessSet{1});
}

TEST(HeartbeatFd, BroadcastsEveryHeartbeatEveryOwnSteps) {
  HeartbeatFd hb(1, 3, HeartbeatMode::kDiamondS, {});  // heartbeat_every=6
  std::vector<Outgoing> out;
  for (int i = 0; i < 12; ++i) hb.step(nullptr, FdValue{}, out);
  // Two broadcasts (local_time 6 and 12), each to the two peers.
  ASSERT_EQ(out.size(), 4u);
  for (const Outgoing& o : out) {
    EXPECT_NE(o.to, 1);
    EXPECT_TRUE(o.payload.get().empty());
  }
}

TEST(HeartbeatFd, OmegaModeLeadsWithLowestUnsuspectedId) {
  HeartbeatFd hb(1, 2, HeartbeatMode::kOmega, {});
  std::vector<Outgoing> out;
  EXPECT_EQ(hb.leader(), 0);  // nobody suspected yet; id order decides
  for (int i = 0; i < 9; ++i) hb.step(nullptr, FdValue{}, out);
  EXPECT_EQ(hb.suspected(), ProcessSet{0});
  EXPECT_EQ(hb.leader(), 1);  // self is never suspected, so always defined
  EXPECT_EQ(hb.output(), FdValue::of_leader(1));
}

TEST(HeartbeatFd, SaveStateRoundTripsAndRefusesUnreachableStates) {
  // n=2 resolved: timeout_init=8, timeout_max=64.
  HeartbeatFd hb(0, 2, HeartbeatMode::kOmega, {});
  std::vector<Outgoing> out;
  for (int i = 0; i < 9; ++i) hb.step(nullptr, FdValue{}, out);
  const Bytes heartbeat;
  const Incoming in{1, heartbeat};
  hb.step(&in, FdValue{}, out);  // a mistake: p1's timeout widens to 12
  const Bytes saved = *hb.snapshot();

  HeartbeatFd copy(0, 2, HeartbeatMode::kOmega, {});
  ASSERT_TRUE(copy.restore(saved));
  EXPECT_EQ(copy.snapshot(), saved);
  EXPECT_EQ(copy.mistakes(), 1);
  EXPECT_EQ(copy.timeout_of(1), 12);

  // local time 10, then (last heard, timeout) per process, then the
  // suspects and the mistake count.
  const auto forged = [](std::int64_t heard1, std::int64_t timeout1,
                         ProcessSet suspected) {
    ByteWriter w;
    w.svarint(10);
    w.svarint(0);
    w.svarint(8);
    w.svarint(heard1);
    w.svarint(timeout1);
    w.process_set(suspected, 2);
    w.svarint(1);
    return w.take();
  };
  ASSERT_EQ(forged(10, 12, ProcessSet{}), saved);
  EXPECT_FALSE(copy.restore(forged(11, 12, ProcessSet{})));  // heard later
  EXPECT_FALSE(copy.restore(forged(10, 7, ProcessSet{})));   // < init
  EXPECT_FALSE(copy.restore(forged(10, 65, ProcessSet{})));  // > max
  EXPECT_FALSE(copy.restore(forged(10, 12, ProcessSet{0})));  // self
}

// --- Bare modules under the timed scheduler ---------------------------------

struct CrashCase {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

std::vector<CrashCase> crash_matrix() {
  std::vector<CrashCase> out;
  for (const auto& [n, faults] : std::vector<std::pair<Pid, Pid>>{
           {2, 1}, {3, 0}, {3, 1}, {4, 1}, {4, 2}, {5, 2}}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) out.push_back({n, faults, seed});
  }
  return out;
}

/// Crashes the lowest `faults` ids (so the heartbeat chain must advance its
/// leader past them), staggered in time.
FailurePattern crash_pattern(const CrashCase& c) {
  FailurePattern fp(c.n);
  for (Pid p = 0; p < c.faults; ++p) {
    fp.set_crash(p, 120 + 60 * static_cast<Time>(p));
  }
  return fp;
}

/// Runs bare heartbeat modules under `opts` and records the history of
/// their output variables via the on_step observer (the documented idiom
/// for sampling emulated outputs, SchedulerOptions::on_step).
RecordedHistory record(HeartbeatMode mode, const FailurePattern& fp,
                       SchedulerOptions opts) {
  RecordedHistory h;
  opts.record_run = false;
  opts.on_step = [&h](const StepRecord& rec,
                      const std::vector<std::unique_ptr<Automaton>>& automata) {
    const auto* hb = static_cast<const HeartbeatFd*>(
        automata[static_cast<std::size_t>(rec.p)].get());
    h.add(rec.p, rec.t, hb->output());
  };
  auto oracle = null_oracle();
  (void)simulate(fp, oracle, make_heartbeat_fd(fp.n(), mode), opts);
  return h;
}

/// record() under the timing-aware scheduler.
RecordedHistory record_bare(HeartbeatMode mode, const FailurePattern& fp,
                            std::uint64_t seed) {
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 8000;
  opts.timing.enabled = true;
  return record(mode, fp, opts);
}

TEST(HeartbeatBare, OmegaHistoryIsInOmegaAcrossCrashMatrix) {
  for (const CrashCase& c : crash_matrix()) {
    const FailurePattern fp = crash_pattern(c);
    const RecordedHistory h = record_bare(HeartbeatMode::kOmega, fp, c.seed);
    const CheckResult r = check_omega(h, fp);
    EXPECT_TRUE(r.ok) << "n=" << c.n << " f=" << c.faults << " s=" << c.seed
                      << ": " << r.detail;

    // The heartbeat chain converges on the lowest *correct* id.
    for (Pid p : fp.correct()) {
      const auto samples = h.of(p);
      ASSERT_FALSE(samples.empty());
      EXPECT_EQ(samples.back().value.leader(), fp.correct().min())
          << "n=" << c.n << " f=" << c.faults << " s=" << c.seed << " p=" << p;
    }
  }
}

TEST(HeartbeatBare, DiamondSHistoryIsInDiamondSAcrossCrashMatrix) {
  for (const CrashCase& c : crash_matrix()) {
    const FailurePattern fp = crash_pattern(c);
    const RecordedHistory h = record_bare(HeartbeatMode::kDiamondS, fp, c.seed);
    const CheckResult r = check_diamond_s(h, fp);
    EXPECT_TRUE(r.ok) << "n=" << c.n << " f=" << c.faults << " s=" << c.seed
                      << ": " << r.detail;
  }
}

TEST(HeartbeatBare, SlowedProcessIsEventuallyTolerated) {
  // A 3x-slow (but correct) process sends heartbeats a third as often; the
  // adaptive timeouts must stop wrongly suspecting it — the history stays
  // in <>S (eventual weak accuracy cares about *some* correct process, but
  // completeness would break if the slow process were permanently
  // suspected: it is correct, so check_diamond_s's accuracy clause plus
  // the leader chain below pin toleration).
  FailurePattern fp(3);
  fp.set_crash(2, 150);
  SchedulerOptions opts;
  opts.seed = 5;
  opts.max_steps = 12000;
  opts.timing.enabled = true;
  opts.timing.speed = {1, 3, 1};  // p1 correct but slow
  const RecordedHistory h = record(HeartbeatMode::kOmega, fp, opts);

  const CheckResult r = check_omega(h, fp);
  EXPECT_TRUE(r.ok) << r.detail;
  // p0 ends up not suspecting the slow p1: the final leader samples of both
  // correct processes agree on 0, which requires p0 unsuspected everywhere.
  for (Pid p : fp.correct()) {
    const auto samples = h.of(p);
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.back().value.leader(), 0) << "p=" << p;
  }
}

// --- Omega election under the untimed scheduler -----------------------------
//
// The Omega mode is the one implemented Omega (FdHost hosts it and
// FromScratchConsensus steps it). Without a timing model only the
// scheduler's bounded message age bounds the heartbeat gaps.

struct ElectionParam {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

RecordedHistory record_election(const FailurePattern& fp, std::uint64_t seed,
                                std::int64_t steps) {
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = steps;
  return record(HeartbeatMode::kOmega, fp, opts);
}

class OmegaElectionSweep : public testing::TestWithParam<ElectionParam> {};

TEST_P(OmegaElectionSweep, EmulatedHistoryIsInOmega) {
  const auto [n, faults, seed] = GetParam();
  Rng rng(seed * 50331653ULL);
  const FailurePattern fp =
      Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults, 200);

  const RecordedHistory h = record_election(fp, seed, 30'000);
  ASSERT_FALSE(h.empty());
  const auto result = check_omega(h, fp);
  EXPECT_TRUE(result.ok) << result.detail << " under " << fp.to_string();
}

std::vector<ElectionParam> election_params() {
  std::vector<ElectionParam> out;
  for (Pid n : {2, 3, 5, 8}) {
    for (Pid faults = 0; faults < n; faults += (n > 4 ? 2 : 1)) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OmegaElectionSweep,
                         testing::ValuesIn(election_params()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.faults) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(OmegaElection, WorksWithCorrectMinority) {
  // Unlike quorums, leadership needs no majority: 1 correct of 5.
  FailurePattern fp(5);
  for (Pid p = 0; p < 4; ++p) fp.set_crash(p, 50 + 20 * p);

  const RecordedHistory h = record_election(fp, 3, 40'000);
  const auto result = check_omega(h, fp);
  EXPECT_TRUE(result.ok) << result.detail;
  // The eventual leader must be process 4, the only correct one.
  EXPECT_EQ(h.samples().back().value.leader(), 4);
}

TEST(OmegaElection, FalseSuspicionsAreFinite) {
  const FailurePattern fp(4);
  auto oracle = null_oracle();
  SchedulerOptions opts;
  opts.seed = 7;
  opts.max_steps = 40'000;
  const SimResult sim = simulate(
      fp, oracle, make_heartbeat_fd(4, HeartbeatMode::kOmega), opts);
  for (Pid p = 0; p < 4; ++p) {
    const auto* hb = static_cast<const HeartbeatFd*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    // With everyone correct, suspicion noise settles: by the end nobody
    // is suspected and the widening kept mistakes small.
    EXPECT_TRUE(hb->suspected().empty()) << p;
    EXPECT_LT(hb->mistakes(), 64) << p;
  }
}

// --- Hosted runs ------------------------------------------------------------

/// Full-horizon hosted run (no early stop at decision, so the recorded
/// history has room to stabilize): heartbeat modules beside the algorithm,
/// the canonical oracle stack reading their board for its leader/suspects
/// layer.
SimResult simulate_hosted(exp::Algo algo, const FailurePattern& fp,
                          std::uint64_t seed) {
  const Pid n = fp.n();
  HostedConsensus hosted = make_hosted_consensus(
      exp::consensus_factory_of(algo, n, seed), n,
      algo == exp::Algo::kCt ? HeartbeatMode::kDiamondS
                             : HeartbeatMode::kOmega);
  exp::AlgoOracles oracles(algo, fp, /*stabilize=*/120,
                           FaultyQuorumBehavior::kAdversarialDisjoint, seed,
                           hosted.board);
  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 16000;
  opts.timing.enabled = true;
  opts.stop_when = [](const std::vector<std::unique_ptr<Automaton>>&) {
    return false;  // run the full horizon
  };
  return simulate_consensus(fp, oracles.top(), hosted.factory,
                            mixed_proposals(n), opts);
}

TEST(Hosted, RecordedHistoryOfOmegaAlgosPassesCheckOmega) {
  // What the run records in StepRecord::d IS what the hosted algorithm
  // consumed; for Omega-consuming algorithms it must be an Omega history —
  // even when the initial leader is the process that crashes.
  for (const exp::Algo algo : {exp::Algo::kAnuc, exp::Algo::kStacked}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      FailurePattern fp(4);
      fp.set_crash(0, 150);
      const SimResult sim = simulate_hosted(algo, fp, seed);
      EXPECT_FALSE(check_run_structure(sim.run));
      const CheckResult r = check_omega(RecordedHistory::from_run(sim.run), fp);
      EXPECT_TRUE(r.ok) << exp::algo_name(algo) << " seed " << seed << ": "
                        << r.detail;
      EXPECT_TRUE(all_correct_decided(fp, sim.automata))
          << exp::algo_name(algo) << " seed " << seed;
    }
  }
}

TEST(Hosted, RecordedHistoryOfCtPassesCheckDiamondS) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    FailurePattern fp(4);
    fp.set_crash(3, 150);
    const SimResult sim = simulate_hosted(exp::Algo::kCt, fp, seed);
    const CheckResult r =
        check_diamond_s(RecordedHistory::from_run(sim.run), fp);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
    EXPECT_TRUE(all_correct_decided(fp, sim.automata)) << "seed " << seed;
  }
}

TEST(Hosted, SweepPointWithImplementedFdDecides) {
  for (const exp::Algo algo :
       {exp::Algo::kAnuc, exp::Algo::kStacked, exp::Algo::kCt}) {
    exp::SweepPoint pt;
    pt.algo = algo;
    pt.n = 4;
    pt.faults = 1;
    pt.seed = 11;
    pt.fd = exp::FdSource::kImplemented;
    const ConsensusRunStats stats = exp::run_point(pt);
    EXPECT_TRUE(stats.verdict.termination) << exp::algo_name(algo);
    EXPECT_TRUE(stats.verdict.validity) << exp::algo_name(algo);
    EXPECT_TRUE(stats.verdict.nonuniform_agreement) << exp::algo_name(algo);
  }
}

TEST(Hosted, ReplayArtifactRoundTripsTheFdSource) {
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kAnuc;
  pt.seed = 7;
  pt.fd = exp::FdSource::kImplemented;
  const exp::ReplayArtifact artifact{pt};
  const std::string line = artifact.to_string();
  EXPECT_NE(line.find("fd=implemented"), std::string::npos) << line;
  const auto parsed = exp::ReplayArtifact::parse(line);
  ASSERT_TRUE(parsed) << line;
  EXPECT_EQ(*parsed, artifact);

  // Default (generated) points keep their historical artifact strings — no
  // fd token — so pre-existing golden traces stay byte-identical.
  exp::SweepPoint generated;
  generated.seed = 7;
  EXPECT_EQ(exp::ReplayArtifact{generated}.to_string().find("fd="),
            std::string::npos);
}

TEST(Hosted, OracleStackRejectsABoardForOracleFreeAlgos) {
  const FailurePattern fp(3);
  const HostedConsensus hosted = make_hosted_consensus(
      exp::consensus_factory_of(exp::Algo::kBenOr, 3, 1), 3,
      HeartbeatMode::kOmega);
  EXPECT_FALSE(exp::supports_implemented_fd(exp::Algo::kBenOr));
  EXPECT_FALSE(exp::supports_implemented_fd(exp::Algo::kFromScratch));
  EXPECT_THROW(exp::AlgoOracles(exp::Algo::kBenOr, fp, 120,
                                FaultyQuorumBehavior::kAdversarialDisjoint, 1,
                                hosted.board),
               std::invalid_argument);
}

}  // namespace
}  // namespace nucon
