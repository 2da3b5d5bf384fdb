// A_nuc correctness sweeps (paper Theorem 6.27): termination, validity and
// nonuniform agreement under (Omega, Sigma^nu+), across system sizes,
// fault counts, adversarial faulty-quorum behaviors and seeds — including
// environments with a correct minority, where majority-based algorithms
// cannot terminate.
#include "core/anuc.hpp"

#include <gtest/gtest.h>

#include "algo/naive_sigma_nu.hpp"
#include "consensus_test_util.hpp"

namespace nucon {
namespace {

using testutil::kAdversarial;
using testutil::SweepParam;

constexpr Time kStabilize = 120;
constexpr std::int64_t kMaxSteps = 120'000;

class AnucSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(AnucSweep, SolvesNonuniformConsensusUnderAdversarialOracle) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, kStabilize, kAdversarial,
                          GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = kMaxSteps;
  const auto stats =
      run_consensus(fp, oracle.top(), make_anuc(GetParam().n),
                    mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.termination) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.validity) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.nonuniform_agreement) << stats.verdict.detail;
}

TEST_P(AnucSweep, UnanimousProposalsDecideTheProposedValue) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, kStabilize, kAdversarial,
                          GetParam().seed + 500);

  SchedulerOptions opts;
  opts.seed = GetParam().seed + 500;
  opts.max_steps = kMaxSteps;
  const std::vector<Value> sevens(static_cast<std::size_t>(GetParam().n), 7);
  const auto stats =
      run_consensus(fp, oracle.top(), make_anuc(GetParam().n), sevens, opts);

  ASSERT_TRUE(stats.all_correct_decided);
  for (Pid p : fp.correct()) {
    EXPECT_EQ(stats.decisions[static_cast<std::size_t>(p)], 7);
  }
}

std::vector<SweepParam> anuc_params() {
  std::vector<SweepParam> out;
  for (Pid n : {2, 3, 4, 5, 6}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnucSweep, testing::ValuesIn(anuc_params()),
                         testutil::sweep_name);

TEST(Anuc, ToleratesCorrectMinority) {
  // 1 correct out of 5: impossible for majority-based algorithms, fine for
  // (Omega, Sigma^nu+).
  FailurePattern fp(5);
  for (Pid p = 1; p < 5; ++p) fp.set_crash(p, 40 + 10 * p);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 150, kAdversarial, 9);

  SchedulerOptions opts;
  opts.seed = 9;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(5),
                                   mixed_proposals(5), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, NoFailuresFastPath) {
  const FailurePattern fp(4);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, 11);
  SchedulerOptions opts;
  opts.seed = 11;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(4),
                                   {5, 5, 9, 9}, opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform());
  // With an immediately-stable oracle the decision lands within few rounds.
  EXPECT_LE(stats.decide_round, 6);
}

TEST(Anuc, MultivaluedProposals) {
  const FailurePattern fp(5);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 50, kAdversarial, 13);
  SchedulerOptions opts;
  opts.seed = 13;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(5),
                                   {10, 20, 30, 40, 50}, opts);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, BenignFaultyBehaviorAlsoWorks) {
  FailurePattern fp(4);
  fp.set_crash(0, 60);  // crash the would-be kernel/leader
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 100,
                          FaultyQuorumBehavior::kBenign, 17);
  SchedulerOptions opts;
  opts.seed = 17;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(4),
                                   mixed_proposals(4), opts);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, DecisionIsIrrevocable) {
  const FailurePattern fp(3);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, 19);
  SchedulerOptions opts;
  opts.seed = 19;
  opts.max_steps = 20'000;
  // Run far beyond the first decision (no early stop).
  opts.stop_when = [](const auto&) { return false; };

  std::vector<std::optional<Value>> first_decision(3);
  opts.on_step = [&first_decision](
                     const StepRecord& rec,
                     const std::vector<std::unique_ptr<Automaton>>& all) {
    const auto* c = dynamic_cast<const ConsensusAutomaton*>(
        all[static_cast<std::size_t>(rec.p)].get());
    const auto d = c->decision();
    auto& first = first_decision[static_cast<std::size_t>(rec.p)];
    if (d && !first) first = d;
    if (d && first) {
      EXPECT_EQ(d, first);  // never changes once set
    }
  };
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(3),
                                   {0, 1, 1}, opts);
  for (Pid p = 0; p < 3; ++p) {
    EXPECT_EQ(stats.decisions[static_cast<std::size_t>(p)],
              first_decision[static_cast<std::size_t>(p)]);
  }
}

TEST(AnucAblation, WithoutDistrustAgreementBreaks) {
  // Removing the distrust test (Fig. 4 lines 18/28) reverts A_nuc to a
  // contaminable algorithm: the adversarial family finds violations.
  const ContaminationSetup setup;
  const AnucOptions no_distrust{.use_distrust = false,
                                .use_quorum_awareness = true};
  const int violations = count_nonuniform_violations(
      setup, make_anuc(setup.n, no_distrust), 300, /*use_sigma_nu_plus=*/true);
  EXPECT_GT(violations, 0);
}

TEST(AnucAblation, FullAlgorithmSurvivesTheSameSeeds) {
  const ContaminationSetup setup;
  const int violations = count_nonuniform_violations(
      setup, make_anuc(setup.n), 300, /*use_sigma_nu_plus=*/true);
  EXPECT_EQ(violations, 0);
}

TEST(AnucAblation, AblationsDoNotAffectLiveness) {
  // Both ablated variants still terminate under benign conditions; the
  // mechanisms are safety devices.
  for (const AnucOptions options :
       {AnucOptions{.use_distrust = false, .use_quorum_awareness = true},
        AnucOptions{.use_distrust = true, .use_quorum_awareness = false}}) {
    FailurePattern fp(4);
    fp.set_crash(3, 60);
    exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 100, kAdversarial, 31);
    SchedulerOptions opts;
    opts.seed = 31;
    opts.max_steps = 120'000;
    const auto stats = run_consensus(fp, oracle.top(), make_anuc(4, options),
                                     mixed_proposals(4), opts);
    EXPECT_TRUE(stats.all_correct_decided);
    EXPECT_TRUE(stats.verdict.validity);
  }
}

TEST(Anuc, HistoriesGrowButStayBounded) {
  const FailurePattern fp(4);
  exp::AlgoOracles oracle(exp::Algo::kAnuc, fp, 0, kAdversarial, 23);
  SchedulerOptions opts;
  opts.seed = 23;
  opts.max_steps = 30'000;
  SimResult sim = simulate_consensus(fp, oracle.top(), make_anuc(4),
                                     {0, 0, 1, 1}, opts);
  for (Pid p = 0; p < 4; ++p) {
    const auto* a = dynamic_cast<const Anuc*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    ASSERT_NE(a, nullptr);
    EXPECT_GT(a->history().size(), 0u);
    // At most n * 2^n distinct (process, quorum) entries for n=4.
    EXPECT_LE(a->history().size(), 4u * 16u);
    EXPECT_GT(a->distrust_calls(), 0);
  }
}

// At the process cap: n = kMaxProcesses is one past the largest pid, so a
// history decoder that read n like a pid refused its own encoding there.
// A process then dropped every LEAD and PROP, and restore_state refused
// what save_state wrote.
constexpr Pid kCap = kMaxProcesses;

/// The detector value "leader 0, quorum Pi" at the cap.
FdValue cap_leader_and_full_quorum() {
  FdValue d = FdValue::of_leader(0);
  d.set_quorum(ProcessSet::full(kCap));
  return d;
}

/// Steps the leader (process 0, proposing 7) once and delivers its LEAD to
/// process 1; returns process 1's sends.
std::vector<Outgoing> follower_receives_lead(Anuc& follower) {
  const FdValue d = cap_leader_and_full_quorum();
  Anuc leader(0, 7, kCap);
  std::vector<Outgoing> lead;
  leader.step(nullptr, d, lead);
  EXPECT_EQ(lead.size(), static_cast<std::size_t>(kCap));
  const SharedBytes& payload = lead[1].payload;
  const Incoming in{0, payload.get(), &payload};
  std::vector<Outgoing> out;
  follower.step(&in, d, out);
  return out;
}

TEST(Anuc, LeadFromLeaderYieldsReportAtProcessCap) {
  Anuc follower(1, 3, kCap);
  const std::vector<Outgoing> out = follower_receives_lead(follower);
  // Its own LEAD to all, then its REP to all: (REP = tag 2, round 1,
  // the leader's estimate 7 as a zig-zag varint).
  ASSERT_EQ(out.size(), 2 * static_cast<std::size_t>(kCap));
  const Bytes rep = {0x02, 0x01, 0x0e};
  for (std::size_t i = kCap; i < out.size(); ++i) {
    ASSERT_EQ(out[i].payload.get(), rep) << i;
  }
}

TEST(Anuc, SaveStateRestoresAtProcessCap) {
  Anuc follower(1, 3, kCap);
  (void)follower_receives_lead(follower);
  ByteWriter w;
  ASSERT_TRUE(follower.save_state(w));
  const Bytes saved = w.take();

  Anuc restored(1, 0, kCap);
  ByteReader r(saved);
  ASSERT_TRUE(restored.restore_state(r));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.history().size(), follower.history().size());
  ByteWriter again;
  ASSERT_TRUE(restored.save_state(again));
  EXPECT_EQ(again.take(), saved);
}

// Rounds travel as 64-bit varints but A_nuc counts them in `int`. A round
// that does not fit is malformed; cut to `int`, 2^32 + 1 read as round 1.
constexpr std::uint64_t kPastInt = (std::uint64_t{1} << 32) + 1;

/// Leader 0 and quorum {0, 1}, for two processes.
FdValue leader0_quorum01() {
  FdValue d = FdValue::of_leader(0);
  d.set_quorum(ProcessSet{0, 1});
  return d;
}

/// Steps `a` on `payload` from `from`, sealed as the executors deliver
/// it; returns a's sends.
std::vector<Outgoing> receive(Anuc& a, Pid from, const Bytes& payload) {
  const SharedBytes sealed(payload);
  const Incoming in{from, sealed.get(), &sealed};
  std::vector<Outgoing> out;
  a.step(&in, leader0_quorum01(), out);
  return out;
}

/// `encoded` with its round-1 varint at `at` replaced by `round`.
Bytes with_round(const Bytes& encoded, std::size_t at, std::uint64_t round) {
  EXPECT_EQ(encoded.at(at), 0x01);  // round 1 is one varint byte
  ByteWriter w;
  w.raw(ByteView(encoded).first(at));
  w.uvarint(round);
  w.raw(ByteView(encoded).subspan(at + 1));
  return w.take();
}

TEST(Anuc, ReportForARoundPastIntIsDropped) {
  // p0 is in round 1 with quorum {0, 1} and holds its own REP.
  Anuc p0(0, 7, 2);
  std::vector<Outgoing> lead;
  p0.step(nullptr, leader0_quorum01(), lead);
  const std::vector<Outgoing> rep = receive(p0, 0, lead[0].payload.get());
  ASSERT_EQ(rep.size(), 2u);
  ASSERT_TRUE(receive(p0, 0, rep[0].payload.get()).empty());

  const Bytes& genuine = rep[1].payload.get();  // REP, round 1, value 7
  EXPECT_TRUE(receive(p0, 1, with_round(genuine, 1, kPastInt)).empty());
  // The genuine report completes the quorum: PROP to all.
  EXPECT_EQ(receive(p0, 1, genuine).size(), 2u);
}

TEST(Anuc, LeadForARoundPastIntIsDropped) {
  Anuc leader(0, 7, 2);
  std::vector<Outgoing> lead;
  leader.step(nullptr, leader0_quorum01(), lead);
  const Bytes& genuine = lead[1].payload.get();

  // The follower's first step sends its own LEAD to all, and a REP only
  // if it took the leader's.
  Anuc follower(1, 3, 2);
  EXPECT_EQ(receive(follower, 0, with_round(genuine, 1, kPastInt)).size(), 2u);
  EXPECT_EQ(receive(follower, 0, genuine).size(), 2u);  // the REP
}

TEST(Anuc, AckForARoundPastIntIsDropped) {
  Anuc p0(0, 7, 2);
  std::vector<Outgoing> lead;
  p0.step(nullptr, leader0_quorum01(), lead);
  ByteWriter before;
  ASSERT_TRUE(p0.save_state(before));

  // Cut to int, round 2^32 + 5 would count as 5 and lower seen[{0, 1}].
  ByteWriter ack;
  ack.u8(5);  // ACK
  ack.process_set(ProcessSet{0, 1}, 2);
  ack.uvarint(kPastInt + 4);
  EXPECT_TRUE(receive(p0, 1, ack.take()).empty());
  ByteWriter after;
  ASSERT_TRUE(p0.save_state(after));
  EXPECT_EQ(after.take(), before.take());
}

TEST(Anuc, RestoreRefusesARoundPastInt) {
  Anuc p0(0, 7, 2);
  std::vector<Outgoing> lead;
  p0.step(nullptr, leader0_quorum01(), lead);
  ByteWriter w;
  ASSERT_TRUE(p0.save_state(w));
  const Bytes saved = w.take();  // x = 7 is one varint byte, then round 1

  Anuc restored(0, 0, 2);
  EXPECT_FALSE(restored.restore(with_round(saved, 1, kPastInt)));
  ASSERT_TRUE(restored.restore(saved));
  EXPECT_EQ(restored.round(), 1);
}

TEST(Anuc, RestoreRefusesAnOverlongVarint) {
  Anuc p0(0, 1, 2);
  std::vector<Outgoing> lead;
  p0.step(nullptr, leader0_quorum01(), lead);
  ByteWriter w;
  ASSERT_TRUE(p0.save_state(w));
  const Bytes saved = w.take();
  ASSERT_EQ(saved.at(0), 0x02);  // x = 1, zig-zag encoded

  // The same state with x in a second, non-minimal encoding: accepting it
  // would give one state two encodings.
  Bytes overlong = {0x82, 0x00};
  overlong.insert(overlong.end(), saved.begin() + 1, saved.end());
  Anuc restored(0, 0, 2);
  EXPECT_FALSE(restored.restore(overlong));
  ASSERT_TRUE(restored.restore(saved));
  ByteWriter resaved;
  ASSERT_TRUE(restored.save_state(resaved));
  EXPECT_EQ(resaved.take(), saved);
}

}  // namespace
}  // namespace nucon
