// The register contrast (paper §1 / Delporte et al.): ABD over Sigma
// quorums is an atomic register in any environment; the identical protocol
// over Sigma^nu loses atomicity the moment a faulty process's quorum stops
// intersecting the others — registers have no useful nonuniform weakening.
#include "reg/harness.hpp"

#include <gtest/gtest.h>

#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"
#include "sim/step.hpp"

namespace nucon {
namespace {

struct RegParam {
  Pid n;
  Pid faults;
  std::uint64_t seed;
};

class AbdSigmaSweep : public testing::TestWithParam<RegParam> {};

TEST_P(AbdSigmaSweep, AtomicUnderSigmaInAnyEnvironment) {
  const auto [n, faults, seed] = GetParam();
  Rng rng(seed * 7717);
  const FailurePattern fp =
      Environment{n, static_cast<Pid>(n - 1)}.sample(rng, faults, 80);

  SigmaOptions so;
  so.stabilize_at = 100;
  so.seed = seed;
  SigmaOracle oracle(fp, so);

  SchedulerOptions opts;
  opts.seed = seed;
  opts.max_steps = 120'000;
  const RegisterRunResult result = run_register_workload(
      fp, oracle, alternating_workloads(n, 3), opts);

  EXPECT_TRUE(result.all_correct_done) << fp.to_string();
  EXPECT_TRUE(result.verdict.ok) << result.verdict.detail;
  EXPECT_GE(result.records.size(),
            static_cast<std::size_t>(6 * fp.correct().size()));
}

std::vector<RegParam> reg_params() {
  std::vector<RegParam> out;
  for (Pid n : {2, 3, 4, 5}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbdSigmaSweep, testing::ValuesIn(reg_params()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_f" +
                                  std::to_string(info.param.faults) + "_s" +
                                  std::to_string(info.param.seed);
                         });

/// Hand-driven executions: the test chooses which process steps and which
/// pending message (if any) it receives — any such sequence is a legal
/// finite run of the model (messages may be delayed arbitrarily).
class ManualSim {
 public:
  ManualSim(Pid n, AutomatonFactory make) : namer_(n) {
    for (Pid p = 0; p < n; ++p) automata_.push_back(make(p));
  }

  /// Steps p, delivering the oldest pending message whose sender satisfies
  /// `from_ok` (lambda if none).
  void step(Pid p, const FdValue& d,
            const std::function<bool(Pid)>& from_ok) {
    ++now_;
    std::optional<Message> msg;
    for (std::size_t i = 0; i < buffer_.pending_for(p); ++i) {
      if (from_ok(buffer_.peek(p, i).id.sender)) {
        msg = buffer_.take(p, i);
        break;
      }
    }
    std::vector<Outgoing> sends;
    deliver(*automata_[static_cast<std::size_t>(p)], msg, d, sends);
    for (Outgoing& o : sends) buffer_.add(namer_.name(p, std::move(o), now_));
    if (auto* reg = dynamic_cast<AbdRegister*>(
            automata_[static_cast<std::size_t>(p)].get())) {
      reg->stamp_times(now_);
    }
  }

  [[nodiscard]] AbdRegister& reg(Pid p) {
    return *dynamic_cast<AbdRegister*>(automata_[static_cast<std::size_t>(p)].get());
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Automaton>>& automata() const {
    return automata_;
  }

 private:
  std::vector<std::unique_ptr<Automaton>> automata_;
  MessageBuffer buffer_;
  SendNamer namer_;
  Time now_ = 0;
};

TEST(AbdSigmaNu, AdversarialQuorumsBreakAtomicityConstructed) {
  // The deterministic §1-style counterexample: process 0 completes
  // write(7) using the correct-side quorum {0,1} while every message to
  // the faulty process 3 stays in flight; 3 then completes read() using
  // its own legal Sigma^nu quorum {3} and returns the initial value —
  // a stale read, so the emulated object is not an atomic register.
  std::vector<std::vector<RegOp>> workloads(4);
  workloads[0] = {{RegOp::Kind::kWrite, 7}};
  workloads[3] = {{RegOp::Kind::kRead, 0}};
  ManualSim sim(4, make_abd(4, workloads));

  const FdValue correct_fd = FdValue::of_quorum(ProcessSet{0, 1});
  const FdValue faulty_fd = FdValue::of_quorum(ProcessSet{3});
  const auto between_01 = [](Pid from) { return from == 0 || from == 1; };
  const auto only_self3 = [](Pid from) { return from == 3; };

  // Let 0 and 1 run until the write completes; 3 receives nothing.
  for (int i = 0; i < 40 && sim.reg(0).completed().empty(); ++i) {
    sim.step(0, correct_fd, between_01);
    sim.step(1, correct_fd, between_01);
  }
  ASSERT_EQ(sim.reg(0).completed().size(), 1u);
  EXPECT_EQ(sim.reg(0).completed()[0].tag, (RegTag{1, 0}));

  // Now 3 performs a read against itself only.
  for (int i = 0; i < 20 && sim.reg(3).completed().empty(); ++i) {
    sim.step(3, faulty_fd, only_self3);
  }
  ASSERT_EQ(sim.reg(3).completed().size(), 1u);
  EXPECT_EQ(sim.reg(3).completed()[0].tag, (RegTag{0, -1}));  // initial!

  const auto verdict =
      check_register_atomicity(collect_records(sim.automata()));
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("stale read"), std::string::npos);
}

TEST(AbdSigmaNu, SameConstructionWithIntersectingQuorumsIsAtomic) {
  // Control for the constructed counterexample: give process 3 a quorum
  // that intersects {0,1} and the stale read disappears (3 must wait for
  // 0 or 1, whose reply carries the written tag).
  std::vector<std::vector<RegOp>> workloads(4);
  workloads[0] = {{RegOp::Kind::kWrite, 7}};
  workloads[3] = {{RegOp::Kind::kRead, 0}};
  ManualSim sim(4, make_abd(4, workloads));

  const FdValue correct_fd = FdValue::of_quorum(ProcessSet{0, 1});
  const FdValue sigma_fd = FdValue::of_quorum(ProcessSet{0, 3});
  const auto between_01 = [](Pid from) { return from == 0 || from == 1; };
  const auto any = [](Pid) { return true; };

  for (int i = 0; i < 40 && sim.reg(0).completed().empty(); ++i) {
    sim.step(0, correct_fd, between_01);
    sim.step(1, correct_fd, between_01);
  }
  ASSERT_EQ(sim.reg(0).completed().size(), 1u);

  // 3 needs a reply from 0, so 0 must keep serving; deliver everything.
  for (int i = 0; i < 60 && sim.reg(3).completed().empty(); ++i) {
    sim.step(3, sigma_fd, any);
    sim.step(0, correct_fd, any);
  }
  ASSERT_EQ(sim.reg(3).completed().size(), 1u);
  EXPECT_EQ(sim.reg(3).completed()[0].tag, (RegTag{1, 0}));  // sees the write

  EXPECT_TRUE(check_register_atomicity(collect_records(sim.automata())).ok);
}

TEST(AbdSigmaNu, BenignFaultyModulesStayAtomic) {
  // Control: Sigma^nu with benign faulty modules behaves like Sigma.
  FailurePattern fp(4);
  fp.set_crash(3, 400);
  SigmaNuOptions so;
  so.stabilize_at = 60;
  so.faulty = FaultyQuorumBehavior::kBenign;
  SigmaNuOracle oracle(fp, so);
  SchedulerOptions opts;
  opts.seed = 5;
  opts.max_steps = 120'000;
  const RegisterRunResult result =
      run_register_workload(fp, oracle, alternating_workloads(4, 3), opts);
  EXPECT_TRUE(result.verdict.ok) << result.verdict.detail;
}

TEST(AbdRegister, ReadsSeeCompletedWrites) {
  const FailurePattern fp(3);
  SigmaOptions so;
  SigmaOracle oracle(fp, so);
  SchedulerOptions opts;
  opts.seed = 9;
  opts.max_steps = 60'000;
  const RegisterRunResult result =
      run_register_workload(fp, oracle, alternating_workloads(3, 2), opts);
  ASSERT_TRUE(result.all_correct_done);
  // Every read that followed this client's own write must return a tag at
  // least as large (covered by the checker, but assert the semantics
  // visibly: a client's read right after its own write sees ts >= 1).
  for (const RegOpRecord& r : result.records) {
    if (r.kind == RegOp::Kind::kRead) {
      EXPECT_GE(r.tag.ts, 1);
    }
  }
}

TEST(AbdRegister, ReadReplyWithAFlagAboveOneIsIgnored) {
  // p0 reads with quorum {1}: the first READ_REPLY it accepts from p1
  // completes the query phase and broadcasts the write-back.
  AbdRegister p0(0, 2, {{RegOp::Kind::kRead, 0}});
  const FdValue d = FdValue::of_quorum(ProcessSet{1});
  std::vector<Outgoing> out;
  p0.step(nullptr, d, out);  // READ_QUERY, opid 1
  ASSERT_EQ(out.size(), 2u);

  const auto reply = [](std::uint8_t initial) {
    ByteWriter w;
    w.u8(2);  // READ_REPLY, opid 1, timestamp 3, writer 1
    w.uvarint(1);
    w.uvarint(3);
    w.pid(1);
    w.u8(initial);
    w.svarint(7);
    return w.take();
  };
  const Bytes forged = reply(2);
  const Incoming bad{1, forged};
  out.clear();
  p0.step(&bad, d, out);
  EXPECT_TRUE(out.empty());  // p1 did not join the replied set

  const Bytes genuine = reply(1);
  const Incoming good{1, genuine};
  p0.step(&good, d, out);
  ASSERT_EQ(out.size(), 2u);
  // The write-back: WRITE, opid 2, timestamp 3 and value 7 under the
  // initial writer (-1, sent as 0), so the flag read as true.
  ByteWriter write;
  write.u8(3);
  write.uvarint(2);
  write.uvarint(3);
  write.pid(0);
  write.svarint(7);
  EXPECT_EQ(out[0].payload.get(), write.take());
}

// --- Checker unit tests on handcrafted histories ---------------------------

RegOpRecord op(Pid client, RegOp::Kind kind, Value v, RegTag tag,
               std::int64_t invoked, std::int64_t responded) {
  return RegOpRecord{client, kind, v, tag, invoked, responded};
}

TEST(AtomicityChecker, AcceptsSequentialHistory) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 7, {1, 0}, 1, 5),
      op(1, RegOp::Kind::kRead, 7, {1, 0}, 6, 9),
      op(1, RegOp::Kind::kWrite, 8, {2, 1}, 10, 14),
      op(0, RegOp::Kind::kRead, 8, {2, 1}, 15, 18),
  };
  EXPECT_TRUE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, AcceptsInitialRead) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kRead, 0, {0, -1}, 1, 4),
  };
  EXPECT_TRUE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, RejectsStaleRead) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 7, {1, 0}, 1, 5),
      op(1, RegOp::Kind::kRead, 0, {0, -1}, 6, 9),  // missed the write
  };
  const auto verdict = check_register_atomicity(records);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("stale read"), std::string::npos);
}

TEST(AtomicityChecker, RejectsReadOfUnwrittenTag) {
  const std::vector<RegOpRecord> records = {
      op(1, RegOp::Kind::kRead, 9, {3, 2}, 1, 4),
  };
  EXPECT_FALSE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, RejectsDuplicateWriteTags) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 1, {1, 0}, 1, 3),
      op(0, RegOp::Kind::kWrite, 2, {1, 0}, 4, 6),
  };
  EXPECT_FALSE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, RejectsWriteBehindCompletedOp) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 1, {2, 0}, 1, 3),
      op(1, RegOp::Kind::kWrite, 2, {1, 1}, 5, 8),  // later but smaller tag
  };
  EXPECT_FALSE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, ConcurrentOpsMayOrderFreely) {
  // Overlapping intervals put no constraint between the two ops.
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 1, {2, 0}, 1, 10),
      op(1, RegOp::Kind::kWrite, 2, {1, 1}, 2, 9),
  };
  EXPECT_TRUE(check_register_atomicity(records).ok);
}

TEST(AtomicityChecker, ValueMustMatchTagsWrite) {
  const std::vector<RegOpRecord> records = {
      op(0, RegOp::Kind::kWrite, 1, {1, 0}, 1, 3),
      op(1, RegOp::Kind::kRead, 42, {1, 0}, 4, 6),  // wrong value
  };
  EXPECT_FALSE(check_register_atomicity(records).ok);
}

}  // namespace
}  // namespace nucon
