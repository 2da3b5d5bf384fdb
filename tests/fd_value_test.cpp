#include "util/fd_value.hpp"

#include <gtest/gtest.h>

namespace nucon {
namespace {

TEST(FdValue, EmptyHasNothing) {
  const FdValue v;
  EXPECT_FALSE(v.has_leader());
  EXPECT_FALSE(v.has_quorum());
  EXPECT_FALSE(v.has_suspects());
}

TEST(FdValue, LeaderOnly) {
  const FdValue v = FdValue::of_leader(3);
  EXPECT_TRUE(v.has_leader());
  EXPECT_EQ(v.leader(), 3);
  EXPECT_FALSE(v.has_quorum());
}

TEST(FdValue, QuorumOnly) {
  const FdValue v = FdValue::of_quorum(ProcessSet{1, 2});
  EXPECT_TRUE(v.has_quorum());
  EXPECT_EQ(v.quorum(), (ProcessSet{1, 2}));
}

TEST(FdValue, SuspectsOnly) {
  const FdValue v = FdValue::of_suspects(ProcessSet{0});
  EXPECT_TRUE(v.has_suspects());
  EXPECT_EQ(v.suspects(), ProcessSet{0});
}

TEST(FdValue, CombineDisjointComponents) {
  const FdValue pair = FdValue::combine(FdValue::of_leader(1),
                                        FdValue::of_quorum(ProcessSet{1, 2}));
  EXPECT_TRUE(pair.has_leader());
  EXPECT_TRUE(pair.has_quorum());
  EXPECT_EQ(pair.leader(), 1);
  EXPECT_EQ(pair.quorum(), (ProcessSet{1, 2}));
  EXPECT_FALSE(pair.has_suspects());
}

TEST(FdValue, CombineRightOverridesLeft) {
  const FdValue v = FdValue::combine(FdValue::of_leader(1), FdValue::of_leader(2));
  EXPECT_EQ(v.leader(), 2);
}

TEST(FdValue, Equality) {
  EXPECT_EQ(FdValue::of_leader(1), FdValue::of_leader(1));
  EXPECT_NE(FdValue::of_leader(1), FdValue::of_leader(2));
  EXPECT_NE(FdValue::of_leader(1), FdValue::of_quorum(ProcessSet{1}));
  EXPECT_EQ(FdValue{}, FdValue{});
}

TEST(FdValue, EncodeDecodeRoundTrip) {
  FdValue all;
  all.set_leader(5);
  all.set_quorum(ProcessSet{0, 5, 9});
  all.set_suspects(ProcessSet{1});

  for (const FdValue& v :
       {FdValue{}, FdValue::of_leader(0), FdValue::of_quorum(ProcessSet{}),
        FdValue::of_suspects(ProcessSet{63}), all}) {
    ByteWriter w;
    v.encode(w, 64);
    const Bytes buf = w.take();
    ByteReader r(buf);
    const auto got = FdValue::decode(r, 64);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(FdValue, DecodeRejectsBadFlags) {
  Bytes data = {0xFF};
  ByteReader r(data);
  EXPECT_FALSE(FdValue::decode(r, 64));
}

TEST(FdValue, DecodeRejectsTruncated) {
  ByteWriter w;
  FdValue::of_quorum(ProcessSet{1}).encode(w, 64);
  Bytes data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_FALSE(FdValue::decode(r, 64));
}

TEST(FdValue, ToStringMentionsComponents) {
  FdValue v;
  v.set_leader(2);
  v.set_quorum(ProcessSet{0, 1});
  const std::string s = v.to_string();
  EXPECT_NE(s.find("leader=2"), std::string::npos);
  EXPECT_NE(s.find("quorum={0,1}"), std::string::npos);
}

}  // namespace
}  // namespace nucon
