// The step kernel every executor takes (sim/step.hpp: delivery plus
// message naming) and the channel multiplexer every stacked automaton
// shares its link through (ChannelMux, sim/automaton.hpp).
#include "sim/step.hpp"

#include <gtest/gtest.h>

namespace nucon {
namespace {

/// Records what each step receives and sends `reply` on every step.
class Probe final : public Automaton {
 public:
  struct Seen {
    bool lambda = true;
    Pid from = -1;
    Bytes payload;
    const std::uint8_t* data = nullptr;  // where the payload view starts
    const SharedBytes* shared = nullptr;
  };

  void step(const Incoming* in, const FdValue& /*d*/,
            std::vector<Outgoing>& out) override {
    Seen s;
    if (in != nullptr) {
      s.lambda = false;
      s.from = in->from;
      s.payload.assign(in->payload.begin(), in->payload.end());
      s.data = in->payload.data();
      s.shared = in->shared;
    }
    seen.push_back(std::move(s));
    out.insert(out.end(), reply.begin(), reply.end());
  }

  std::vector<Seen> seen;
  std::vector<Outgoing> reply;
};

Message message_from(Pid sender, Bytes payload) {
  Message m;
  m.id = MsgId{sender, 1};
  m.to = 0;
  m.payload = SharedBytes(std::move(payload));
  return m;
}

TEST(StepKernel, NamesTheKthSendOfPAsPK) {
  SendNamer namer(3);
  std::vector<MsgId> ids;
  // p0 broadcasts, p1 sends once, p0 sends again: counts are per sender,
  // across all destinations, from 1.
  for (Pid to = 0; to < 3; ++to) ids.push_back(namer.name(0, {to, {}}, 1).id);
  ids.push_back(namer.name(1, {0, {}}, 2).id);
  ids.push_back(namer.name(0, {2, {}}, 3).id);
  const std::vector<MsgId> want = {{0, 1}, {0, 2}, {0, 3}, {1, 1}, {0, 4}};
  EXPECT_EQ(ids, want);
}

TEST(StepKernel, StampsSendAndReadyTimeWithTheStepTime) {
  SendNamer namer(2);
  const Message m = namer.name(1, {0, SharedBytes(Bytes{5, 6})}, 42);
  EXPECT_EQ(m.to, 0);
  EXPECT_EQ(m.sent_at, 42);
  EXPECT_EQ(m.ready_at, 42);
  EXPECT_EQ(m.payload, (Bytes{5, 6}));
}

TEST(StepKernel, DeliversTheSenderAndTheSharedPayload) {
  Probe a;
  a.reply = {{1, SharedBytes(Bytes{9})}};
  const std::optional<Message> m = message_from(2, Bytes{3, 4});
  std::vector<Outgoing> sends = {{0, {}}, {1, {}}};  // replaced, not kept
  deliver(a, m, FdValue{}, sends);
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_FALSE(a.seen[0].lambda);
  EXPECT_EQ(a.seen[0].from, 2);
  EXPECT_EQ(a.seen[0].payload, (Bytes{3, 4}));
  EXPECT_EQ(a.seen[0].shared, &m->payload);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].to, 1);
}

TEST(StepKernel, NoMessageIsLambda) {
  Probe a;
  std::vector<Outgoing> sends;
  deliver(a, std::nullopt, FdValue{}, sends);
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_TRUE(a.seen[0].lambda);
  EXPECT_TRUE(sends.empty());
}

/// One step of a two-component composition on channels 0 and 1.
void mux_step(ChannelMux& mux, const Incoming* in, Probe& c0, Probe& c1,
              std::vector<Outgoing>& out) {
  mux.step(in, c0, 0, FdValue{}, out);
  mux.step(in, c1, 1, FdValue{}, out);
}

TEST(ChannelMux, RoutesAMessageOnlyToItsChannel) {
  ChannelMux mux;
  Probe c0;
  Probe c1;
  std::vector<Outgoing> out;
  const Bytes wire = {1, 7, 8};
  const Incoming in{2, wire};
  mux_step(mux, &in, c0, c1, out);
  mux_step(mux, nullptr, c0, c1, out);  // must not replay the message
  ASSERT_EQ(c0.seen.size(), 2u);
  ASSERT_EQ(c1.seen.size(), 2u);
  EXPECT_TRUE(c0.seen[0].lambda);
  EXPECT_FALSE(c1.seen[0].lambda);
  EXPECT_EQ(c1.seen[0].from, 2);
  EXPECT_EQ(c1.seen[0].payload, (Bytes{7, 8}));
  EXPECT_TRUE(c0.seen[1].lambda);
  EXPECT_TRUE(c1.seen[1].lambda);
}

TEST(ChannelMux, HandsTheComponentAViewOfTheDeliveredBuffer) {
  ChannelMux mux;
  Probe c0;
  Probe c1;
  std::vector<Outgoing> out;
  const SharedBytes wire(Bytes{1, 7, 8});
  const Incoming in{2, wire.get(), &wire};
  mux_step(mux, &in, c0, c1, out);
  ASSERT_EQ(c1.seen.size(), 1u);
  EXPECT_EQ(c1.seen[0].payload, (Bytes{7, 8}));
  // No copy: the view starts at the buffer's byte 1, and the component
  // gets the buffer itself, so it shares the buffer's decode.
  EXPECT_EQ(c1.seen[0].data, wire.get().data() + 1);
  EXPECT_EQ(c1.seen[0].shared, &wire);
}

TEST(ChannelMux, EmptyPayloadOrUnknownChannelIsLambdaForAll) {
  for (const Bytes& wire : {Bytes{}, Bytes{0x7F, 1, 2}, Bytes{2}}) {
    ChannelMux mux;
    Probe c0;
    Probe c1;
    std::vector<Outgoing> out;
    const Incoming in{1, wire};
    mux_step(mux, &in, c0, c1, out);
    for (const Probe* c : {&c0, &c1}) {
      ASSERT_EQ(c->seen.size(), 1u);
      EXPECT_TRUE(c->seen[0].lambda) << wire.size();
    }
  }
}

TEST(ChannelMux, PrefixesEachSendWithItsComponentsChannel) {
  ChannelMux mux;
  Probe c0;
  Probe c1;
  c0.reply = {{2, SharedBytes(Bytes{5})}};
  c1.reply = {{0, SharedBytes(Bytes{6, 7})}, {1, SharedBytes(Bytes{})}};
  std::vector<Outgoing> out;
  mux_step(mux, nullptr, c0, c1, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].to, 2);
  EXPECT_EQ(out[0].payload, (Bytes{0, 5}));
  EXPECT_EQ(out[1].to, 0);
  EXPECT_EQ(out[1].payload, (Bytes{1, 6, 7}));
  EXPECT_EQ(out[2].to, 1);
  EXPECT_EQ(out[2].payload, (Bytes{1}));
}

TEST(ChannelMux, FramesTheSharesOfOneBroadcastOnce) {
  ChannelMux mux;
  Probe c0;
  Probe c1;
  broadcast(3, SharedBytes(Bytes{4, 4}), c1.reply);
  std::vector<Outgoing> out;
  mux_step(mux, nullptr, c0, c1, out);
  ASSERT_EQ(out.size(), 3u);
  for (Pid q = 0; q < 3; ++q) {
    EXPECT_EQ(out[static_cast<std::size_t>(q)].to, q);
    EXPECT_EQ(out[static_cast<std::size_t>(q)].payload, (Bytes{1, 4, 4}));
    EXPECT_EQ(out[static_cast<std::size_t>(q)].payload.raw(), out[0].payload.raw());
  }
}

}  // namespace
}  // namespace nucon
