#include "fd/impl/host.hpp"

namespace nucon {
namespace {

constexpr std::uint8_t kChannelFd = 0;
constexpr std::uint8_t kChannelInner = 1;

}  // namespace

FdHost::FdHost(Pid self, Pid n, HeartbeatMode mode,
               const HeartbeatOptions& opts, std::shared_ptr<FdBoard> board,
               std::unique_ptr<ConsensusAutomaton> inner)
    : hb_(self, n, mode, opts),
      inner_(std::move(inner)),
      board_(std::move(board)) {}

void FdHost::step(const Incoming* in, const FdValue& d,
                  std::vector<Outgoing>& out) {
  mux_.step(in, hb_, kChannelFd, d, out);
  board_->publish(hb_.self(), hb_.output());
  mux_.step(in, *inner_, kChannelInner, d, out);
}

HostedConsensus make_hosted_consensus(ConsensusFactory inner, Pid n,
                                      HeartbeatMode mode,
                                      HeartbeatOptions opts) {
  // Every module starts with an empty suspect set, so the initial board is
  // the mode's nobody-suspected output (leader 0 / no suspects).
  const FdValue initial = HeartbeatFd(0, n, mode, opts).output();
  auto board = std::make_shared<FdBoard>(n, initial);
  ConsensusFactory factory = [inner = std::move(inner), n, mode, opts,
                              board](Pid p, Value proposal) {
    return std::make_unique<FdHost>(p, n, mode, opts, board,
                                    inner(p, proposal));
  };
  return HostedConsensus{std::move(factory), std::move(board)};
}

}  // namespace nucon
