// The verbatim definition the model checker is tested against: a
// breadth-first search over restore and step that dedups on the full bytes
// of each configuration (every process's section and counters, then the
// in-flight messages in (to, sender, seq) order with their payload bytes)
// in a std::set. No hashing, no interning, no memo, no partial-order
// reduction. Only the public automaton interface is used.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "check/model_checker.hpp"

namespace nucon::testref {

struct McReference {
  /// Distinct configurations reached within the depth bound (the root
  /// counts), up to the layer of the first violation.
  std::size_t distinct = 0;
  bool violation_found = false;
  /// Depth of the shallowest configuration in which two processes decided
  /// differently (valid when violation_found).
  int violation_depth = -1;
};

namespace detail {

struct RefWire {
  Pid to = -1;
  Pid sender = -1;
  std::uint64_t seq = 0;
  Bytes payload;

  friend auto operator<=>(const RefWire& a, const RefWire& b) {
    return std::tie(a.to, a.sender, a.seq) <=> std::tie(b.to, b.sender, b.seq);
  }
  friend bool operator==(const RefWire& a, const RefWire& b) {
    return std::tie(a.to, a.sender, a.seq) == std::tie(b.to, b.sender, b.seq);
  }
};

struct RefConfig {
  std::vector<Bytes> sections;
  std::vector<int> own_steps;
  std::vector<std::uint64_t> sent;
  std::vector<std::optional<Value>> decisions;  // a function of sections
  std::vector<RefWire> wires;                   // sorted

  [[nodiscard]] Bytes encode() const {
    ByteWriter w;
    for (std::size_t p = 0; p < sections.size(); ++p) {
      w.bytes(sections[p]);
      w.uvarint(static_cast<std::uint64_t>(own_steps[p]));
      w.uvarint(sent[p]);
    }
    w.uvarint(wires.size());
    for (const RefWire& m : wires) {
      w.pid(m.to);
      w.pid(m.sender);
      w.uvarint(m.seq);
      w.bytes(m.payload);
    }
    return w.take();
  }

  [[nodiscard]] bool disagrees() const {
    for (const auto& a : decisions) {
      for (const auto& b : decisions) {
        if (a && b && *a != *b) return true;
      }
    }
    return false;
  }
};

}  // namespace detail

/// Every configuration reachable from the initial one in at most
/// opts.max_depth steps, counted once; the search stops after the first
/// layer that holds a violation.
inline McReference reference_search(const McOptions& opts) {
  using detail::RefConfig;
  using detail::RefWire;
  const auto n = static_cast<std::size_t>(opts.n);
  McReference out;

  RefConfig root;
  for (Pid p = 0; p < opts.n; ++p) {
    const auto a = opts.make(p, opts.proposals[static_cast<std::size_t>(p)]);
    root.sections.push_back(*a->snapshot());
    root.decisions.push_back(a->decision());
  }
  root.own_steps.assign(n, 0);
  root.sent.assign(n, 0);

  std::set<Bytes> seen{root.encode()};
  std::vector<RefConfig> layer{root};
  if (root.disagrees()) {
    out.distinct = 1;
    out.violation_found = true;
    out.violation_depth = 0;
    return out;
  }
  std::vector<Outgoing> sends;
  for (int depth = 1; depth <= opts.max_depth && !layer.empty(); ++depth) {
    std::vector<RefConfig> next;
    for (const RefConfig& cfg : layer) {
      for (Pid p = 0; p < opts.n; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        // Lambda, then every pending message to p.
        std::vector<std::optional<std::size_t>> options{std::nullopt};
        for (std::size_t i = 0; i < cfg.wires.size(); ++i) {
          if (cfg.wires[i].to == p) options.emplace_back(i);
        }
        for (const auto& option : options) {
          RefConfig child = cfg;
          const auto a = opts.make(p, opts.proposals[pi]);
          if (!a->restore(cfg.sections[pi])) {
            throw std::logic_error("restore refused its own save_state");
          }
          const FdValue d = opts.fd(p, ++child.own_steps[pi]);
          sends.clear();
          if (option) {
            const RefWire& m = cfg.wires[*option];
            const Incoming in{m.sender, m.payload};
            a->step(&in, d, sends);
            child.wires.erase(child.wires.begin() +
                              static_cast<std::ptrdiff_t>(*option));
          } else {
            a->step(nullptr, d, sends);
          }
          for (const Outgoing& o : sends) {
            child.wires.push_back(
                RefWire{o.to, p, ++child.sent[pi], o.payload.get()});
          }
          std::sort(child.wires.begin(), child.wires.end());
          child.sections[pi] = *a->snapshot();
          child.decisions[pi] = a->decision();
          if (!seen.insert(child.encode()).second) continue;
          if (child.disagrees() && !out.violation_found) {
            out.violation_found = true;
            out.violation_depth = depth;
          }
          next.push_back(std::move(child));
        }
      }
    }
    if (out.violation_found) break;
    layer = std::move(next);
  }
  out.distinct = seen.size();
  return out;
}

}  // namespace nucon::testref
