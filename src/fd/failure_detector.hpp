// Abstract failure detectors (paper §2.3).
//
// A failure detector D maps a failure pattern F to a set of histories
// H : Pi x N -> R. An Oracle below *is* one such history, fixed lazily: it
// answers "what does p's module output at time t" deterministically (the
// same (p, t) always yields the same value), so the function it computes is
// a single H, and concrete oracles guarantee H is in D(F) for their class.
//
// Stabilization boundary convention: every generated oracle with a
// `stabilize_at` option (omega.cpp, classic.cpp, sigma.cpp, sigma_nu.cpp,
// sigma_nu_plus.cpp) treats the boundary as INCLUSIVE — the module output
// at t == stabilize_at is already the stable (post-convergence) value, and
// t == stabilize_at - 1 is the last tick that may show adversarial warmup
// noise. Equivalently: `t >= stabilize_at` selects the stable branch, and
// `stabilize_at == 0` means stable from the first queried tick (the
// scheduler's clock starts at 1). oracle_boundary_test.cpp pins this table
// for all five files.
//
// State: an oracle may cache, but never changes an answer. The Sigma-family
// oracles keep a per-process memo of their last quorum window (WindowMemo,
// oracle_base.hpp), so value() is not const and one oracle must not be
// queried from two threads at once; its answers are still exactly the
// stateless function of (p, t), whatever the query order.
#pragma once

#include "sim/failure_pattern.hpp"
#include "util/fd_value.hpp"

namespace nucon {

class Oracle {
 public:
  virtual ~Oracle() = default;

  Oracle() = default;
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// The value H(p, t). Only queried for p alive at t (the model never
  /// lets a crashed process take a step), but implementations must still
  /// be well-defined for any (p, t) since histories are total functions.
  [[nodiscard]] virtual FdValue value(Pid p, Time t) = 0;
};

}  // namespace nucon
