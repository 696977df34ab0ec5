//===- net/TokenBucket.h - Per-tenant rate limiting ------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic token bucket: capacity `Burst` tokens, refilled at `Rate`
/// tokens per second, one token per admitted request. The caller passes
/// the clock in (steady_clock::now() in production, a synthetic clock
/// in tests), so quota behavior is unit-testable without sleeping.
/// Buckets start full — a tenant's first burst is admitted even at low
/// sustained rates, which is the behavior operators expect.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_NET_TOKENBUCKET_H
#define GNT_NET_TOKENBUCKET_H

#include <chrono>

namespace gnt::net {

class TokenBucket {
public:
  using Clock = std::chrono::steady_clock;

  TokenBucket(double RatePerSec, double Burst, Clock::time_point Now)
      : Rate(RatePerSec), Burst(Burst < 1 ? 1 : Burst),
        Tokens(this->Burst), Last(Now) {}

  /// Takes one token if available after refilling up to \p Now.
  bool tryTake(Clock::time_point Now) {
    refill(Now);
    if (Tokens < 1.0)
      return false;
    Tokens -= 1.0;
    return true;
  }

  double tokens() const { return Tokens; }

  /// True once the bucket has refilled to its burst by \p Now: it then
  /// behaves exactly like a freshly created one.
  bool isFull(Clock::time_point Now) {
    refill(Now);
    return Tokens >= Burst;
  }

private:
  void refill(Clock::time_point Now) {
    if (Now <= Last)
      return;
    double Elapsed = std::chrono::duration<double>(Now - Last).count();
    Last = Now;
    Tokens += Elapsed * Rate;
    if (Tokens > Burst)
      Tokens = Burst;
  }

  double Rate;
  double Burst;
  double Tokens;
  Clock::time_point Last;
};

} // namespace gnt::net

#endif // GNT_NET_TOKENBUCKET_H
