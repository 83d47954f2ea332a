// Deterministic fault injection for simulated runs.
//
// Production HPC simulators treat failure and resource exhaustion as
// first-class simulated phenomena; a simulator that can only model healthy
// machines cannot answer the questions (time-to-solution under a straggler
// node, collective behaviour over a degraded link) that motivate studying
// scales one cannot measure directly. A FaultPlan is a declarative, seeded
// description of the non-ideal conditions to inject into a run:
//
//   * link degradation  — latency/bandwidth multipliers on (src, dst)
//                         pairs over virtual-time windows;
//   * compute slowdown  — per-rank straggler factors over windows, applied
//                         to every compute/delay charge;
//   * NIC brownouts     — per-rank injection-rate reduction windows;
//   * eager-message drop— seeded loss of eager transfers with a modeled
//                         retransmission timeout and exponential backoff.
//
// All effects are pure functions of (plan, virtual time, sender RNG
// stream), so a run with the same seed and the same plan is bit-identical
// across the sequential and threaded conservative schedulers. Faults only
// ever *slow* traffic and computation — latency factors are >= 1 and
// bandwidth/injection factors are <= 1 — so the network's minimum-latency
// wildcard-safety bound remains a valid lower bound under any plan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/vtime.hpp"

namespace stgsim::fault {

inline constexpr int kAnyRank = -1;

/// Half-open virtual-time window [from, until).
struct Window {
  VTime from = 0;
  VTime until = kVTimeNever;

  bool contains(VTime t) const { return t >= from && t < until; }
};

/// Degrades traffic on matching (src, dst) links inside the window.
struct LinkDegradation {
  int src = kAnyRank;  ///< sending rank; kAnyRank matches every sender
  int dst = kAnyRank;  ///< receiving rank; kAnyRank matches every receiver
  Window window;
  double latency_factor = 1.0;    ///< multiplies wire latency (>= 1)
  double bandwidth_factor = 1.0;  ///< multiplies bandwidth (0 < f <= 1)
};

/// A straggler: matching ranks run computation `factor` times slower
/// inside the window.
struct ComputeSlowdown {
  int rank = kAnyRank;
  Window window;
  double factor = 1.0;  ///< >= 1
};

/// NIC brownout: a rank's NIC injects at `injection_factor` of its nominal
/// rate inside the window (applies to everything the rank sends).
struct NicBrownout {
  int rank = kAnyRank;
  Window window;
  double injection_factor = 1.0;  ///< 0 < f <= 1
};

/// Seeded loss of eager messages. A dropped message is retransmitted after
/// `retransmit_timeout`, doubling (backoff_factor) per attempt; after
/// `max_retries` drops the transfer goes through regardless, so injected
/// loss degrades a run but can never wedge it.
struct EagerDrop {
  double drop_prob = 0.0;  ///< per-transmission loss probability, [0, 1)
  VTime retransmit_timeout = vtime_from_us(500);
  double backoff_factor = 2.0;  ///< >= 1
  int max_retries = 8;          ///< >= 0

  bool enabled() const { return drop_prob > 0.0; }
};

/// A full deterministic fault schedule for one run.
struct FaultPlan {
  std::vector<LinkDegradation> links;
  std::vector<ComputeSlowdown> stragglers;
  std::vector<NicBrownout> brownouts;
  EagerDrop eager_drop;

  bool empty() const {
    return links.empty() && stragglers.empty() && brownouts.empty() &&
           !eager_drop.enabled();
  }

  /// Throws CheckError when any factor is outside its legal range (which
  /// would break the wildcard-safety lower bound or stall progress).
  void validate() const;

  // -- Aggregate factors at virtual time t (overlapping windows multiply) --

  double latency_factor(int src, int dst, VTime t) const;
  double bandwidth_factor(int src, int dst, VTime t) const;
  double injection_factor(int rank, VTime t) const;
  double compute_factor(int rank, VTime t) const;

  /// Virtual time a compute charge of `work` takes for `rank` starting at
  /// `start`, integrating piecewise across slowdown-window boundaries.
  VTime stretch_compute(int rank, VTime start, VTime work) const;

  /// Factor by which the plan provably raises *every* wire latency: the
  /// product of latency factors over clauses that match all traffic at all
  /// times (src = dst = kAnyRank, window [0, never)). Always >= 1. The
  /// wildcard safety bound multiplies the network latency floor by this;
  /// clauses scoped to specific links or time
  /// windows contribute nothing (they cannot raise the floor for traffic
  /// they do not cover).
  double latency_floor_factor() const;

  /// Draws the number of times an eager transmission is lost before one
  /// gets through (0 when drop injection is off). Consumes exactly one
  /// uniform variate per attempt from `rng` — callers pass the sender's
  /// per-process stream so draws replay identically across schedulers.
  int draw_eager_drops(Rng& rng) const;

  /// Added delivery delay for a transfer dropped `drops` times:
  /// sum of the (backed-off) retransmission timeouts.
  VTime retransmission_delay(int drops) const;

  /// Canonical spec string; parse_fault_plan(to_string()) round-trips.
  std::string to_string() const;
};

/// Parses the CLI fault-plan syntax: semicolon-separated clauses, each
/// `kind:key=value,...` with times in (fractional) seconds, e.g.
///   link:src=0,dst=1,latency=4,bandwidth=0.25,from=0,until=0.5;
///   straggler:rank=2,factor=2.5;brownout:rank=1,injection=0.1;
///   drop:prob=0.01,timeout=0.0005,backoff=2,retries=8
/// Throws std::runtime_error on malformed specs, CheckError on bad ranges.
FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace stgsim::fault
