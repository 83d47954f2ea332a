// Message and matching types shared by the engine and the optimistic
// rollback log (sim/rollback.hpp). Split out of engine.hpp so the log
// structures can hold Messages and MatchSpecs by value without a circular
// include.
#pragma once

#include <cstdint>

#include "sim/pool.hpp"
#include "support/vtime.hpp"

namespace stgsim::simk {

/// A timestamped message between target processes. Payload holds real data
/// under direct execution; under the analytical model only `wire_bytes` is
/// meaningful and the payload stays empty. `kind` is a protocol-layer
/// discriminator (smpi: eager/RTS/CTS/collective) kept separate from the
/// user-level tag so matching never has to unpack bit fields.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;              ///< user-level tag (protocol kind is `kind`)
  std::uint8_t kind = 0;    ///< protocol-defined discriminator, < 8
  /// Optimistic mode only: this is an anti-message cancelling the positive
  /// message identified by (src, dst, seq). It annihilates its counterpart
  /// from the destination inbox, or triggers a rollback if the counterpart
  /// was already consumed. Never set under the conservative schedulers.
  bool anti = false;
  /// Optimistic mode only: the sender was saving state when it sent this,
  /// so a rollback may still cancel it (DESIGN.md §15.1).
  bool tainted = false;
  VTime sent_at = 0;        ///< virtual time the send was issued
  VTime arrival = 0;        ///< virtual time available at the receiver
  std::uint64_t seq = 0;    ///< per-(src,dst) send order (non-overtaking)
  std::uint64_t aux = 0;    ///< protocol-defined (rendezvous/collective ids)
  std::size_t wire_bytes = 0;
  PayloadBuf payload;       ///< pooled; empty under the analytical model
};

/// Matching rule for a (blocking) receive: plain data compared inline —
/// no std::function, no allocation per probe. The engine applies MPI
/// ordering: for a fixed source, the earliest message in send order that
/// the spec accepts. `any_of` expresses a union of alternatives (waitany):
/// the alternatives array must outlive the spec's use (stack-lived in the
/// blocked fiber is fine).
struct MatchSpec {
  static constexpr int kAnySource = -1;
  static constexpr int kAnyTag = -1;
  static constexpr std::uint8_t kAnyKind = 0xff;

  int src = kAnySource;
  int tag = kAnyTag;               ///< user tag; kAnyTag accepts all
  std::uint8_t kind_mask = kAnyKind;  ///< bit per accepted Message::kind
  bool match_aux = false;          ///< when set, require aux equality
  std::uint64_t aux = 0;

  const MatchSpec* any_of = nullptr;  ///< union of alternatives (waitany)
  std::uint32_t any_of_count = 0;

  // Diagnostic labels surfaced by the deadlock detector (never used for
  // matching): what operation is blocked and on which user-level tag.
  const char* what = "recv";  ///< e.g. "recv", "rendezvous-cts", "waitany"
  int user_tag = -1;          ///< user-level tag; -1 = wildcard/unknown

  bool accepts(const Message& m) const {
    if (any_of != nullptr) {
      for (std::uint32_t i = 0; i < any_of_count; ++i) {
        if (any_of[i].accepts(m)) return true;
      }
      return false;
    }
    if (src != kAnySource && src != m.src) return false;
    if ((kind_mask & static_cast<std::uint8_t>(1u << m.kind)) == 0) {
      return false;
    }
    if (tag != kAnyTag && tag != m.tag) return false;
    if (match_aux && aux != m.aux) return false;
    return true;
  }

  /// True when the choice of message can depend on scheduling order: the
  /// spec accepts more than one source (ANY_SOURCE, or a waitany union).
  /// Such receives may only commit under the engine's safety bound.
  bool is_wildcard() const {
    return src == kAnySource || any_of != nullptr;
  }
};

}  // namespace stgsim::simk
