// Wire format of Algorithm 1.
//
// One broadcast per update, carrying the update and its (clock, pid)
// timestamp — the only network traffic the construction needs (Section
// VII-C: "a unique message is broadcast for each update and each message
// only contains the information to identify the update and a timestamp
// composed of two integer values"). The message is exactly that: the
// stability tracker's acks ride on the store's envelopes, not here, and
// the UDP codec (net/wire.hpp) writes the two integers as varints.
#pragma once

#include <cstddef>

#include "adt/concepts.hpp"
#include "clock/timestamp.hpp"

namespace ucw {

template <UqAdt A>
struct UpdateMessage {
  Stamp stamp;
  typename A::Update update;
};

/// Approximate wire size in bytes, for the message-complexity benches:
/// two varint-ish integers for the stamp plus the payload estimate.
template <UqAdt A>
[[nodiscard]] std::size_t wire_size(const UpdateMessage<A>& m) {
  return sizeof(m.stamp.clock) + sizeof(m.stamp.pid) +
         sizeof(typename A::Update);
}

}  // namespace ucw
