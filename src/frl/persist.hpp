#pragma once

/// \file persist.hpp
/// Minimal binary persistence helpers behind FederatedSystem::save() and
/// load(): length-prefixed float vectors plus scalar counters,
/// with a magic/version header so stale files fail loudly.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "federated/round_engine.hpp"

namespace frlfi::persist {

/// Write the "FRLS" header with a format version.
void write_header(std::ostream& os, std::uint32_t version);

/// Read and validate the header; returns the version. Throws Error on a
/// bad magic or truncated stream.
std::uint32_t read_header(std::istream& is);

/// Write a u64 scalar.
void write_u64(std::ostream& os, std::uint64_t v);

/// Read a u64 scalar; throws Error on truncation.
std::uint64_t read_u64(std::istream& is);

/// Write a length-prefixed float vector.
void write_floats(std::ostream& os, const std::vector<float>& v);

/// Read a length-prefixed float vector; throws Error on truncation or an
/// implausible length.
std::vector<float> read_floats(std::istream& is);

/// Write/read the engine-side training state: timeline counters, pending
/// server fault, staleness buffer and the §V-A mitigation history — the
/// piece version-1 files could not carry. Version 3 adds the channel's
/// persistent transmit sequence number, which keys the bursty-channel and
/// retry noise streams, so a resumed campaign replays the same channel
/// weather. Writing always emits the version-3 layout; `version` tells
/// the reader which fields the file carries (version-2 files load with
/// channel_seq = 0, the pre-bursty behaviour). `n_agents` bounds the
/// monitor vectors on read.
void write_training_state(std::ostream& os,
                          const FederatedRoundEngine::TrainingState& state);
FederatedRoundEngine::TrainingState read_training_state(std::istream& is,
                                                        std::size_t n_agents,
                                                        std::uint32_t version);

}  // namespace frlfi::persist
