// Binary checkpointing of module parameters and buffers.
//
// Format: magic, version, entry count, then per entry: name, rank, dims,
// float payload. Entries are matched by name on load; shape mismatches are
// errors. Used by the bench harnesses to cache trained models between runs.
#pragma once

#include <string>

#include "nn/module.h"

namespace fitact::nn {

/// Write all parameters and buffers of `m` to `path`.
/// Throws std::runtime_error on I/O failure.
void save_state(const Module& m, const std::string& path);

/// Load parameters and buffers by name into `m`. The file must hold every
/// entry of `m` exactly once, with matching shapes.
/// Returns false (leaving `m` untouched) if the file does not exist;
/// throws std::runtime_error (also leaving `m` untouched) on malformed or
/// truncated files, name/shape mismatches, and missing or repeated entries.
bool load_state(Module& m, const std::string& path);

/// In-memory save/load round trip: copy every parameter and buffer of `src`
/// into the same-named entry of `dst`. The two modules must expose exactly
/// the same names with matching shapes; throws std::runtime_error otherwise.
/// Used to stamp out value-identical model replicas (parallel campaigns).
void copy_state(const Module& src, Module& dst);

}  // namespace fitact::nn
