// Serialization of per-process run results for multi-process execution.
//
// Under runtime::ProcessCluster the process bodies run in forked children,
// so their writes into the launcher's result slots land in copy-on-write
// memory. These codecs turn one slot's results into bytes in the child
// (ResultChannel::encode) and back into the slot's value in the launcher
// (ResultChannel::decode). In-process execution modes never use them —
// the body's direct writes remain the canonical path.
//
// Both ends are forks of one binary, so each stats struct's counter block
// (core/stats.hpp) travels as raw bytes and each of its strings and series
// as a length-prefixed vector, on the same Writer/Reader as every wire
// payload. Truncated input and trailing bytes throw.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rep.hpp"
#include "core/stats.hpp"
#include "core/subrep.hpp"

namespace ccf::core {

std::vector<std::byte> encode_proc_result(const ProcStats& stats);
ProcStats decode_proc_result(const std::vector<std::byte>& bytes);

std::vector<std::byte> encode_rep_result(const RepResult& result);
RepResult decode_rep_result(const std::vector<std::byte>& bytes);

std::vector<std::byte> encode_subrep_result(const SubRepResult& result);
SubRepResult decode_subrep_result(const std::vector<std::byte>& bytes);

}  // namespace ccf::core
