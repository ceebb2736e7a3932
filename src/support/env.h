// Centralized environment-variable parsing.
//
// Every FAULTLAB_* knob used to hand-roll its own strtol/strtoull/strcmp
// parse, with inconsistent error handling: some call sites silently fell
// back on garbage, some accepted trailing junk ("16abc" parsed as 16), and
// none but FAULTLAB_TRIALS rejected overflow. These helpers give all of
// them the endptr-checked, ERANGE-checked, warn-on-stderr behaviour that
// FAULTLAB_TRIALS pioneered, so a typo'd variable is loudly ignored
// instead of silently misconfiguring a campaign.
#pragma once

#include <cstdint>

namespace faultlab::support {

/// Parses env var `name` as a non-negative decimal integer. Returns
/// `fallback` silently when the variable is unset, and with a one-line
/// stderr warning when the value is empty, has trailing garbage, is
/// negative, overflows 64 bits, or is below `min` (pass min = 1 to reject
/// an unintended zero).
std::uint64_t parse_env_u64(const char* name, std::uint64_t fallback,
                            std::uint64_t min = 0);

/// Parses env var `name` as a finite decimal floating-point value in
/// [min, max]. Returns `fallback` silently when the variable is unset, and
/// with a one-line stderr warning when the value is empty, has trailing
/// garbage, is not finite, or falls outside the closed [min, max] range.
double parse_env_double(const char* name, double fallback, double min,
                        double max);

/// Parses env var `name` as a boolean switch. Unset or empty returns
/// `fallback`; the literal "0" returns false; any other value returns
/// true. (Matches the historical semantics of FAULTLAB_METRICS,
/// FAULTLAB_PROGRESS, and FAULTLAB_PROP.)
bool parse_env_flag(const char* name, bool fallback);

/// Reads env var `name` as a string. Returns nullptr when the variable is
/// unset or empty, so call sites get one canonical "not configured" state
/// instead of each re-checking both conditions. The returned pointer
/// aliases the process environment and stays valid for the process
/// lifetime (faultlab never calls setenv).
const char* parse_env_string(const char* name);

/// Parses env var `name` against a closed set of `count` choices. Returns
/// the index of the matching choice, or `fallback` (also an index) when
/// the variable is unset, empty, or — with a one-line stderr warning
/// listing the valid values — not one of the choices.
std::size_t parse_env_choice(const char* name, const char* const* choices,
                             std::size_t count, std::size_t fallback);

}  // namespace faultlab::support
