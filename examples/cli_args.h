// Argument parsing shared by the example CLIs.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/apps.h"

namespace faultlab::examples {

/// A count argument: decimal digits only, no sign, no whitespace, no
/// overflow. Anything else is nullopt (atol would silently read "abc" as
/// 0 and wrap "-5" to about 2^64).
inline std::optional<std::uint64_t> parse_count(const char* text) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ptr != end || ec != std::errc{}) return std::nullopt;
  return value;
}

/// Parses argv[index] into *out when it is present; on a malformed value
/// prints "error: ..." and returns false (the caller exits with 2).
inline bool count_arg(int argc, char** argv, int index, const char* what,
                      std::uint64_t* out) {
  if (argc <= index) return true;
  const std::optional<std::uint64_t> value = parse_count(argv[index]);
  if (!value) {
    std::cerr << "error: " << what << " must be a non-negative integer, got '"
              << argv[index] << "'\n";
    return false;
  }
  *out = *value;
  return true;
}

/// The benchmark called `name`, or null after printing "error: ..." (the
/// caller exits with 2).
inline const apps::Benchmark* find_app(const std::string& name) {
  try {
    return &apps::benchmark(name);
  } catch (const std::out_of_range&) {
    std::cerr << "error: unknown app '" << name << "' (";
    const char* sep = "";
    for (const apps::Benchmark& b : apps::all_benchmarks()) {
      std::cerr << sep << b.name;
      sep = "|";
    }
    std::cerr << ")\n";
    return nullptr;
  }
}

}  // namespace faultlab::examples
