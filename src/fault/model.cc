#include "fault/model.h"

#include <cstdio>
#include <cstdlib>

#include "support/bitutil.h"
#include "support/env.h"

namespace faultlab::fault {
namespace {

constexpr unsigned kMaxBurst = 64;

bool parse_uint(const std::string& text, unsigned* out) {
  if (text.empty()) return false;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (~0u - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  *out = value;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Decodes a canonical display name (as produced by Model::name() and
// printed in CSVs) back into a model: kind stem plus the optional
// -m<bits>/-byte and -time suffixes, stripped right to left.
bool parse_name(const std::string& name, Model* model) {
  std::string label = name;
  const auto strip_suffix = [&label](const std::string& suffix) {
    if (label.size() > suffix.size() &&
        label.compare(label.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      label.erase(label.size() - suffix.size());
      return true;
    }
    return false;
  };
  if (strip_suffix("-time")) model->trigger = FaultTrigger::Time;
  if (strip_suffix("-byte")) {
    model->mask = FaultMask::Byte;
  } else {
    const std::size_t m = label.rfind("-m");
    unsigned bits = 0;
    if (m != std::string::npos && parse_uint(label.substr(m + 2), &bits) &&
        bits >= 2 && bits <= FaultPlan::kMaxBits) {
      model->mask = FaultMask::MultiBit;
      model->mask_bits = bits;
      label.erase(m);
    }
  }
  if (label == "transient") {
    model->kind = FaultKind::Transient;
    return true;
  }
  if (label == "stuck-at-0" || label == "stuck-at-1") {
    model->kind = FaultKind::Permanent;
    model->stuck_value = label == "stuck-at-1";
    return true;
  }
  constexpr const char* kIntermittentStem = "intermittent-b";
  if (label.rfind(kIntermittentStem, 0) == 0) {
    const std::string rest = label.substr(std::string(kIntermittentStem).size());
    const std::size_t g = rest.find('g');
    unsigned burst = 0, gap = 0;
    if (g != std::string::npos && parse_uint(rest.substr(0, g), &burst) &&
        parse_uint(rest.substr(g + 1), &gap) && burst >= 1 &&
        burst <= kMaxBurst && gap <= kMaxBurst) {
      model->kind = FaultKind::Intermittent;
      model->burst_length = burst;
      model->burst_gap = gap;
      return true;
    }
  }
  return false;
}

bool parse_into(const std::string& spec, Model* model, std::string* error) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "transient") {
    model->kind = FaultKind::Transient;
  } else if (kind == "intermittent") {
    model->kind = FaultKind::Intermittent;
  } else if (kind == "stuck-at-0") {
    model->kind = FaultKind::Permanent;
    model->stuck_value = false;
  } else if (kind == "stuck-at-1" || kind == "permanent") {
    model->kind = FaultKind::Permanent;
    model->stuck_value = true;
  } else {
    // Not a spec-grammar kind: accept canonical names ("intermittent-b4g1",
    // "transient-m2") so a model printed in a CSV can be fed straight back
    // into FAULTLAB_FAULT_MODEL. Names never carry options.
    if (colon == std::string::npos && parse_name(spec, model)) return true;
    return fail(error, "unknown fault kind '" + kind + "'");
  }
  if (colon == std::string::npos) return true;

  std::string options = spec.substr(colon + 1);
  while (!options.empty()) {
    const std::size_t comma = options.find(',');
    const std::string option = options.substr(0, comma);
    options = comma == std::string::npos ? "" : options.substr(comma + 1);
    const std::size_t eq = option.find('=');
    if (eq == std::string::npos) {
      return fail(error, "option '" + option + "' is not key=value");
    }
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    unsigned number = 0;
    if (key == "bits") {
      if (!parse_uint(value, &number) || number < 1 ||
          number > FaultPlan::kMaxBits) {
        return fail(error, "bits must be 1..8, got '" + value + "'");
      }
      model->mask = number > 1 ? FaultMask::MultiBit : FaultMask::SingleBit;
      model->mask_bits = number;
    } else if (key == "mask") {
      if (value == "single") {
        model->mask = FaultMask::SingleBit;
      } else if (value == "byte") {
        model->mask = FaultMask::Byte;
      } else {
        return fail(error, "mask must be single or byte, got '" + value + "'");
      }
    } else if (key == "trigger") {
      if (value == "access") {
        model->trigger = FaultTrigger::Access;
      } else if (value == "time") {
        model->trigger = FaultTrigger::Time;
      } else {
        return fail(error,
                    "trigger must be access or time, got '" + value + "'");
      }
    } else if (key == "burst") {
      if (!parse_uint(value, &number) || number < 1 || number > kMaxBurst) {
        return fail(error, "burst must be 1..64, got '" + value + "'");
      }
      model->burst_length = number;
    } else if (key == "gap") {
      if (!parse_uint(value, &number) || number > kMaxBurst) {
        return fail(error, "gap must be 0..64, got '" + value + "'");
      }
      model->burst_gap = number;
    } else {
      return fail(error, "unknown option '" + key + "'");
    }
  }
  return true;
}

}  // namespace

std::string Model::name() const {
  std::string label;
  switch (kind) {
    case FaultKind::Transient:
      label = "transient";
      break;
    case FaultKind::Intermittent:
      label = "intermittent-b" + std::to_string(burst_length) + "g" +
              std::to_string(burst_gap);
      break;
    case FaultKind::Permanent:
      label = stuck_value ? "stuck-at-1" : "stuck-at-0";
      break;
  }
  if (mask == FaultMask::MultiBit) {
    label += "-m" + std::to_string(mask_bits);
  } else if (mask == FaultMask::Byte) {
    label += "-byte";
  }
  if (trigger == FaultTrigger::Time) label += "-time";
  return label;
}

std::uint64_t Model::apply(std::uint64_t value, std::uint64_t mask_value) const
    noexcept {
  if (kind == FaultKind::Permanent) {
    return stuck_value ? (value | mask_value) : (value & ~mask_value);
  }
  return value ^ mask_value;
}

Model Model::parse(const std::string& spec, std::string* error) {
  Model model;
  if (!parse_into(spec, &model, error)) return Model{};
  return model;
}

Model Model::from_env() {
  const char* env = support::parse_env_string("FAULTLAB_FAULT_MODEL");
  if (env == nullptr) return Model{};
  std::string error;
  Model model;
  if (!parse_into(env, &model, &error)) {
    std::fprintf(stderr,
                 "warning: FAULTLAB_FAULT_MODEL='%s' is invalid (%s); "
                 "using the default transient model\n",
                 env, error.c_str());
    return Model{};
  }
  return model;
}

std::vector<Model> Model::builtin_suite() {
  std::vector<Model> suite;
  suite.push_back(Model{});  // transient single-bit: the paper's model

  Model stuck;
  stuck.kind = FaultKind::Permanent;
  stuck.stuck_value = true;
  suite.push_back(stuck);

  Model intermittent;
  intermittent.kind = FaultKind::Intermittent;
  intermittent.burst_length = 4;
  intermittent.burst_gap = 1;
  suite.push_back(intermittent);

  Model multi;
  multi.mask = FaultMask::MultiBit;
  multi.mask_bits = 2;
  suite.push_back(multi);

  return suite;
}

unsigned FaultPlan::bits_for(unsigned width, unsigned out[kMaxBits]) const
    noexcept {
  const unsigned w = width == 0 ? 1 : width;
  if (model_.mask == FaultMask::Byte) {
    const unsigned base = (static_cast<unsigned>(raws_[0] % w) / 8) * 8;
    unsigned n = 0;
    for (unsigned b = base; b < base + 8 && b < w; ++b) out[n++] = b;
    return n;
  }
  unsigned n = 0;
  for (unsigned i = 0; i < num_raws_; ++i) {
    const unsigned bit = static_cast<unsigned>(raws_[i] % w);
    bool duplicate = false;
    for (unsigned j = 0; j < n; ++j) duplicate |= out[j] == bit;
    if (!duplicate) out[n++] = bit;
  }
  return n;
}

std::uint64_t FaultPlan::mask_for(unsigned width) const noexcept {
  unsigned bits[kMaxBits];
  const unsigned n = bits_for(width, bits);
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < n; ++i) mask |= flip_bit(0, bits[i]);
  return mask;
}

}  // namespace faultlab::fault
