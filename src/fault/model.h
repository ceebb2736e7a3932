// Declarative hardware fault models.
//
// The paper's comparison covers one fault model: a transient single
// bit-flip in the destination register of one dynamic instruction. The
// fault::Model type generalizes that along three orthogonal axes, always
// corrupting the destination register —
//
//   kind     transient (fire once) / intermittent (fire in a burst) /
//            permanent (stuck-at, fires on every re-execution of the
//            armed site);
//   mask     single bit / multi-bit mask of `mask_bits` independent
//            draws / whole byte;
//   trigger  access-triggered (the k-th dynamic occurrence of the
//            instruction category, the paper's model) / time-triggered
//            (the first category instruction at or after a dynamic
//            instruction index derived from k).
//
// A Model is pure data: both engines consume it through FaultPlan, which
// freezes the trial's random draws up front so scheduling order can never
// perturb the rng stream (the determinism invariant from PR 3). The
// default-constructed Model is exactly the paper's model and consumes
// exactly one draw, so default campaigns are bit-identical to PR 5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.h"

namespace faultlab::fault {

enum class FaultKind : std::uint8_t {
  Transient,     // corrupt one dynamic instance, then done
  Intermittent,  // corrupt a burst of re-executions of the armed site
  Permanent,     // stuck-at: corrupt every re-execution of the armed site
};

enum class FaultMask : std::uint8_t {
  SingleBit,  // one flipped/stuck bit
  MultiBit,   // union of `mask_bits` independently drawn bits
  Byte,       // the aligned byte containing the drawn bit
};

enum class FaultTrigger : std::uint8_t {
  Access,  // arm at the k-th dynamic instruction of the category
  Time,    // arm at a dynamic instruction index derived from k
};

/// A declarative hardware fault model. Plain data; value-copied into
/// engines and hooks.
struct Model {
  FaultKind kind = FaultKind::Transient;
  FaultMask mask = FaultMask::SingleBit;
  FaultTrigger trigger = FaultTrigger::Access;

  /// Number of independent bit draws for FaultMask::MultiBit (1..8).
  /// Draws may collide and fold to the same bit, so the realized mask
  /// has *up to* mask_bits set bits.
  unsigned mask_bits = 2;

  /// Intermittent: fire on `burst_length` consecutive eligible
  /// re-executions, skipping `burst_gap` re-executions between fires.
  unsigned burst_length = 4;
  unsigned burst_gap = 1;

  /// Permanent: the stuck value (true = stuck-at-1, false = stuck-at-0).
  bool stuck_value = true;

  /// True for models whose hook must stay attached after the first
  /// corruption (intermittent and permanent).
  bool persistent() const noexcept { return kind != FaultKind::Transient; }

  /// Whether the o-th execution of the armed site (0-based, counting the
  /// initial injection) gets corrupted: permanent always, intermittent on
  /// the burst pattern (burst_length fires, burst_gap clean executions
  /// between consecutive fires).
  bool fires_at(std::uint64_t o) const noexcept {
    if (kind == FaultKind::Permanent) return true;
    const std::uint64_t period = burst_gap + 1;
    return o % period == 0 && o / period < burst_length;
  }

  /// True when no occurrence >= next_o can fire any more (intermittent
  /// burst exhausted). Permanent faults never finish.
  bool burst_done(std::uint64_t next_o) const noexcept {
    return kind == FaultKind::Intermittent &&
           next_o / (burst_gap + 1) >= burst_length;
  }

  /// Stable human-readable label, e.g. "transient", "stuck-at-1-m2",
  /// "intermittent-b4g1-byte-time". Used in CSVs and the event schema.
  std::string name() const;

  /// Applies this model's corruption semantics to `value` under bit
  /// `mask`: transient/intermittent XOR the mask, permanent forces the
  /// masked bits to the stuck value.
  std::uint64_t apply(std::uint64_t value, std::uint64_t mask_value) const
      noexcept;

  /// Parses a spec of the form `kind[:key=value,...]`. Kinds: transient,
  /// intermittent, stuck-at-0, stuck-at-1, permanent (alias for
  /// stuck-at-1). Keys: bits=1..8, mask=single|byte, trigger=access|time,
  /// burst=1..64, gap=0..64. Canonical names as produced by name()
  /// ("intermittent-b4g1", "transient-m2") are also accepted, so a model
  /// printed in a CSV can be re-run verbatim. On failure returns the
  /// default model and, when `error` is non-null, stores a diagnostic.
  static Model parse(const std::string& spec, std::string* error = nullptr);

  /// Reads FAULTLAB_FAULT_MODEL. Unset/empty yields the default model;
  /// an invalid spec warns on stderr and yields the default model.
  static Model from_env();

  /// The models exercised by bench_table5_crash's per-model sweep and the
  /// determinism fixtures: transient (baseline), stuck-at-1, intermittent
  /// burst-4/gap-1, and a 2-bit transient.
  static std::vector<Model> builtin_suite();
};

/// The frozen per-trial randomness of one injection. Constructed before
/// the trial executes so every model consumes a deterministic, schedule-
/// independent prefix of the trial rng. The default (single-bit) model
/// draws exactly once from `raw_space`, matching the historical
/// `rng.below(64)` / `rng.below(128)` draw of each engine byte-for-byte.
class FaultPlan {
 public:
  static constexpr unsigned kMaxBits = 8;

  FaultPlan() = default;

  FaultPlan(const Model& model, Rng& rng, unsigned raw_space)
      : model_(model), num_raws_(1) {
    raws_[0] = rng.below(raw_space);
    if (model.mask == FaultMask::MultiBit) {
      const unsigned extra =
          (model.mask_bits < 1 ? 1
                               : model.mask_bits > kMaxBits ? kMaxBits
                                                            : model.mask_bits) -
          1;
      for (unsigned i = 0; i < extra; ++i) {
        raws_[num_raws_++] = rng.below(raw_space);
      }
    }
  }

  const Model& model() const noexcept { return model_; }

  /// The primary raw draw, folded into `width`. Recorded as
  /// TrialRecord::bit for every model so CSV schemas stay stable.
  unsigned primary_bit(unsigned width) const noexcept {
    return static_cast<unsigned>(raws_[0] % (width == 0 ? 1 : width));
  }

  /// Writes the distinct target bits for a `width`-bit destination into
  /// `out` (size >= kMaxBits); returns the count. SingleBit yields one
  /// bit, MultiBit the de-duplicated folds of each raw draw, Byte the
  /// bits of the aligned byte containing the primary bit (clipped to
  /// `width`).
  unsigned bits_for(unsigned width, unsigned out[kMaxBits]) const noexcept;

  /// The union bit mask for a destination of `width` <= 64 bits.
  std::uint64_t mask_for(unsigned width) const noexcept;

  /// Applies the model's corruption to a `width`-bit value.
  std::uint64_t corrupt(std::uint64_t value, unsigned width) const noexcept {
    return model_.apply(value, mask_for(width));
  }

 private:
  Model model_{};
  unsigned num_raws_ = 0;
  std::uint64_t raws_[kMaxBits] = {};
};

}  // namespace faultlab::fault
