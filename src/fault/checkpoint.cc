// Environment overrides of the engine configuration values
// (CheckpointPolicy, ExecConfig; see engine.h).
#include "fault/engine.h"
#include "support/env.h"

namespace faultlab::fault {

CheckpointPolicy CheckpointPolicy::from_env() {
  CheckpointPolicy policy;
  policy.enabled = support::parse_env_u64("FAULTLAB_CHECKPOINTS", 1) != 0;
  policy.stride = support::parse_env_u64("FAULTLAB_SNAPSHOT_STRIDE", 0);
  return policy;
}

ExecConfig ExecConfig::from_env() {
  static const char* const kDispatch[] = {"threaded", "switch"};
  ExecConfig config;
  if (support::parse_env_choice("FAULTLAB_DISPATCH", kDispatch, 2, 0) == 1)
    config.dispatch = machine::DispatchMode::Switch;
  config.trace_prop = support::parse_env_flag("FAULTLAB_PROP", false);
  return config;
}

}  // namespace faultlab::fault
