#include "nn/engine_slot.h"

#include <stdexcept>
#include <string>

#include "util/env_config.h"

namespace ftnav {

int resolve_trial_batch(int config_value) {
  const std::string value = config_value >= 0
                                ? std::to_string(config_value)
                                : env_string("FTNAV_TRIAL_BATCH", "");
  if (value.empty() || value == "0") return 0;
  if (value == "1") return 1;
  throw std::invalid_argument(
      "FTNAV_TRIAL_BATCH / trial_batch = " + value +
      ": valid values are 0 (one resident engine per shard, the default) "
      "and 1 (fresh engine per trial)");
}

}  // namespace ftnav
