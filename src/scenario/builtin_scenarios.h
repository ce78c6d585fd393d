#pragma once
// Registration of every built-in campaign as a named scenario. Each
// registration binds its ParamSet into a campaign config
// (src/experiments/), runs the campaign with the invocation's
// ScenarioContext and renders the result. tests/test_golden.cpp pins
// the text, JSON and checkpoint bytes every scenario produces.

#include "scenario/scenario.h"

namespace ftnav {

/// Registers every built-in scenario; called once by
/// ScenarioRegistry::instance(). Throws std::logic_error on duplicate
/// names (a registration bug).
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace ftnav
