#pragma once

#include "scenario/spec.hpp"

namespace ehpc::scenario {

/// `spec` at one value of its sweep axis (`spec` itself for kNone). Internal
/// to the scenario module: the sweep engine and validate() share it.
ScenarioSpec at_axis_value(const ScenarioSpec& spec, double value);

}  // namespace ehpc::scenario
