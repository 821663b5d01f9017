#pragma once

#include <random>

#include "core/history.hpp"

/// \file random_history.hpp
/// The arbitrary small histories of the fuzz sweeps, shared by the test
/// binaries that differential-test over them.

namespace sia {

/// Random history: 2-4 sessions, 1-3 txns each, 1-3 events per txn over
/// 2 objects with values in {0, 1, 2}. Deliberately unconstrained.
[[nodiscard]] History random_history(std::mt19937_64& rng);

}  // namespace sia
