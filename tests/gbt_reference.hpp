// Test-only scalar oracle for GbtClassifier::fit.
//
// The original fit loop, kept as a free function so tests can check the
// optimized fit in src/gbt against it tree by tree and byte by byte
// (tests/test_gbt_reference.cpp).  It bins one feature at a time into two
// double arrays and scans every feature, single-bin ones included.
#pragma once

#include "fptc/gbt/gbt.hpp"

#include <cstddef>
#include <vector>

namespace fptc::gbt::reference {

/// The trees the original fit grows on well-formed input, in the
/// classifier's order: trees[round * num_classes + class].
[[nodiscard]] std::vector<Tree> fit(const GbtConfig& config, std::size_t num_classes,
                                    const std::vector<std::vector<float>>& features,
                                    const std::vector<std::size_t>& labels);

} // namespace fptc::gbt::reference
