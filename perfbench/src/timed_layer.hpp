// Per-layer spans around a trained network without touching it.
//
// timed_view() builds a second nn::Sequential whose layers forward every
// call to the layers of an existing network (same objects, same weights,
// same dropout streams), each call wrapped in a span.  Training or
// inference through the view is bit-identical to going through the
// original; the original must outlive the view.
//
// Layers are grouped as the LeNet-5 listings name them: conv1 pool1 conv2
// pool2 fc1 fc2 fc3, and `other` for ReLU, Dropout, Flatten and Identity.
#pragma once

#include "trace.hpp"

#include "fptc/nn/sequential.hpp"

#include <array>
#include <string>

namespace perfbench {

inline constexpr std::array<const char*, 8> kLayerGroups = {
    "conv1", "pool1", "conv2", "pool2", "fc1", "fc2", "fc3", "other"};

/// Assigns groups in network order; one namer spans the SimCLR trunk and
/// its projection head so the head's Linear layers become fc2 and fc3.
class LayerNamer {
public:
    [[nodiscard]] std::string group_of(const std::string& layer_type);

private:
    int convs_ = 0;
    int pools_ = 0;
    int linears_ = 0;
};

/// A Sequential of forwarding layers over `network`.  Spans are named
/// "<prefix>.<group>.fwd" and "<prefix>.<group>.bwd".
[[nodiscard]] fptc::nn::Sequential timed_view(fptc::nn::Sequential& network,
                                              SpanRecorder& recorder, const std::string& prefix,
                                              LayerNamer& namer);

} // namespace perfbench
