#include "fptc/nn/models.hpp"

#include "fptc/nn/conv.hpp"
#include "fptc/nn/layers.hpp"
#include "fptc/util/rng.hpp"

#include <stdexcept>

namespace fptc::nn {

namespace {

constexpr std::size_t kConvKernel = 5;
constexpr std::size_t kPoolWindow = 2;
constexpr std::size_t kConv1Channels = 6;
constexpr std::size_t kConv2Channels = 16;
constexpr double kDropout2dRate = 0.25;
constexpr double kDropoutRate = 0.5;
constexpr std::size_t kLargeInputThreshold = 256;

/// Output side after the two conv+pool blocks on an e x e input.
[[nodiscard]] std::size_t trunk_spatial_dim(std::size_t input_dim)
{
    const std::size_t after_conv1 = input_dim - (kConvKernel - 1);
    const std::size_t after_pool1 = after_conv1 / kPoolWindow;
    const std::size_t after_conv2 = after_pool1 - (kConvKernel - 1);
    return after_conv2 / kPoolWindow;
}

/// Append the shared convolutional trunk (through the 120-d representation)
/// to `network`.  Returns the flattened dimension feeding Linear(->120).
std::size_t append_trunk(Sequential& network, const ModelConfig& config)
{
    // Large flowpics (>= 256) are max-pooled to ~64x64 by the data pipeline
    // (core::rasterize) before reaching the network; the trunk is built for
    // that effective resolution.
    const std::size_t input_dim = effective_input_dim(config.flowpic_dim);
    if (input_dim < 2 * kConvKernel) {
        throw std::invalid_argument("make network: flowpic_dim too small for LeNet trunk");
    }
    // The trunk's input is data: nobody reads conv1's input gradient.
    auto conv1 = std::make_unique<Conv2d>(config.input_channels, kConv1Channels, kConvKernel,
                                          util::mix_seed(config.seed, 1));
    conv1->set_input_gradient(false);
    network.add(std::move(conv1));
    network.add(std::make_unique<ReLU>());
    network.add(std::make_unique<MaxPool2d>(kPoolWindow));
    network.add(std::make_unique<Conv2d>(kConv1Channels, kConv2Channels, kConvKernel,
                                         util::mix_seed(config.seed, 2)));
    network.add(std::make_unique<ReLU>());
    if (config.with_dropout) {
        network.add(std::make_unique<Dropout2d>(kDropout2dRate, util::mix_seed(config.seed, 3)));
    } else {
        network.add(std::make_unique<Identity>()); // "<- masked" in listing 2
    }
    network.add(std::make_unique<MaxPool2d>(kPoolWindow));
    network.add(std::make_unique<Flatten>());
    const std::size_t spatial = trunk_spatial_dim(input_dim);
    const std::size_t flattened = kConv2Channels * spatial * spatial;
    network.add(
        std::make_unique<Linear>(flattened, kRepresentationDim, util::mix_seed(config.seed, 4)));
    network.add(std::make_unique<ReLU>());
    return flattened;
}

} // namespace

std::size_t effective_input_dim(std::size_t flowpic_dim) noexcept
{
    if (flowpic_dim < kLargeInputThreshold) {
        return flowpic_dim;
    }
    const std::size_t window = flowpic_dim / 64;
    return flowpic_dim / window;
}

Sequential make_supervised_network(const ModelConfig& config)
{
    Sequential network;
    append_trunk(network, config);
    if (config.flowpic_dim >= kLargeInputThreshold) {
        // "Full" architecture: one fewer fully-connected layer than the mini
        // version (the Ref-Paper's Fig. 6-7 diagrams, as noted in Sec. 4.4.1).
        if (config.with_dropout) {
            network.add(std::make_unique<Dropout>(kDropoutRate, util::mix_seed(config.seed, 5)));
        } else {
            network.add(std::make_unique<Identity>());
        }
        network.add(std::make_unique<Linear>(kRepresentationDim, config.num_classes,
                                             util::mix_seed(config.seed, 6)));
        return network;
    }
    network.add(std::make_unique<Linear>(kRepresentationDim, 84, util::mix_seed(config.seed, 5)));
    network.add(std::make_unique<ReLU>());
    if (config.with_dropout) {
        network.add(std::make_unique<Dropout>(kDropoutRate, util::mix_seed(config.seed, 6)));
    } else {
        network.add(std::make_unique<Identity>()); // "<- masked" in listing 2
    }
    network.add(
        std::make_unique<Linear>(84, config.num_classes, util::mix_seed(config.seed, 7)));
    return network;
}

Tensor SimClrNetwork::forward(const Tensor& input, bool training)
{
    return projection.forward(trunk.forward(input, training), training);
}

void SimClrNetwork::backward(const Tensor& grad_output)
{
    const Tensor grad_h = projection.backward(grad_output);
    (void)trunk.backward(grad_h);
}

Tensor SimClrNetwork::embed(const Tensor& input)
{
    return trunk.forward(input, /*training=*/false);
}

std::vector<Parameter*> SimClrNetwork::parameters()
{
    auto params = trunk.parameters();
    const auto head = projection.parameters();
    params.insert(params.end(), head.begin(), head.end());
    return params;
}

void SimClrNetwork::zero_grad()
{
    trunk.zero_grad();
    projection.zero_grad();
}

SimClrNetwork make_simclr_network(const ModelConfig& config)
{
    SimClrNetwork network;
    append_trunk(network.trunk, config);
    // Projection head g(.): Linear(120->120) ReLU [dropout slot] Linear(120->proj).
    network.projection.add(std::make_unique<Linear>(kRepresentationDim, kRepresentationDim,
                                                    util::mix_seed(config.seed, 10)));
    network.projection.add(std::make_unique<ReLU>());
    if (config.with_dropout) {
        network.projection.add(
            std::make_unique<Dropout>(kDropoutRate, util::mix_seed(config.seed, 11)));
    } else {
        network.projection.add(std::make_unique<Identity>()); // listing 3's Identity-13
    }
    network.projection.add(std::make_unique<Linear>(kRepresentationDim, config.projection_dim,
                                                    util::mix_seed(config.seed, 12)));
    return network;
}

Sequential make_finetune_head(const ModelConfig& config)
{
    Sequential head;
    head.add(std::make_unique<Linear>(kRepresentationDim, config.num_classes,
                                      util::mix_seed(config.seed, 20)));
    return head;
}

} // namespace fptc::nn
