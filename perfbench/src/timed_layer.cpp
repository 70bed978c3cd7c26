#include "timed_layer.hpp"

#include <memory>

namespace perfbench {

namespace {

class TimedLayer final : public fptc::nn::Layer {
public:
    TimedLayer(fptc::nn::Layer& inner, SpanRecorder& recorder, std::uint32_t forward_name,
               std::uint32_t backward_name)
        : inner_(inner), recorder_(recorder), forward_name_(forward_name),
          backward_name_(backward_name)
    {
    }

    [[nodiscard]] std::string name() const override { return inner_.name(); }

    [[nodiscard]] fptc::nn::Tensor forward(const fptc::nn::Tensor& input, bool training) override
    {
        const ScopedSpan span(&recorder_, forward_name_);
        return inner_.forward(input, training);
    }

    [[nodiscard]] fptc::nn::Tensor backward(const fptc::nn::Tensor& grad_output) override
    {
        const ScopedSpan span(&recorder_, backward_name_);
        return inner_.backward(grad_output);
    }

    [[nodiscard]] std::vector<fptc::nn::Parameter*> parameters() override
    {
        return inner_.parameters();
    }

private:
    fptc::nn::Layer& inner_;
    SpanRecorder& recorder_;
    std::uint32_t forward_name_;
    std::uint32_t backward_name_;
};

} // namespace

std::string LayerNamer::group_of(const std::string& layer_type)
{
    const auto numbered = [](const char* stem, int& counter, int limit) {
        ++counter;
        return counter <= limit ? stem + std::to_string(counter) : std::string("other");
    };
    if (layer_type == "Conv2d") {
        return numbered("conv", convs_, 2);
    }
    if (layer_type == "MaxPool2d") {
        return numbered("pool", pools_, 2);
    }
    if (layer_type == "Linear") {
        return numbered("fc", linears_, 3);
    }
    return "other";
}

fptc::nn::Sequential timed_view(fptc::nn::Sequential& network, SpanRecorder& recorder,
                                const std::string& prefix, LayerNamer& namer)
{
    fptc::nn::Sequential view;
    for (std::size_t i = 0; i < network.layer_count(); ++i) {
        fptc::nn::Layer& layer = network.layer(i);
        const std::string stem = prefix + "." + namer.group_of(layer.name());
        view.add(std::make_unique<TimedLayer>(layer, recorder, recorder.intern(stem + ".fwd"),
                                              recorder.intern(stem + ".bwd")));
    }
    return view;
}

} // namespace perfbench
