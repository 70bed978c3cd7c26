#include "fptc/nn/sequential.hpp"

#include "fptc/nn/layers.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace fptc::nn {

std::size_t Sequential::add(std::unique_ptr<Layer> layer)
{
    if (!layer) {
        throw std::invalid_argument("Sequential::add: null layer");
    }
    layers_.push_back(std::move(layer));
    return layers_.size() - 1;
}

Layer& Sequential::layer(std::size_t index)
{
    return *layers_.at(index);
}

const Layer& Sequential::layer(std::size_t index) const
{
    return *layers_.at(index);
}

void Sequential::mask_layer(std::size_t index)
{
    layers_.at(index) = std::make_unique<Identity>();
}

Tensor Sequential::forward(const Tensor& input, bool training)
{
    if (layers_.empty()) {
        return input;
    }
    Tensor current = layers_.front()->forward(input, training);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
        current = layers_[i]->forward(current, training);
    }
    return current;
}

Tensor Sequential::backward(const Tensor& grad_output)
{
    if (layers_.empty()) {
        return grad_output;
    }
    Tensor current = layers_.back()->backward(grad_output);
    for (std::size_t i = layers_.size() - 1; i-- > 0;) {
        current = layers_[i]->backward(current);
    }
    return current;
}

std::vector<Parameter*> Sequential::parameters()
{
    std::vector<Parameter*> all;
    for (const auto& layer : layers_) {
        const auto params = layer->parameters();
        all.insert(all.end(), params.begin(), params.end());
    }
    return all;
}

void Sequential::zero_grad()
{
    for (auto* p : parameters()) {
        p->zero_grad();
    }
}

std::size_t Sequential::parameter_count()
{
    std::size_t total = 0;
    for (const auto& layer : layers_) {
        total += layer->parameter_count();
    }
    return total;
}

std::string Sequential::summary(const Shape& input_shape)
{
    std::ostringstream out;
    out << "Layer (type)          Output Shape           Param #\n";
    out << "====================================================\n";
    Tensor current(input_shape);
    std::size_t total = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        current = layers_[i]->forward(current, /*training=*/false);
        const auto params = layers_[i]->parameter_count();
        total += params;
        char line[128];
        std::snprintf(line, sizeof line, "%-10s-%-10zu %-22s %zu\n", layers_[i]->name().c_str(),
                      i + 1, current.shape_string().c_str(), params);
        out << line;
    }
    out << "====================================================\n";
    out << "Total params: " << total << '\n';
    return out.str();
}

} // namespace fptc::nn
