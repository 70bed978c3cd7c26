// Tests of the training loops: supervised early stopping, evaluation,
// SimCLR pre-training mechanics, the frozen-trunk fine-tuning path and the
// divergence guard (NaN-loss detection, rollback, bounded retries).
#include "fptc/core/campaign.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/core/simclr.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace fptc;
using namespace fptc::core;

/// Tiny two-class sample set with an unmistakable signature: class 0 has a
/// hot top-left corner, class 1 a hot bottom-right corner.
SampleSet toy_samples(std::size_t per_class, std::uint64_t seed)
{
    util::Rng rng(seed);
    SampleSet set;
    set.dim = 32;
    for (std::size_t label = 0; label < 2; ++label) {
        for (std::size_t i = 0; i < per_class; ++i) {
            std::vector<float> image(32 * 32, 0.0f);
            for (int k = 0; k < 40; ++k) {
                const auto r = static_cast<std::size_t>(rng.uniform_int(0, 9));
                const auto c = static_cast<std::size_t>(rng.uniform_int(0, 9));
                if (label == 0) {
                    image[r * 32 + c] = 1.0f;
                } else {
                    image[(31 - r) * 32 + (31 - c)] = 1.0f;
                }
            }
            set.images.push_back(std::move(image));
            set.labels.push_back(label);
        }
    }
    return set;
}

TEST(Trainer, LearnsToySeparation)
{
    const auto train = toy_samples(40, 1);
    const auto validation = toy_samples(10, 2);
    const auto test = toy_samples(20, 3);

    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    model_config.with_dropout = false;
    auto network = nn::make_supervised_network(model_config);

    TrainConfig config;
    config.max_epochs = 10;
    const auto result = train_supervised(network, train, validation, config);
    EXPECT_GE(result.epochs_run, 1);
    EXPECT_LE(result.epochs_run, 10);

    const auto confusion = evaluate(network, test, 2);
    EXPECT_GT(confusion.accuracy(), 0.9);
    EXPECT_EQ(confusion.total(), test.size());
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau)
{
    const auto train = toy_samples(30, 4);
    const auto validation = toy_samples(10, 5);
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    auto network = nn::make_supervised_network(model_config);

    TrainConfig config;
    config.max_epochs = 40;
    config.patience = 2;
    config.min_delta = 0.5; // essentially impossible improvement threshold
    const auto result = train_supervised(network, train, validation, config);
    EXPECT_LE(result.epochs_run, 4); // stops after patience epochs
    EXPECT_EQ(result.validation_history.size(), static_cast<std::size_t>(result.epochs_run));
}

TEST(Trainer, MonitorsTrainLossWithoutValidation)
{
    const auto train = toy_samples(20, 6);
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    auto network = nn::make_supervised_network(model_config);
    TrainConfig config;
    config.max_epochs = 6;
    const auto result = train_supervised(network, train, SampleSet{}, config);
    EXPECT_GE(result.epochs_run, 1);
    EXPECT_GT(result.validation_history.size(), 0u);
}

TEST(Trainer, RejectsEmptyTrainingSet)
{
    nn::ModelConfig model_config;
    auto network = nn::make_supervised_network(model_config);
    EXPECT_THROW((void)train_supervised(network, SampleSet{}, SampleSet{}, TrainConfig{}),
                 std::invalid_argument);
}

TEST(Trainer, EvaluateLossDecreasesAfterTraining)
{
    const auto train = toy_samples(30, 7);
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    model_config.with_dropout = false;
    auto network = nn::make_supervised_network(model_config);
    const double before = evaluate_loss(network, train);
    TrainConfig config;
    config.max_epochs = 5;
    (void)train_supervised(network, train, SampleSet{}, config);
    const double after = evaluate_loss(network, train);
    EXPECT_LT(after, before);
}

TEST(SimClr, PretrainImprovesTop5Accuracy)
{
    // Unlabeled flows from the synthetic UCDAVIS19 generator.
    trafficgen::UcdavisOptions options;
    options.samples_scale = 0.05;
    const auto dataset =
        trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::pretraining, options);

    nn::ModelConfig model_config;
    model_config.with_dropout = false;
    auto network = nn::make_simclr_network(model_config);
    const augment::ViewPairGenerator views;

    SimClrConfig config;
    config.max_epochs = 4;
    config.patience = 4;
    const auto result = pretrain_simclr(network, dataset.flows, views, config);
    EXPECT_GE(result.epochs_run, 1);
    // With 64-view batches, random top-5 would be ~5/63 = 8%; a pre-trained
    // representation must do much better.
    EXPECT_GT(result.best_top5_accuracy, 0.3);
}

TEST(SimClr, EmbedSetProducesRepresentationRows)
{
    nn::ModelConfig model_config;
    auto network = nn::make_simclr_network(model_config);
    const auto samples = toy_samples(3, 8);
    const auto embedded = embed_set(network, samples);
    EXPECT_EQ(embedded.features.shape(), (nn::Shape{6, nn::kRepresentationDim}));
    EXPECT_EQ(embedded.labels.size(), 6u);
}

TEST(SimClr, HeadTrainsOnSeparableEmbeddings)
{
    // Hand-made embeddings: class determined by the sign of feature 0.
    EmbeddedSet train;
    train.features = nn::Tensor({40, nn::kRepresentationDim});
    for (std::size_t i = 0; i < 40; ++i) {
        const std::size_t label = i % 2;
        train.labels.push_back(label);
        train.features[i * nn::kRepresentationDim] = label == 0 ? 1.0f : -1.0f;
        train.features[i * nn::kRepresentationDim + 1] = 0.3f;
    }
    nn::ModelConfig config;
    config.num_classes = 2;
    auto head = nn::make_finetune_head(config);
    const auto result = train_head(head, train, finetune_config(1));
    EXPECT_GE(result.epochs_run, 1);
    const auto confusion = evaluate_head(head, train, 2);
    EXPECT_GT(confusion.accuracy(), 0.95);
}

TEST(SimClr, FinetuneConfigMatchesPaperProtocol)
{
    const auto config = finetune_config(3);
    EXPECT_DOUBLE_EQ(config.learning_rate, 1e-2);
    EXPECT_EQ(config.patience, 5);
    EXPECT_DOUBLE_EQ(config.min_delta, 1e-3);
}

TEST(Guard, RecoversFromInjectedNanLosses)
{
    // Inject a NaN loss on every 7th guarded step: the guard must roll back,
    // reseed and finish the training with the usual accuracy.
    util::FaultPlan plan;
    plan.nan_loss_every = 7;
    util::fault_injector().configure(plan);

    const auto train = toy_samples(40, 1);
    const auto test = toy_samples(20, 3);
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    model_config.with_dropout = false;
    auto network = nn::make_supervised_network(model_config);
    TrainConfig config;
    config.max_epochs = 8;
    const auto result = train_supervised(network, train, SampleSet{}, config);
    util::fault_injector().configure(util::FaultPlan{});

    EXPECT_GE(result.retries, 1);
    EXPECT_GE(result.faults_detected, 1);
    const auto confusion = evaluate(network, test, 2);
    EXPECT_GT(confusion.accuracy(), 0.9);
}

TEST(Guard, ExhaustedRetryBudgetThrows)
{
    // Every guarded step diverges: no epoch can ever commit, so the
    // consecutive-failure budget must run out and surface as an error.
    util::FaultPlan plan;
    plan.nan_loss_every = 1;
    util::fault_injector().configure(plan);

    const auto train = toy_samples(10, 1);
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    auto network = nn::make_supervised_network(model_config);
    TrainConfig config;
    config.max_epochs = 3;
    config.guard.max_retries = 2;
    EXPECT_THROW((void)train_supervised(network, train, SampleSet{}, config), DivergenceError);
    util::fault_injector().configure(util::FaultPlan{});
}

TEST(Guard, RollbackRestoresSnapshot)
{
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    auto network = nn::make_supervised_network(model_config);
    const auto params = network.parameters();
    const float original = params[0]->value.data()[0];

    DivergenceGuard guard(params, GuardConfig{});
    params[0]->value.data()[0] = original + 42.0f;
    EXPECT_TRUE(guard.step_diverged(std::nan("")));
    EXPECT_TRUE(guard.rollback());
    EXPECT_EQ(params[0]->value.data()[0], original);
    EXPECT_EQ(guard.retries(), 1);

    // Committing adopts the current weights and resets the failure streak.
    params[0]->value.data()[0] = original + 1.0f;
    guard.commit();
    EXPECT_FALSE(guard.step_diverged(0.5));
    EXPECT_TRUE(guard.step_diverged(1e9)); // beyond loss_limit
    EXPECT_TRUE(guard.rollback());
    EXPECT_EQ(params[0]->value.data()[0], original + 1.0f);
}

TEST(Guard, NaNConv1WeightIsDetected)
{
    // A NaN weight poisons its conv1 channel.  ReLU and MaxPool must carry
    // the NaN on to the loss rather than clamp it to 0, or the guard never
    // sees it and the channel stays NaN for the rest of training.
    nn::ModelConfig model_config;
    auto network = nn::make_supervised_network(model_config);
    network.parameters()[0]->value.data()[0] = std::nanf("");
    DivergenceGuard guard(network.parameters(), GuardConfig{});

    nn::Tensor x({2, 1, 32, 32});
    for (std::size_t i = 0; i < x.size(); i += 7) {
        x[i] = 1.0f;
    }
    const auto logits = network.forward(x, /*training=*/true);
    const std::vector<std::size_t> labels{0, 1};
    const auto loss = nn::cross_entropy(logits, labels);
    network.zero_grad();
    (void)network.backward(loss.grad);
    EXPECT_TRUE(guard.step_diverged(loss.loss));
}

TEST(Guard, RetrySeedsAreDistinct)
{
    nn::ModelConfig model_config;
    auto network = nn::make_supervised_network(model_config);
    DivergenceGuard guard(network.parameters(), GuardConfig{});
    const auto first = guard.retry_seed(7);
    EXPECT_TRUE(guard.step_diverged(std::nan("")));
    EXPECT_TRUE(guard.rollback());
    const auto second = guard.retry_seed(7);
    EXPECT_NE(first, second);
    EXPECT_NE(first, 7u);
}

TEST(SimClr, PretrainValidation)
{
    nn::ModelConfig model_config;
    auto network = nn::make_simclr_network(model_config);
    const augment::ViewPairGenerator views;
    EXPECT_THROW((void)pretrain_simclr(network, {}, views, SimClrConfig{}),
                 std::invalid_argument);
}

} // namespace
