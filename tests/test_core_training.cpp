// Tests of the training loops: supervised early stopping, evaluation,
// SimCLR pre-training mechanics, the frozen-trunk fine-tuning path and the
// divergence guard (NaN-loss detection, rollback, bounded retries).
#include "fptc/core/byol.hpp"
#include "fptc/core/campaign.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/core/simclr.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/fault.hpp"

#include <gtest/gtest.h>

#include <bit>
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

// The rollback tests below pin what each training method returns when
// FaultPlan::nan_loss_every forces NaN losses: the number of rollbacks and
// detected faults, the epochs run and the bits of the final loss.  Each test
// runs one training loop after configure(), so the k-th step that faults is
// the loop's own k-th step.

/// Bits of a double, so a pinned loss compares exactly.
std::uint64_t bits_of(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/// 48 unlabeled flows spread over every class of the synthetic pretraining
/// partition: 6 batches of 8 per epoch.
std::vector<flow::Flow> rollback_pool()
{
    trafficgen::UcdavisOptions options;
    options.samples_scale = 0.05;
    const auto dataset =
        trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::pretraining, options);
    std::vector<flow::Flow> pool;
    const std::size_t stride = dataset.flows.size() / 48;
    for (std::size_t i = 0; pool.size() < 48; i += stride) {
        pool.push_back(dataset.flows[i]);
    }
    return pool;
}

/// Every value of every parameter, in order.
std::vector<float> parameter_values(const std::vector<nn::Parameter*>& parameters)
{
    std::vector<float> values;
    for (const auto* p : parameters) {
        const auto data = p->value.data();
        values.insert(values.end(), data.begin(), data.end());
    }
    return values;
}

/// Contrastive pre-training of a fresh network on rollback_pool with a NaN
/// loss every 7th step: each epoch's 6 steps either all run clean or the
/// epoch rolls back once and its retry runs clean.
SimClrResult contrastive_under_faults(bool supervised)
{
    util::FaultPlan plan;
    plan.nan_loss_every = 7;
    util::fault_injector().configure(plan);
    const auto pool = rollback_pool();
    nn::ModelConfig model_config;
    model_config.with_dropout = false;
    auto network = nn::make_simclr_network(model_config);
    const augment::ViewPairGenerator views;
    SimClrConfig config;
    config.batch_samples = 8;
    config.max_epochs = 3;
    config.patience = 3;
    const auto result = supervised ? pretrain_supcon(network, pool, views, config)
                                   : pretrain_simclr(network, pool, views, config);
    util::fault_injector().configure(util::FaultPlan{});
    return result;
}

TEST(Guard, TrainHeadRollsBackUnderInjectedNanLosses)
{
    util::FaultPlan plan;
    plan.nan_loss_every = 3;
    util::fault_injector().configure(plan);

    // 40 rows, 2 batches per epoch: every other epoch attempt faults once.
    util::Rng rng(5);
    EmbeddedSet train;
    train.features = nn::Tensor({40, nn::kRepresentationDim});
    for (std::size_t i = 0; i < 40; ++i) {
        const std::size_t label = i % 2;
        train.labels.push_back(label);
        for (std::size_t d = 0; d < nn::kRepresentationDim; ++d) {
            train.features[i * nn::kRepresentationDim + d] =
                static_cast<float>(rng.uniform()) + (d == 0 && label == 1 ? 1.0f : 0.0f);
        }
    }
    nn::ModelConfig config;
    config.num_classes = 2;
    auto head = nn::make_finetune_head(config);
    const auto result = train_head(head, train, finetune_config(1));
    util::fault_injector().configure(util::FaultPlan{});

    EXPECT_EQ(result.retries, 25);
    EXPECT_EQ(result.faults_detected, 25);
    EXPECT_EQ(result.epochs_run, 26);
    EXPECT_EQ(bits_of(result.final_train_loss), 4598909434878253898u);
}

TEST(Guard, SimClrRollsBackUnderInjectedNanLosses)
{
    const auto result = contrastive_under_faults(/*supervised=*/false);
    EXPECT_EQ(result.retries, 2);
    EXPECT_EQ(result.faults_detected, 2);
    EXPECT_EQ(result.epochs_run, 3);
    EXPECT_EQ(bits_of(result.final_loss), 4609059011081232552u);
}

TEST(Guard, SupConRollsBackUnderInjectedNanLosses)
{
    const auto result = contrastive_under_faults(/*supervised=*/true);
    EXPECT_EQ(result.retries, 2);
    EXPECT_EQ(result.faults_detected, 2);
    EXPECT_EQ(result.epochs_run, 3);
    EXPECT_EQ(bits_of(result.final_loss), 4610233913491318012u);
}

TEST(Guard, ByolRollsBackUnderInjectedNanLosses)
{
    util::FaultPlan plan;
    plan.nan_loss_every = 7;
    util::fault_injector().configure(plan);
    const auto pool = rollback_pool();
    nn::ModelConfig model_config;
    model_config.with_dropout = false;
    auto network = make_byol_network(model_config);
    const augment::ViewPairGenerator views;
    ByolConfig config;
    config.batch_samples = 8;
    config.max_epochs = 3;
    config.patience = 3;
    const auto result = pretrain_byol(network, pool, views, config);
    util::fault_injector().configure(util::FaultPlan{});

    EXPECT_EQ(result.retries, 2);
    EXPECT_EQ(result.faults_detected, 2);
    EXPECT_EQ(result.epochs_run, 3);
    EXPECT_EQ(bits_of(result.final_loss), 4604961253505080460u);
}

TEST(Guard, ByolTargetRollsBackWithTheOnlineNetwork)
{
    // Steps 1 and 2 update the online network and, by EMA, the target; step
    // 3 faults and, with no retry budget, the run ends rolled back to the
    // pre-training state: the target must be restored with the online side.
    util::FaultPlan plan;
    plan.nan_loss_every = 3;
    util::fault_injector().configure(plan);
    const auto pool = rollback_pool();
    nn::ModelConfig model_config;
    model_config.with_dropout = false;
    auto network = make_byol_network(model_config);
    const auto online_before = parameter_values(network.online.parameters());
    const auto target_before = parameter_values(network.target.parameters());
    const auto predictor_before = parameter_values(network.predictor.parameters());
    const augment::ViewPairGenerator views;
    ByolConfig config;
    config.batch_samples = 8;
    config.max_epochs = 1;
    config.guard.max_retries = 0;
    EXPECT_THROW((void)pretrain_byol(network, pool, views, config), DivergenceError);
    const auto faults = util::fault_injector().counters().nan_losses;
    util::fault_injector().configure(util::FaultPlan{});

    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(parameter_values(network.online.parameters()), online_before);
    EXPECT_EQ(parameter_values(network.target.parameters()), target_before);
    EXPECT_EQ(parameter_values(network.predictor.parameters()), predictor_before);
}

TEST(Guard, NanFaultsHitTheSameStepsWhateverRanBefore)
{
    // Each loop counts its own steps for the fault injector, so a loop's
    // result under nan_loss_every does not depend on another loop having
    // run first (in the same thread or, under FPTC_JOBS, in another).
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    model_config.with_dropout = false;
    const auto train = toy_samples(40, 1);
    const auto run = [&](const SampleSet& samples, int epochs) {
        auto network = nn::make_supervised_network(model_config);
        TrainConfig config;
        config.max_epochs = epochs;
        return train_supervised(network, samples, SampleSet{}, config);
    };
    util::FaultPlan plan;
    plan.nan_loss_every = 7;
    util::fault_injector().configure(plan);
    const auto alone = run(train, 4);
    util::fault_injector().configure(plan);
    (void)run(toy_samples(20, 2), 1); // two steps, no fault
    const auto after_another = run(train, 4);
    util::fault_injector().configure(util::FaultPlan{});

    EXPECT_GE(alone.retries, 1);
    EXPECT_EQ(after_another.retries, alone.retries);
    EXPECT_EQ(after_another.faults_detected, alone.faults_detected);
    EXPECT_EQ(after_another.epochs_run, alone.epochs_run);
    EXPECT_EQ(bits_of(after_another.final_train_loss), bits_of(alone.final_train_loss));
}

TEST(Guard, ZeroBatchSizeIsRejectedByEveryEntryPoint)
{
    const auto expect_rejected = [](const std::string& name, const auto& run) {
        try {
            run();
            ADD_FAILURE() << name << " accepted a zero batch size";
        } catch (const std::invalid_argument& error) {
            EXPECT_EQ(std::string(error.what()).rfind(name + ":", 0), 0u) << error.what();
        }
    };
    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    TrainConfig train_config;
    train_config.batch_size = 0;
    expect_rejected("train_supervised", [&] {
        auto network = nn::make_supervised_network(model_config);
        (void)train_supervised(network, toy_samples(4, 1), SampleSet{}, train_config);
    });
    expect_rejected("train_head", [&] {
        auto network = nn::make_simclr_network(model_config);
        auto head = nn::make_finetune_head(model_config);
        (void)train_head(head, embed_set(network, toy_samples(4, 1)), train_config);
    });

    const auto pool = rollback_pool();
    const augment::ViewPairGenerator views;
    SimClrConfig simclr_config;
    simclr_config.batch_samples = 0;
    expect_rejected("pretrain_simclr", [&] {
        auto network = nn::make_simclr_network(model_config);
        (void)pretrain_simclr(network, pool, views, simclr_config);
    });
    expect_rejected("pretrain_supcon", [&] {
        auto network = nn::make_simclr_network(model_config);
        (void)pretrain_supcon(network, pool, views, simclr_config);
    });
    ByolConfig byol_config;
    byol_config.batch_samples = 0;
    expect_rejected("pretrain_byol", [&] {
        auto network = make_byol_network(model_config);
        (void)pretrain_byol(network, pool, views, byol_config);
    });
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
