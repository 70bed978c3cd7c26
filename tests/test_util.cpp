// Unit tests for fptc::util — RNG determinism and distribution sanity,
// table/CSV rendering, heatmaps, campaign-scale resolution, the run
// journal, orphan temp scavenging, cooperative shutdown and the fault
// injector.
#include "fptc/serve/flightrec.hpp"
#include "fptc/util/csv.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/event_ring.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/heatmap.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/shutdown.hpp"
#include "fptc/util/table.hpp"
#include "fptc/util/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace util = fptc::util;
using fptc::util::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng rng(0);
    // xoshiro with an all-zero state would be stuck at 0; splitmix expansion
    // must prevent that.
    bool any_nonzero = false;
    for (int i = 0; i < 8; ++i) {
        any_nonzero |= rng() != 0;
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniform_int(2, 6);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all of 2..6 hit
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(rng.uniform_int(9, 9), 9);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesLambda)
{
    Rng rng(13);
    for (const double lambda : {0.5, 4.0, 30.0, 100.0}) {
        double total = 0.0;
        constexpr int n = 4000;
        for (int i = 0; i < n; ++i) {
            total += rng.poisson(lambda);
        }
        EXPECT_NEAR(total / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
    }
}

TEST(Rng, PoissonZeroLambda)
{
    Rng rng(1);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    double total = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        total += rng.exponential(2.0);
    }
    EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(19);
    const double weights[] = {1.0, 3.0, 0.0, 6.0};
    std::array<int, 4> counts{};
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.categorical(weights)];
    }
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.shuffle(shuffled);
    auto sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, v);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(29);
    const auto sample = rng.sample_without_replacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (const auto i : sample) {
        EXPECT_LT(i, 100u);
    }
}

TEST(Rng, SampleWithoutReplacementClampsToN)
{
    Rng rng(29);
    const auto sample = rng.sample_without_replacement(5, 50);
    EXPECT_EQ(sample.size(), 5u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(5);
    Rng child = parent.fork();
    // Child and parent should not emit the same sequence.
    int equal = 0;
    for (int i = 0; i < 32; ++i) {
        if (parent() == child()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(MixSeed, DistinctForDistinctStreams)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t a = 0; a < 10; ++a) {
        for (std::uint64_t b = 0; b < 10; ++b) {
            seeds.insert(fptc::util::mix_seed(42, a, b));
        }
    }
    EXPECT_EQ(seeds.size(), 100u);
}

TEST(Table, RendersAlignedColumns)
{
    fptc::util::Table table("Title");
    table.set_header({"A", "Long header"});
    table.add_row({"x", "1"});
    table.add_row({"longer", "2"});
    table.add_footnote("note");
    const auto text = table.to_string();
    EXPECT_NE(text.find("Title"), std::string::npos);
    EXPECT_NE(text.find("Long header"), std::string::npos);
    EXPECT_NE(text.find("note"), std::string::npos);
    EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, PadsMultiByteCellsByCodePoint)
{
    // "±" is 2 bytes and "†" 3 in UTF-8 but one column each: every line's
    // separators must sit in the same columns as the header's.
    fptc::util::Table table;
    table.set_header({"method", "accuracy", "n"});
    table.add_row({"supervised", fptc::util::format_mean_ci(96.8, 0.37), "5"});
    table.add_row({"simclr", "n/a †1", "4"});
    table.add_row({"†", "±", "3"});
    const auto columns_of_bars = [](const std::string& line) {
        std::vector<std::size_t> bars;
        std::size_t column = 0;
        for (const char c : line) {
            if ((static_cast<unsigned char>(c) & 0xC0u) == 0x80u) {
                continue;  // UTF-8 continuation byte: same column
            }
            if (c == '|') {
                bars.push_back(column);
            }
            ++column;
        }
        return bars;
    };
    std::istringstream text(table.to_string());
    std::string header;
    std::getline(text, header);
    const std::vector<std::size_t> expected = columns_of_bars(header);
    ASSERT_EQ(expected.size(), 2u);
    std::string line;
    std::getline(text, line);  // the rule under the header
    int rows = 0;
    while (std::getline(text, line)) {
        EXPECT_EQ(columns_of_bars(line), expected) << line;
        ++rows;
    }
    EXPECT_EQ(rows, 3);
}

TEST(Table, MarkdownHasSeparatorRow)
{
    fptc::util::Table table;
    table.set_header({"A", "B"});
    table.add_row({"1", "2"});
    const auto md = table.to_markdown();
    EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(Table, FormatMeanCi)
{
    EXPECT_EQ(fptc::util::format_mean_ci(96.8, 0.37), "96.80 ±0.37");
    EXPECT_EQ(fptc::util::format_double(1.0 / 3.0, 3), "0.333");
    EXPECT_EQ(fptc::util::format_double(std::nan(""), 2), "n/a");
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(fptc::util::csv_escape("plain"), "plain");
    EXPECT_EQ(fptc::util::csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(fptc::util::csv_escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, RoundTripContent)
{
    fptc::util::CsvWriter csv({"x", "y"});
    csv.add_row({"1", "two,three"});
    const auto text = csv.to_string();
    EXPECT_EQ(text, "x,y\n1,\"two,three\"\n");
}

TEST(Heatmap, RendersExpectedDimensions)
{
    std::vector<float> values(16, 0.0f);
    values[5] = 10.0f;
    const auto text = fptc::util::render_heatmap(values, 4, 4);
    // 4 content rows + 2 border rows + scale line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7);
    EXPECT_NE(text.find('@'), std::string::npos); // the hot cell
}

TEST(Heatmap, DownsamplesLargeInput)
{
    std::vector<float> values(128 * 128, 1.0f);
    fptc::util::HeatmapOptions options;
    options.max_side = 16;
    options.show_scale = false;
    const auto text = fptc::util::render_heatmap(values, 128, 128, options);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 18); // 16 + borders
}

class TempFile {
public:
    explicit TempFile(const std::string& name)
        : path_((std::filesystem::temp_directory_path() / name).string())
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

TEST(Journal, JsonLineRoundTrip)
{
    fptc::util::JournalRecord record;
    record.key = "table4|res=32|aug=rotate|split=0|seed=1";
    record.fields = {{"script", "98.25"}, {"note", "quote \" and \\ and\ntab\t"}};
    const auto line = fptc::util::to_json_line(record);
    const auto parsed = fptc::util::parse_json_line(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->key, record.key);
    EXPECT_EQ(parsed->fields, record.fields);
}

TEST(Journal, ParseRejectsTornLines)
{
    EXPECT_FALSE(fptc::util::parse_json_line("").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("{\"key\":\"a\",\"x\":\"1").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("not json at all").has_value());
    EXPECT_FALSE(fptc::util::parse_json_line("{\"x\":\"1\"}").has_value()); // no key
}

TEST(Journal, RecordsSurviveReopen)
{
    TempFile file("fptc_test_journal.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        EXPECT_EQ(journal.size(), 0u);
        journal.record("unit-a", {{"score", "1.5"}});
        journal.record("unit-b", {{"score", "2.5"}});
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.recovered_records(), 2u);
    EXPECT_TRUE(reopened.completed("unit-a"));
    EXPECT_FALSE(reopened.completed("unit-c"));
    const auto* fields = reopened.find("unit-b");
    ASSERT_NE(fields, nullptr);
    EXPECT_EQ(fields->at("score"), "2.5");
}

TEST(Journal, TornTailIsDiscarded)
{
    TempFile file("fptc_test_journal_torn.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        journal.record("unit-a", {{"score", "1"}});
    }
    {
        // Simulate a crash mid-append: a half-written final line.
        std::ofstream out(file.path(), std::ios::app);
        out << "{\"key\":\"unit-b\",\"score\":\"2";
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.discarded_lines(), 1u);
    EXPECT_FALSE(reopened.completed("unit-b"));

    // compact() rewrites the file without the torn line.
    reopened.compact();
    fptc::util::RunJournal compacted(file.path());
    EXPECT_EQ(compacted.size(), 1u);
    EXPECT_EQ(compacted.discarded_lines(), 0u);
}

TEST(Journal, LastRecordWinsOnRerecord)
{
    TempFile file("fptc_test_journal_dup.jsonl");
    {
        fptc::util::RunJournal journal(file.path());
        journal.record("unit", {{"score", "1"}});
        journal.record("unit", {{"score", "2"}});
    }
    fptc::util::RunJournal reopened(file.path());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.find("unit")->at("score"), "2");
}

TEST(Journal, AtomicWriteFileReplacesContent)
{
    TempFile file("fptc_test_atomic.txt");
    fptc::util::atomic_write_file(file.path(), "first");
    fptc::util::atomic_write_file(file.path(), "second");
    std::ifstream in(file.path());
    std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second");
}

TEST(Journal, FieldDoubleRoundTripsExactly)
{
    const double value = 0.1 + 0.2; // not representable prettily
    const auto text = fptc::util::field_from_double(value);
    std::map<std::string, std::string> fields{{"v", text}};
    EXPECT_EQ(fptc::util::field_double(fields, "v"), value);
    EXPECT_THROW((void)fptc::util::field_double(fields, "missing"), std::runtime_error);
}

TEST(Journal, CampaignJournalReplaysRecordedUnits)
{
    TempFile file("fptc_test_campaign.jsonl");
    ::setenv("FPTC_JOURNAL", file.path().c_str(), 1);
    int executions = 0;
    const auto run = [&] {
        ++executions;
        return std::map<std::string, std::string>{{"score", "9"}};
    };
    {
        fptc::util::CampaignJournal journal("testbench");
        ASSERT_TRUE(journal.enabled());
        EXPECT_EQ(journal.run_or_replay("u1", run).at("score"), "9");
        EXPECT_EQ(journal.run_or_replay("u2", run).at("score"), "9");
        EXPECT_EQ(journal.executed(), 2u);
        EXPECT_EQ(journal.replayed(), 0u);
    }
    {
        // A re-launched campaign replays both units without executing.
        fptc::util::CampaignJournal journal("testbench");
        EXPECT_EQ(journal.run_or_replay("u1", run).at("score"), "9");
        EXPECT_EQ(journal.run_or_replay("u2", run).at("score"), "9");
        EXPECT_EQ(journal.replayed(), 2u);
        EXPECT_EQ(journal.executed(), 0u);
        EXPECT_NE(journal.summary().find("2 replayed"), std::string::npos);
    }
    EXPECT_EQ(executions, 2);
    {
        // Keys are namespaced per campaign: another bench re-executes.
        fptc::util::CampaignJournal journal("otherbench");
        (void)journal.run_or_replay("u1", run);
        EXPECT_EQ(journal.executed(), 1u);
    }
    ::unsetenv("FPTC_JOURNAL");
}

TEST(Journal, CampaignJournalDisabledWithoutEnv)
{
    ::unsetenv("FPTC_JOURNAL");
    fptc::util::CampaignJournal journal("testbench");
    EXPECT_FALSE(journal.enabled());
    int executions = 0;
    const auto run = [&] {
        ++executions;
        return std::map<std::string, std::string>{};
    };
    (void)journal.run_or_replay("u1", run);
    (void)journal.run_or_replay("u1", run);
    EXPECT_EQ(executions, 2); // every call executes without a journal
    EXPECT_TRUE(journal.summary().empty());
}

// ---------------------------------------------------------------------------
// Orphan temp scavenging
// ---------------------------------------------------------------------------

class TempDir {
public:
    explicit TempDir(const std::string& name)
        : path_(std::string(::testing::TempDir()) + name + "." + std::to_string(::getpid()))
    {
        std::string cmd = "rm -rf '" + path_ + "' && mkdir -p '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
    ~TempDir()
    {
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

void write_text(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

TEST(Scavenge, RemovesOnlyDeadWritersDebris)
{
    TempDir dir("fptc_scav");
    // Find a pid that is certainly dead: fork a child that exits at once.
    const pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0) {
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(dead, &status, 0), dead);

    const std::string debris = dir.file("table.csv.tmp." + std::to_string(dead) + ".7");
    const std::string own =
        dir.file("table.csv.tmp." + std::to_string(::getpid()) + ".1");
    const std::string odd = dir.file("notes.tmp.abc.1");
    write_text(debris, "torn");
    write_text(own, "in flight");
    write_text(odd, "unrelated");
    EXPECT_EQ(util::scavenge_orphan_temps(dir.path()), 1u);
    struct stat st{};
    EXPECT_NE(::stat(debris.c_str(), &st), 0);  // dead writer's temp removed
    EXPECT_EQ(::stat(own.c_str(), &st), 0);     // our own in-flight temp kept
    EXPECT_EQ(::stat(odd.c_str(), &st), 0);     // non-DurableFile name kept
    EXPECT_EQ(util::scavenge_orphan_temps(dir.file("missing-dir")), 0u);
}

// ---------------------------------------------------------------------------
// Cooperative shutdown state
// ---------------------------------------------------------------------------

TEST(Shutdown, SigtermLatchesTheFlagInsteadOfKilling)
{
    util::reset_shutdown_for_tests();
    util::install_shutdown_handlers();
    EXPECT_FALSE(util::shutdown_requested());
    EXPECT_EQ(util::shutdown_signal(), 0);
    ASSERT_EQ(::raise(SIGTERM), 0);  // the handler only sets the flag
    EXPECT_TRUE(util::shutdown_requested());
    EXPECT_EQ(util::shutdown_signal(), SIGTERM);
    EXPECT_EQ(util::shutdown_exit_code(SIGTERM), 143);
    EXPECT_EQ(util::shutdown_exit_code(SIGINT), 130);
    util::reset_shutdown_for_tests();
    EXPECT_FALSE(util::shutdown_requested());
}

TEST(Fault, InertByDefault)
{
    fptc::util::FaultInjector injector;
    EXPECT_FALSE(injector.enabled());
    EXPECT_FALSE(injector.inject_nan_loss(1));
    EXPECT_FALSE(injector.inject_truncated_write());
    EXPECT_FALSE(injector.inject_csv_corruption());
    EXPECT_EQ(injector.counters().total(), 0u);
}

TEST(Fault, NanLossFiresEveryKthStep)
{
    fptc::util::FaultPlan plan;
    plan.nan_loss_every = 3;
    fptc::util::FaultInjector injector(plan);
    EXPECT_TRUE(injector.enabled());
    int fired = 0;
    for (int i = 0; i < 12; ++i) {
        fired += injector.inject_nan_loss(i + 1) ? 1 : 0;
    }
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(injector.counters().nan_losses, 4u);
}

TEST(Fault, TruncatedWritesAreFirstN)
{
    fptc::util::FaultPlan plan;
    plan.truncate_writes = 2;
    fptc::util::FaultInjector injector(plan);
    EXPECT_TRUE(injector.inject_truncated_write());
    EXPECT_TRUE(injector.inject_truncated_write());
    EXPECT_FALSE(injector.inject_truncated_write());
    EXPECT_EQ(injector.counters().truncated_writes, 2u);
}

TEST(Fault, CsvCorruptionIsDeterministicInSeed)
{
    fptc::util::FaultPlan plan;
    plan.seed = 5;
    plan.csv_row_percent = 30.0;
    fptc::util::FaultInjector a(plan);
    fptc::util::FaultInjector b(plan);
    int fired = 0;
    for (int i = 0; i < 200; ++i) {
        const bool hit = a.inject_csv_corruption();
        EXPECT_EQ(hit, b.inject_csv_corruption());
        fired += hit ? 1 : 0;
    }
    EXPECT_GT(fired, 30); // ~60 expected
    EXPECT_LT(fired, 100);
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(Env, ResolveScaleDefaults)
{
    ::unsetenv("FPTC_FULL");
    ::unsetenv("FPTC_SPLITS");
    ::unsetenv("FPTC_SEEDS");
    ::unsetenv("FPTC_EPOCHS");
    const auto scale = fptc::util::resolve_scale(5, 3, 2, 1);
    EXPECT_FALSE(scale.full);
    EXPECT_EQ(scale.splits, 2);
    EXPECT_EQ(scale.seeds, 1);
    EXPECT_LE(scale.max_epochs, 12);
}

TEST(Env, ResolveScaleOverrides)
{
    ::setenv("FPTC_FULL", "1", 1);
    ::setenv("FPTC_SPLITS", "7", 1);
    const auto scale = fptc::util::resolve_scale(5, 3, 2, 1, 40);
    EXPECT_TRUE(scale.full);
    EXPECT_EQ(scale.splits, 7);
    EXPECT_EQ(scale.seeds, 3); // paper seeds under FPTC_FULL
    EXPECT_EQ(scale.max_epochs, 40);
    ::unsetenv("FPTC_FULL");
    ::unsetenv("FPTC_SPLITS");
}

/// setenv/getenv RAII so a throwing assertion cannot leak the knob into
/// later tests.
class KnobGuard {
public:
    KnobGuard(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~KnobGuard() { ::unsetenv(name_); }

private:
    const char* name_;
};

TEST(Env, IntKnobParsesStrictly)
{
    {
        KnobGuard knob("FPTC_TEST_KNOB", "42");
        EXPECT_EQ(fptc::util::env_int("FPTC_TEST_KNOB").value_or(-1), 42);
    }
    EXPECT_FALSE(fptc::util::env_int("FPTC_TEST_KNOB").has_value());  // unset
    {
        KnobGuard knob("FPTC_TEST_KNOB", "");
        EXPECT_FALSE(fptc::util::env_int("FPTC_TEST_KNOB").has_value());  // empty
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "0");
        EXPECT_EQ(fptc::util::env_int("FPTC_TEST_KNOB").value_or(-1), 0);
    }
}

TEST(Env, IntKnobRejectsGarbageWithNameAndValue)
{
    KnobGuard knob("FPTC_TEST_KNOB", "fast");
    try {
        (void)fptc::util::env_int("FPTC_TEST_KNOB");
        FAIL() << "non-numeric knob must throw";
    } catch (const fptc::util::EnvError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("FPTC_TEST_KNOB"), std::string::npos);
        EXPECT_NE(what.find("fast"), std::string::npos);
    }
}

TEST(Env, IntKnobRejectsTrailingGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "12abc");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, IntKnobRejectsNegative)
{
    KnobGuard knob("FPTC_TEST_KNOB", "-3");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, IntKnobRejectsOverflow)
{
    KnobGuard knob("FPTC_TEST_KNOB", "99999999999999999999");
    EXPECT_THROW((void)fptc::util::env_int("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

// ---------------------------------------------------------------------------
// fault-class table
// ---------------------------------------------------------------------------

/// Every fault knob with the plan field it sets, written out apart from the
/// table so a row that pairs a knob with the wrong field fails.
struct FaultKnobField {
    const char* knob;
    double (*field)(const util::FaultPlan&);
};

#define FPTC_TEST_KNOB(knob, member) \
    {knob, [](const util::FaultPlan& plan) { return static_cast<double>(plan.member); }}
const FaultKnobField kFaultKnobFields[] = {
    FPTC_TEST_KNOB("FPTC_FAULT_SEED", seed),
    FPTC_TEST_KNOB("FPTC_FAULT_NAN_EVERY", nan_loss_every),
    FPTC_TEST_KNOB("FPTC_FAULT_TRUNCATE_WRITES", truncate_writes),
    FPTC_TEST_KNOB("FPTC_FAULT_CSV_PERCENT", csv_row_percent),
    FPTC_TEST_KNOB("FPTC_FAULT_STALL_UNITS", stall_units),
    FPTC_TEST_KNOB("FPTC_FAULT_TRANSIENT_UNITS", transient_units),
    FPTC_TEST_KNOB("FPTC_FAULT_ENOSPC_AFTER_BYTES", enospc_after_bytes),
    FPTC_TEST_KNOB("FPTC_FAULT_SHORT_WRITES", short_writes),
    FPTC_TEST_KNOB("FPTC_FAULT_FSYNC_FAIL", fsync_failures),
    FPTC_TEST_KNOB("FPTC_FAULT_CRASH_AT_WRITE", crash_at_write),
    FPTC_TEST_KNOB("FPTC_FAULT_ALLOC_FAIL_AFTER_MB", alloc_fail_after_mb),
    FPTC_TEST_KNOB("FPTC_FAULT_ALLOC_FAIL_UNITS", alloc_fail_units),
    FPTC_TEST_KNOB("FPTC_FAULT_SERVE_STALL_BACKEND", serve_stall_backend),
    FPTC_TEST_KNOB("FPTC_FAULT_SERVE_MANGLE_PACKETS", serve_mangle_percent),
    FPTC_TEST_KNOB("FPTC_FAULT_SERVE_BURST", serve_burst),
    FPTC_TEST_KNOB("FPTC_FAULT_SERVE_HANG", serve_hang_at_batch),
    FPTC_TEST_KNOB("FPTC_FAULT_KILL_SERVE", kill_serve_at_snapshot),
};
#undef FPTC_TEST_KNOB

TEST(FaultTable, EveryKnobSetsExactlyItsField)
{
    ASSERT_EQ(std::size(kFaultKnobFields), std::size(util::kFaultClasses));
    for (std::size_t row = 0; row < std::size(util::kFaultClasses); ++row) {
        EXPECT_STREQ(util::kFaultClasses[row].knob, kFaultKnobFields[row].knob);
    }
    for (const FaultKnobField& row : kFaultKnobFields) {
        const KnobGuard knob(row.knob, "7");
        const util::FaultPlan plan = util::fault_plan_from_env();
        for (const FaultKnobField& other : kFaultKnobFields) {
            EXPECT_EQ(other.field(plan), &other == &row ? 7.0 : 0.0)
                << row.knob << " set, " << other.knob << " read";
        }
    }
}

TEST(FaultTable, KnobThatOverflowsItsFieldIsRejected)
{
    {
        // 2^32 + 1 would wrap to 1 in an int: a NaN at every step.
        const KnobGuard knob("FPTC_FAULT_NAN_EVERY", "4294967297");
        try {
            (void)util::fault_plan_from_env();
            FAIL() << "an int knob over INT_MAX must throw";
        } catch (const util::EnvError& error) {
            EXPECT_NE(std::string(error.what()).find("FPTC_FAULT_NAN_EVERY"), std::string::npos);
        }
    }
    const KnobGuard knob("FPTC_FAULT_ENOSPC_AFTER_BYTES", "4294967297");  // a 64-bit field
    EXPECT_EQ(util::fault_plan_from_env().enospc_after_bytes, 4294967297);
}

TEST(FaultTable, AllocFailAfterMbDoesNotWrapToUnarmed)
{
    // 2^44 MB fits the knob's int64 field, but 2^44 << 20 bytes wraps a
    // 64-bit threshold to 0, the unarmed value: the class then never fired
    // while enabled() reported it armed.  The threshold saturates instead.
    const KnobGuard knob("FPTC_FAULT_ALLOC_FAIL_AFTER_MB", "17592186044416");
    const util::FaultPlan plan = util::fault_plan_from_env();
    ASSERT_EQ(plan.alloc_fail_after_mb, std::int64_t{1} << 44);
    util::FaultInjector faults(plan);
    EXPECT_TRUE(faults.enabled());
    faults.begin_alloc_scope();
    const std::size_t gib = std::size_t{1} << 30;
    EXPECT_FALSE(faults.inject_alloc_fail(gib));
    // The scope's bytes reach 2^64 - 1, past the saturated 2^64 - 2^20.
    EXPECT_TRUE(faults.inject_alloc_fail(std::numeric_limits<std::size_t>::max() - gib));
    EXPECT_EQ(faults.counters().alloc_rejections, 1u);
}

/// A plan with every class armed; drive_every_class() makes each one fire.
util::FaultPlan every_class_plan()
{
    util::FaultPlan plan;
    plan.seed = 3;
    plan.nan_loss_every = 2;
    plan.truncate_writes = 1;
    plan.csv_row_percent = 50.0;
    plan.stall_units = 2;
    plan.transient_units = 3;
    plan.enospc_after_bytes = 100;
    plan.short_writes = 2;
    plan.fsync_failures = 1;
    plan.crash_at_write = 1000;  // armed, never reached
    plan.alloc_fail_after_mb = 1;
    plan.alloc_fail_units = 2;
    plan.serve_stall_backend = 1;
    plan.serve_mangle_percent = 25.0;
    plan.serve_burst = 4;
    plan.serve_hang_at_batch = 2;
    plan.kill_serve_at_snapshot = 3;
    return plan;
}

void drive_every_class(util::FaultInjector& faults)
{
    for (int i = 1; i <= 10; ++i) {
        (void)faults.inject_nan_loss(static_cast<std::uint64_t>(i));
        (void)faults.inject_truncated_write();
        (void)faults.inject_csv_corruption();
        (void)faults.inject_unit_stall();
        (void)faults.inject_unit_transient();
        (void)faults.inject_enospc(30);
        (void)faults.clamp_write(10);
        (void)faults.inject_fsync_failure();
        (void)faults.inject_crash_at_write();
        (void)faults.inject_alloc_fail(400 * 1024);
        (void)faults.inject_unit_alloc_fail(static_cast<std::size_t>(i - 1));
        (void)faults.inject_serve_backend_stall();
        for (int event = 0; event < 20; ++event) {
            (void)faults.inject_serve_mangle();
            (void)faults.inject_serve_burst();
        }
        (void)faults.inject_serve_hang();
        (void)faults.inject_serve_kill();
    }
}

TEST(FaultTable, SummaryIsPinnedWithEveryClassArmed)
{
    util::FaultInjector faults(every_class_plan());
    EXPECT_TRUE(faults.enabled());
    drive_every_class(faults);
    EXPECT_EQ(faults.summary(),
              "nan_loss=5 truncated_writes=1 csv_rows=5 stalled_units=2 transient_units=3 "
              "enospc=7 short_writes=2 fsync_fail=1 alloc_reject=8 alloc_units=2 "
              "serve_stalls=1 serve_mangled=50 serve_bursts=3 serve_hangs=1 serve_kills=1");
    EXPECT_EQ(faults.counters().total(), 92u);

    util::FaultPlan seed_only;
    seed_only.seed = 9;
    EXPECT_FALSE(util::FaultInjector(seed_only).enabled());  // the seed arms nothing
}

TEST(FaultTable, EveryCounterHasItsGauge)
{
    util::fault_injector().configure(every_class_plan());
    drive_every_class(util::fault_injector());
    util::publish_fault_metrics();
    const util::FaultCounters counts = util::fault_injector().counters();
    util::fault_injector().configure(util::FaultPlan{});
    for (const util::FaultCounterSpec& spec : util::kFaultCounters) {
        EXPECT_GT(counts.*spec.field, 0u) << spec.name;
        const std::string gauge = std::string("fptc_fault_") + spec.name;
        EXPECT_EQ(util::metrics().gauge(gauge).value(),
                  static_cast<std::int64_t>(counts.*spec.field))
            << gauge;
    }
}

TEST(Env, DoubleKnobParsesStrictly)
{
    KnobGuard knob("FPTC_TEST_KNOB", "0.25");
    EXPECT_DOUBLE_EQ(fptc::util::env_double("FPTC_TEST_KNOB").value_or(-1.0), 0.25);
}

TEST(Env, DoubleKnobRejectsGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "half");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsTrailingGarbage)
{
    KnobGuard knob("FPTC_TEST_KNOB", "1.5x");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsNegative)
{
    KnobGuard knob("FPTC_TEST_KNOB", "-0.1");
    EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
}

TEST(Env, DoubleKnobRejectsOverflowAndNonFinite)
{
    {
        KnobGuard knob("FPTC_TEST_KNOB", "1e999");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "inf");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
    {
        KnobGuard knob("FPTC_TEST_KNOB", "nan");
        EXPECT_THROW((void)fptc::util::env_double("FPTC_TEST_KNOB"), fptc::util::EnvError);
    }
}

// ---------------------------------------------------------------------------
// EventRing: the one overwrite-oldest ring
// ---------------------------------------------------------------------------

/// 12 bytes: a slot holds it in two words, the second half-used.
struct SmallEvent {
    std::uint32_t seq = 0;
    std::uint32_t twice = 0;
    std::uint32_t tag = 0;
};

TEST(EventRing, WrapKeepsTheNewestWindowOldestFirst)
{
    using Ring = util::EventRing<SmallEvent>;
    static_assert(Ring::kSlotWords == 2);
    constexpr std::size_t kCapacity = 5;
    std::vector<std::uint64_t> words(Ring::words(kCapacity), 0);
    Ring ring(words.data(), kCapacity);
    EXPECT_TRUE(ring.snapshot().empty());
    EXPECT_EQ(ring.dropped(), 0u);

    for (std::uint32_t i = 0; i < 3; ++i) {
        ring.push({i, 2 * i, 7});
    }
    ASSERT_EQ(ring.snapshot().size(), 3u);
    EXPECT_EQ(ring.snapshot().front().seq, 0u);
    EXPECT_EQ(ring.dropped(), 0u);

    // 13 pushes into 5 slots: the head stops at 13 % 5 == 3, mid-ring.
    for (std::uint32_t i = 3; i < 13; ++i) {
        ring.push({i, 2 * i, 7});
    }
    EXPECT_EQ(ring.recorded(), 13u);
    EXPECT_EQ(ring.dropped(), 8u);
    const std::vector<SmallEvent> window = ring.snapshot();
    ASSERT_EQ(window.size(), kCapacity);
    for (std::size_t j = 0; j < window.size(); ++j) {
        EXPECT_EQ(window[j].seq, 8 + j);
        EXPECT_EQ(window[j].twice, 2 * (8 + j));
        EXPECT_EQ(window[j].tag, 7u);
    }

    // The words alone carry the ring: a copy, as read back from a dead
    // producer's file, decodes to the same window.
    std::vector<std::uint64_t> copy = words;
    const Ring reread(copy.data(), kCapacity);
    EXPECT_EQ(reread.recorded(), 13u);
    EXPECT_EQ(reread.dropped(), 8u);
    const std::vector<SmallEvent> again = reread.snapshot();
    ASSERT_EQ(again.size(), window.size());
    for (std::size_t j = 0; j < again.size(); ++j) {
        EXPECT_EQ(again[j].seq, window[j].seq);
    }

    ring.reset();
    EXPECT_EQ(ring.recorded(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(EventRing, LiveRecorderMatchesItsRingFileAfterWrap)
{
    TempDir dir("fptc_event_ring_file");
    const std::string ring_path = dir.file("rings.bin");
    fptc::serve::FlightRecorder recorder(
        {.ring_path = ring_path, .ring_capacity = 64, .generation = 5});
    ASSERT_TRUE(recorder.file_backed());
    using fptc::serve::FrecKind;
    using fptc::serve::FrecRing;
    // 150 and 70 events wrap their 64 slots with head % 64 = 22 and 6; the
    // classifier ring stays partly filled.
    for (std::uint64_t i = 0; i < 150; ++i) {
        recorder.note(FrecRing::driver, FrecKind::ingest, i, 3 * i, 0);
    }
    for (std::uint64_t i = 0; i < 70; ++i) {
        recorder.note(FrecRing::assembler, FrecKind::shed, 1000 + i, i, 2);
    }
    for (std::uint64_t i = 0; i < 3; ++i) {
        recorder.note(FrecRing::classifier, FrecKind::classify_end, 0, 500 + i, 1);
    }
    recorder.observe_exemplar(fptc::serve::FrecStage::ready_wait, 4000, 1042);

    const fptc::serve::Postmortem live =
        recorder.build_postmortem(fptc::serve::PostmortemReason::sigkill_reap, "", "");
    std::optional<fptc::serve::Postmortem> file =
        fptc::serve::FlightRecorder::read_ring_file(ring_path);
    ASSERT_TRUE(file.has_value());
    EXPECT_EQ(file->generation, 5u);
    ASSERT_EQ(file->rings.size(), live.rings.size());
    for (std::size_t r = 0; r < live.rings.size(); ++r) {
        const auto& a = live.rings[r];
        const auto& b = file->rings[r];
        EXPECT_EQ(a.ring, b.ring);
        EXPECT_EQ(a.recorded, b.recorded);
        EXPECT_EQ(a.dropped, b.dropped);
        ASSERT_EQ(a.events.size(), b.events.size());
        for (std::size_t j = 0; j < a.events.size(); ++j) {
            EXPECT_EQ(a.events[j].ts_ns, b.events[j].ts_ns);
            EXPECT_EQ(a.events[j].flow_id, b.events[j].flow_id);
            EXPECT_EQ(a.events[j].arg, b.events[j].arg);
            EXPECT_EQ(a.events[j].kind, b.events[j].kind);
            EXPECT_EQ(a.events[j].detail, b.events[j].detail);
        }
    }
    EXPECT_EQ(live.rings[0].dropped, 86u);
    EXPECT_EQ(live.rings[0].events.front().flow_id, 86u);
    EXPECT_EQ(live.rings[0].events.back().arg, 3u * 149);
    EXPECT_EQ(live.rings[1].events.front().flow_id, 1006u);
    EXPECT_EQ(live.rings[1].events.front().detail, 2u);
    EXPECT_EQ(live.rings[2].events.size(), 3u);
    // Everything the codec carries agrees, exemplars included.
    file->reason = live.reason;
    EXPECT_EQ(fptc::serve::encode_postmortem(*file), fptc::serve::encode_postmortem(live));
    recorder.remove_backing();
}

/// Both words carry the sequence number, so a torn read shows.
struct SeqEvent {
    std::uint64_t seq = 0;
    std::uint64_t check = 0;
};

TEST(EventRing, ReaderSnapshotsWhileProducerPushes)
{
    using Ring = util::EventRing<SeqEvent>;
    constexpr std::size_t kCapacity = 128;
    constexpr std::uint64_t kEvents = 200000;
    std::vector<std::uint64_t> words(Ring::words(kCapacity), 0);
    Ring ring(words.data(), kCapacity);
    std::atomic<bool> done{false};
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            ring.push({i, ~i});
        }
        done.store(true, std::memory_order_release);
    });
    // A slot only ever holds events whose sequence number is its index mod
    // the capacity, so even an event the producer overwrote mid-read keeps
    // each word in its slot's residue class; consecutive slots, consecutive
    // residues.
    std::uint64_t last_recorded = 0;
    bool producer_done = false;
    do {
        producer_done = done.load(std::memory_order_acquire);
        const std::vector<SeqEvent> window = ring.snapshot();
        ASSERT_LE(window.size(), kCapacity);
        for (std::size_t j = 0; j < window.size(); ++j) {
            ASSERT_EQ(window[j].seq % kCapacity, (window[0].seq + j) % kCapacity);
            ASSERT_EQ((~window[j].check) % kCapacity, (window[0].seq + j) % kCapacity);
        }
        const std::uint64_t recorded = ring.recorded();
        ASSERT_GE(recorded, last_recorded);
        last_recorded = recorded;
    } while (!producer_done);
    producer.join();
    EXPECT_EQ(ring.recorded(), kEvents);
    EXPECT_EQ(ring.dropped(), kEvents - kCapacity);
    const std::vector<SeqEvent> window = ring.snapshot();
    ASSERT_EQ(window.size(), kCapacity);
    for (std::size_t j = 0; j < window.size(); ++j) {
        EXPECT_EQ(window[j].seq, kEvents - kCapacity + j);
        EXPECT_EQ(window[j].check, ~window[j].seq);
    }
}

} // namespace
