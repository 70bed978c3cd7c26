// StreamingClassifier::run when a stage thread cannot start.  The run must
// wind down the stage that did start, join it and rethrow; a joinable
// std::thread destroyed during unwinding would end the process in
// std::terminate instead.  This executable defines pthread_create, which
// then wins over libc's for every caller (std::thread included), so a start
// failure is forced without touching any process or thread limit.

#include "fptc/serve/backend.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/stream.hpp"
#include "fptc/util/membudget.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <system_error>

#include <dlfcn.h>
#include <pthread.h>

namespace {

/// Fail the n-th pthread_create from now with EAGAIN (0 = fail none).
std::atomic<int> g_fail_call{0};

} // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept
{
    using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
    static const auto real = reinterpret_cast<Create>(::dlsym(RTLD_NEXT, "pthread_create"));
    if (g_fail_call.load() > 0 && g_fail_call.fetch_sub(1) == 1) {
        return EAGAIN;
    }
    return real(thread, attr, start, arg);
}

using namespace fptc;

TEST(ServeSpawn, StageThreadThatCannotStartFailsTheRun)
{
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    config.hang_stall_s = 0.0;  // no watchdog thread: the assembler starts first
    const std::size_t before = util::mem_budget().in_use();
    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    // 1: the assembler does not start.  2: the classifier does not start
    // while the assembler runs.  3: every stage starts.
    for (int call = 1; call <= 3; ++call) {
        serve::InterleavedStream stream({.flows = 20, .seed = 11});
        serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                           *backends.fallback);
        g_fail_call = call;
        try {
            const serve::ServeReport report = service.run(stream);
            EXPECT_EQ(call, 3) << "the run did not see its stage thread fail to start";
            EXPECT_TRUE(report.accounted()) << report.summary();
            EXPECT_EQ(report.events_total, stream.events_emitted());
        } catch (const std::system_error& error) {
            EXPECT_LT(call, 3) << error.what();
            EXPECT_EQ(error.code(), std::errc::resource_unavailable_try_again);
        }
        g_fail_call = 0;
    }
    backends = {};
    EXPECT_EQ(util::mem_budget().in_use(), before);
}
