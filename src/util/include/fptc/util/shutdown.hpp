// Signal-safe campaign shutdown.
//
// Long campaigns are managed with process signals: operators Ctrl-C
// interactive runs, schedulers kill over-budget jobs, and the serve
// supervisor forwards SIGTERM to its worker.  A process that dies without
// flushing its telemetry sinks or journaling how far it got wastes the
// post-mortem; this module makes SIGTERM/SIGINT *cooperative* instead of
// fatal:
//
//   * install_shutdown_handlers() (idempotent, called by every
//     CampaignExecutor) installs handlers that only set an atomic flag —
//     nothing async-signal-unsafe runs in signal context,
//   * the executor's scheduling loop polls shutdown_signal() and trips the
//     campaign-wide CancelToken, so running units unwind at their next
//     per-batch poll,
//   * run_all() then appends a final `__shutdown__` journal record (signal,
//     progress counters), flushes trace/metrics/profile sinks, and exits
//     with the conventional 128+signum status — a terminated campaign still
//     leaves a parseable journal and valid telemetry artifacts behind.
//
// A second SIGTERM/SIGINT is an operator insisting: the handler _exits
// immediately with 128+signum (skipping flushes), so a wedged unit cannot
// make the process unkillable short of SIGKILL.
#pragma once

namespace fptc::util {

/// Install the SIGTERM/SIGINT handlers once per process.  Safe to call
/// repeatedly and from multiple threads.
void install_shutdown_handlers();

/// Signal number of the first SIGTERM/SIGINT received (0 = none yet).
[[nodiscard]] int shutdown_signal() noexcept;

/// True once a shutdown signal has been received.
[[nodiscard]] bool shutdown_requested() noexcept;

/// Conventional exit status for a signal-driven shutdown (128 + signum).
[[nodiscard]] int shutdown_exit_code(int signum) noexcept;

/// Clear the latched signal so later tests observe a clean state.  Test
/// isolation only; production code never un-requests a shutdown.
void reset_shutdown_for_tests() noexcept;

} // namespace fptc::util
