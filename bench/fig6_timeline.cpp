// Reproduces paper Figure 6: Jacobi2D (16384^2) timeline with a shrink from
// 32 to 16 replicas and a later expand back to 32.
//   Fig 6a: time taken by each consecutive 10-iteration window.
//   Fig 6b: timestamp at which every 10th iteration completes (the rescale
//           gaps appear as jumps; the slope change shows the speed change).

#include <string>

#include "apps/calibration.hpp"
#include "apps/jacobi2d.hpp"
#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"

using namespace ehpc;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const int iters = cfg.get_int("iters", 3000);
  const int shrink_at = cfg.get_int("shrink_at", 1000);
  const int expand_at = cfg.get_int("expand_at", 2000);
  const int sample = cfg.get_int("sample", 10);
  // The timeline loop below steps by `sample`, and window_at reads back
  // `sample` iterations.
  if (sample <= 0) {
    throw ConfigError("sample must be > 0, got '" + cfg.get_or("sample", "") +
                      "'");
  }
  // The note's window_at(shrink_at - sample) reads back to iteration
  // shrink_at - 2*sample, and a rescale hook at or past `iters` never fires.
  if (2LL * sample > shrink_at || shrink_at >= expand_at || expand_at >= iters) {
    throw ConfigError("need 2*sample <= shrink_at < expand_at < iters, got sample=" +
                      std::to_string(sample) + " shrink_at=" +
                      std::to_string(shrink_at) + " expand_at=" +
                      std::to_string(expand_at) + " iters=" +
                      std::to_string(iters));
  }

  charm::RuntimeConfig rc;
  rc.num_pes = 32;
  charm::Runtime rt(rc);
  apps::Jacobi2D app(rt, apps::jacobi_for_grid(16384, iters));
  app.driver().at_iteration(shrink_at,
                            [](charm::Runtime& r) { r.ccs().request_rescale(16); });
  app.driver().at_iteration(expand_at,
                            [](charm::Runtime& r) { r.ccs().request_rescale(32); });
  app.start();
  rt.run();

  const auto& times = app.driver().iteration_end_times();
  Table& timeline = rep.add_table(
      "fig6_timeline",
      "Figure 6a/6b: per-" + std::to_string(sample) +
          "-iteration window time and completion timestamps",
      {"iteration", "window_time_s", "timestamp_s"});
  for (std::size_t i = static_cast<std::size_t>(sample); i < times.size();
       i += static_cast<std::size_t>(sample)) {
    timeline.add_row(
        {std::to_string(i),
         format_double(times[i] - times[i - static_cast<std::size_t>(sample)], 4),
         format_double(times[i], 2)});
  }

  Table& events = rep.add_table(
      "fig6_rescale_events", "Rescale events",
      {"direction", "old_pes", "new_pes", "load_balance_s", "checkpoint_s",
       "restart_s", "restore_s", "total_s"});
  for (const auto& t : rt.rescale_history()) {
    events.add_row({t.direction == charm::RescaleDirection::kShrink ? "shrink"
                                                                    : "expand",
                    std::to_string(t.old_pes), std::to_string(t.new_pes),
                    format_double(t.load_balance_s, 3),
                    format_double(t.checkpoint_s, 3),
                    format_double(t.restart_s, 3),
                    format_double(t.restore_s, 3),
                    format_double(t.total(), 3)});
  }

  // Steady-state window times in the three regimes.
  auto window_at = [&](int iter) {
    return times[static_cast<std::size_t>(iter)] -
           times[static_cast<std::size_t>(iter - sample)];
  };
  rep.note("Window time before shrink: " +
           format_double(window_at(shrink_at - sample), 4) +
           "s, while shrunk: " + format_double(window_at(expand_at - sample), 4) +
           "s, after expand: " + format_double(window_at(iters - sample), 4) +
           "s");
}

const bench::RegisterBench kReg{{
    "fig6_timeline",
    "Figure 6: Jacobi2D 16384^2 timeline with a 32->16 shrink and 16->32 expand",
    {{"iters", "3000", "total iterations"},
     {"shrink_at", "1000", "iteration of the 32->16 shrink"},
     {"expand_at", "2000", "iteration of the 16->32 expand"},
     {"sample", "10", "window size in iterations"}},
    {{"iters", "600"}, {"shrink_at", "200"}, {"expand_at", "400"}},
    run}};

}  // namespace
