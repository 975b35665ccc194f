// Reproduces paper Figure 5: contribution of the four rescaling stages
// (load balancing, checkpoint, restart, restore) to the total overhead.
//   Fig 5a: shrink to half, replicas 4..60, Jacobi 8192^2.
//   Fig 5b: expand to double, replicas 2..32, Jacobi 8192^2.
//   Fig 5c: shrink 32 -> 16 for grids 512..32768.

#include "apps/calibration.hpp"
#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"

using namespace ehpc;

namespace {

void add_timing_row(Table& table, const std::string& label,
                    const charm::RescaleTiming& t) {
  table.add_row({label, format_double(t.load_balance_s, 4),
                 format_double(t.checkpoint_s, 4), format_double(t.restart_s, 4),
                 format_double(t.restore_s, 4), format_double(t.total(), 4)});
}

void run(bench::Reporter& rep, const Config& cfg) {
  const int grid = cfg.get_int("grid", 8192);
  const std::vector<std::string> headers{
      "x", "load_balance_s", "checkpoint_s", "restart_s", "restore_s", "total_s"};

  Table& shrink = rep.add_table(
      "fig5a_shrink",
      "Figure 5a: shrink to half (Jacobi " + std::to_string(grid) +
          "^2); x = replicas before",
      headers);
  for (int from : {4, 8, 16, 32, 60}) {
    add_timing_row(shrink, std::to_string(from),
                   apps::measure_rescale<apps::Jacobi2D>(
                       apps::jacobi_for_grid(grid), from, from / 2));
  }

  Table& expand = rep.add_table(
      "fig5b_expand",
      "Figure 5b: expand to double (Jacobi " + std::to_string(grid) +
          "^2); x = replicas before",
      headers);
  for (int from : {2, 4, 8, 16, 32}) {
    add_timing_row(expand, std::to_string(from),
                   apps::measure_rescale<apps::Jacobi2D>(
                       apps::jacobi_for_grid(grid), from, from * 2));
  }

  Table& bysize = rep.add_table(
      "fig5c_by_size",
      "Figure 5c: shrink 32 -> 16; x = grid size (one dimension)", headers);
  for (int g : {512, 2048, 8192, 32768}) {
    add_timing_row(bysize, std::to_string(g),
                   apps::measure_rescale<apps::Jacobi2D>(
                       apps::jacobi_for_grid(g), 32, 16));
  }

  rep.note(
      "Expected shapes: restart grows with replicas; checkpoint and restore\n"
      "shrink with replicas (fixed problem) and grow with problem size;\n"
      "restart dominates small problems.");
}

const bench::RegisterBench kReg{{
    "fig5_rescale_overhead",
    "Figure 5: rescaling stage contributions (LB, checkpoint, restart, restore)",
    {{"grid", "8192", "Jacobi grid dimension for 5a/5b"}},
    {},
    run}};

}  // namespace
