// Reproduces paper Figure 4: strong scaling of Charm++ applications on the
// (emulated) Kubernetes cluster.
//   Fig 4a: Jacobi2D time per iteration vs replicas, grids 2048/8192/16384.
//   Fig 4b: LeanMD time per step vs replicas, cells 4x4x4 / 4x4x8 / 4x8x8.

#include "apps/calibration.hpp"
#include "apps/leanmd.hpp"
#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"

using namespace ehpc;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const int iters = cfg.get_int("iters", 12);
  const std::vector<int> replicas{4, 8, 16, 32, 64};

  Table& jacobi = rep.add_table(
      "fig4a_jacobi", "Figure 4a: Jacobi2D strong scaling (time per iteration, s)",
      {"replicas", "2048x2048", "8192x8192", "16384x16384"});
  std::vector<std::vector<apps::ScalingPoint>> jcols;
  for (int grid : {2048, 8192, 16384}) {
    jcols.push_back(apps::measure_scaling<apps::Jacobi2D>(
        apps::jacobi_for_grid(grid, iters), replicas));
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    jacobi.add_row({std::to_string(replicas[i]),
                    format_double(jcols[0][i].time_per_step_s, 5),
                    format_double(jcols[1][i].time_per_step_s, 5),
                    format_double(jcols[2][i].time_per_step_s, 5)});
  }

  Table& leanmd = rep.add_table(
      "fig4b_leanmd", "Figure 4b: LeanMD strong scaling (time per step, s)",
      {"replicas", "4x4x4", "4x4x8", "4x8x8"});
  std::vector<std::vector<apps::ScalingPoint>> lcols;
  for (auto [cy, cz] : {std::pair{4, 4}, std::pair{4, 8}, std::pair{8, 8}}) {
    apps::LeanMdConfig md;
    md.cells_x = 4;
    md.cells_y = cy;
    md.cells_z = cz;
    md.atoms_per_cell = 400;
    md.real_atoms_per_cell = 8;
    md.max_iterations = iters;
    lcols.push_back(apps::measure_scaling<apps::LeanMd>(md, replicas));
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    leanmd.add_row({std::to_string(replicas[i]),
                    format_double(lcols[0][i].time_per_step_s, 5),
                    format_double(lcols[1][i].time_per_step_s, 5),
                    format_double(lcols[2][i].time_per_step_s, 5)});
  }

  // Shape check the paper reports: large problems keep scaling; small ones
  // flatten.
  const double speedup_16k =
      jcols[2].front().time_per_step_s / jcols[2].back().time_per_step_s;
  const double speedup_2k =
      jcols[0].front().time_per_step_s / jcols[0].back().time_per_step_s;
  rep.note("Jacobi 4->64 replica speedup: 16384^2 = " +
           format_double(speedup_16k, 2) +
           "x, 2048^2 = " + format_double(speedup_2k, 2) + "x");
}

const bench::RegisterBench kReg{{
    "fig4_scaling",
    "Figure 4: Jacobi2D and LeanMD strong scaling on the emulated cluster",
    {{"iters", "12", "iterations per measurement (>= 3; warmup is discarded)"}},
    {{"iters", "4"}},
    run}};

}  // namespace
