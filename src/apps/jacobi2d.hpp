#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "apps/driver.hpp"
#include "charm/runtime.hpp"

namespace ehpc::apps {

/// Configuration of the 2D Jacobi heat-equation solver (paper §4.1):
/// a `grid_n` × `grid_n` model grid decomposed into `blocks_x` × `blocks_y`
/// chares, iterating a 5-point stencil. Communication-intensive.
///
/// Resolution scaling: each block *executes* a real grid capped at
/// `max_real_block` cells per edge while declaring the model-size flops,
/// message bytes and checkpoint bytes to the machine model. Small problems
/// run at full resolution; a 16384² problem runs its numerics on a reduced
/// grid but is costed (compute, ghosts, checkpoints) at full size.
struct JacobiConfig {
  int grid_n = 2048;
  int blocks_x = 16;
  int blocks_y = 16;
  int max_real_block = 64;
  int max_iterations = 50;
  double flops_per_cell = 6.0;
};

/// One block of the decomposed grid, owning (real_w+2) × (real_h+2) doubles
/// including ghost rows. Migratable: `pup` carries the grid and iteration
/// state through checkpoints and migrations.
class JacobiBlock final : public charm::Chare {
 public:
  /// Ghost directions; `opposite` pairs exchange strips.
  enum Dir { kLeft = 0, kRight = 1, kUp = 2, kDown = 3 };
  static Dir opposite(Dir d);

  JacobiBlock(int real_w, int real_h, int num_neighbors, bool top_boundary);

  void pup(charm::Pup& p) override;

  /// Boundary strip to send towards `d` (real resolution).
  std::vector<double> strip(Dir d) const;

  /// Install a strip received from direction `d` into the ghost layer.
  void apply_ghost(Dir d, const std::vector<double>& values);

  bool all_ghosts_received() const { return recv_count_ >= num_neighbors_; }

  /// The block saw this iteration's "start" message and has published its
  /// strips; computing before that would corrupt neighbours' ghosts.
  void mark_started() { started_ = true; }
  bool started() const { return started_; }
  bool ready_to_compute() const { return started_ && all_ghosts_received(); }

  /// One 5-point Jacobi sweep over the interior; returns max |delta|.
  /// Resets the ghost-receive counter and start flag for the next iteration.
  double compute();

  int iteration() const { return iteration_; }
  int real_w() const { return real_w_; }
  int real_h() const { return real_h_; }
  double cell(int x, int y) const;  ///< interior cell (0-based), for tests

 private:
  double& at(int gx, int gy);        // ghosted coordinates
  double at(int gx, int gy) const;

  int real_w_;
  int real_h_;
  int num_neighbors_;
  int iteration_ = 0;
  int recv_count_ = 0;
  bool started_ = false;
  std::vector<double> grid_;   // (real_w_+2) * (real_h_+2), row-major
  std::vector<double> next_;   // scratch for the sweep
};

/// The Jacobi2D application: builds the chare array, wires ghost-exchange
/// messaging, and drives iterations through an IterationDriver. Rescale
/// commands posted to the runtime's CCS endpoint are honoured at iteration
/// boundaries.
class Jacobi2D {
 public:
  using Config = JacobiConfig;
  /// Leading iterations calibration leaves out of the step time: a regular
  /// stencil settles into a steady state after the startup transient.
  static constexpr int kCalibrationWarmup = 2;

  Jacobi2D(charm::Runtime& rt, JacobiConfig config);

  /// Kick iteration 0. Call `rt.run()` (or run_until) afterwards.
  void start() { driver_->start(); }

  IterationDriver& driver() { return *driver_; }
  const IterationDriver& driver() const { return *driver_; }

  charm::ArrayId array() const { return array_; }
  const JacobiConfig& config() const { return config_; }

  /// Model-scale problem footprint in bytes (grid_n² doubles).
  double model_bytes() const;

  /// Max-|delta| residual of the last completed iteration.
  double residual() const { return driver_->last_reduction_value(); }

 private:
  int block_index(int bx, int by) const { return by * config_.blocks_x + bx; }
  int neighbor_count(int bx, int by) const;
  void kick(int iteration);
  void send_strip(int from_bx, int from_by, JacobiBlock::Dir d);
  void maybe_compute(JacobiBlock& block, charm::Runtime& rt);

  charm::Runtime& rt_;
  JacobiConfig config_;
  int model_block_w_;
  int model_block_h_;
  int real_block_w_;
  int real_block_h_;
  double flops_per_block_;
  std::size_t strip_bytes_x_;  // model bytes of a horizontal (up/down) strip
  std::size_t strip_bytes_y_;  // model bytes of a vertical (left/right) strip
  charm::ArrayId array_;
  std::unique_ptr<IterationDriver> driver_;
};

}  // namespace ehpc::apps
