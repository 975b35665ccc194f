#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "apps/driver.hpp"
#include "charm/runtime.hpp"

namespace ehpc::apps {

/// Configuration of the AMR-like adaptive-mesh workload: a ring of `blocks`
/// mesh patches, each at a refinement level in [0, max_depth]. Per-patch
/// cost grows 4x per level (2D refinement), and levels evolve over the run
/// through deterministic refinement/coarsening events drawn from a
/// counter-based RNG stream keyed on (seed, patch, iteration) — the event
/// sequence is independent of placement, migration and rescale history.
///
/// A refinement "front" sweeps the ring (`front_speed` patches per
/// iteration): patches near the front refine aggressively while patches far
/// from it decay back to the base mesh, so the load distribution is both
/// heavily imbalanced and time-varying — the regime that exercises the
/// runtime's load balancer, unlike the near-uniform Jacobi2D/LeanMD apps.
///
/// Resolution scaling mirrors Jacobi2D: each patch executes at most
/// `max_real_cells` real cells while declaring the model-scale flops,
/// message bytes and checkpoint bytes of `cells_per_block * 4^level`.
struct AmrConfig {
  int blocks = 64;             ///< patches in the ring (chare count)
  int cells_per_block = 4096;  ///< model cells of an unrefined patch
  int max_real_cells = 256;    ///< executed cells cap per patch
  int max_depth = 3;           ///< refinement levels above the base mesh
  double refine_rate = 0.12;   ///< base P(refine) per patch per iteration
  double coarsen_rate = 0.06;  ///< base P(coarsen) per patch per iteration
  double front_speed = 1.5;    ///< patches the refinement front advances per iteration
  int max_iterations = 40;
  double flops_per_cell = 8.0;
  unsigned seed = 2025;        ///< refinement event stream seed
};

/// One mesh patch: its refinement level and (reduced-resolution) cell data.
/// Migratable; `pup` carries level, data and iteration state.
class AmrBlock final : public charm::Chare {
 public:
  enum Dir { kLeft = 0, kRight = 1 };

  AmrBlock(int real_cells, int num_neighbors);

  void pup(charm::Pup& p) override;

  int level() const { return level_; }
  int iteration() const { return iteration_; }
  int real_cells() const { return static_cast<int>(data_.size()); }

  /// Boundary flux to send towards `d` (up to `kFluxDoubles` real values).
  std::vector<double> flux(Dir d) const;

  /// Install a neighbour's flux received from direction `d`.
  void apply_flux(Dir d, const std::vector<double>& values);

  void mark_started() { started_ = true; }
  bool started() const { return started_; }
  bool ready_to_compute() const { return started_ && recv_count_ >= num_neighbors_; }

  /// One relaxation sweep over the patch; returns max |delta|. Resets the
  /// per-iteration flux/start gates.
  double compute();

  /// Refine (delta = +1) or coarsen (delta = -1) the patch, resampling the
  /// real data to `new_real_cells` deterministically.
  void change_level(int delta, int new_real_cells);

  /// Real values at each boundary exchanged per iteration.
  static constexpr int kFluxDoubles = 8;

 private:
  int num_neighbors_;
  int level_ = 0;
  int iteration_ = 0;
  int recv_count_ = 0;
  bool started_ = false;
  std::vector<double> data_;
  std::vector<double> ghost_left_;
  std::vector<double> ghost_right_;
};

/// The AMR application: builds the patch ring, wires flux messaging and the
/// per-iteration work reduction, applies refinement events, and drives
/// iterations through an IterationDriver (so CCS rescale commands and
/// periodic load balancing are honoured at iteration boundaries).
class Amr {
 public:
  using Config = AmrConfig;
  /// Calibration reads the mean step time over the whole run: the adapting
  /// mesh has no steady state.
  static constexpr int kCalibrationWarmup = 0;

  Amr(charm::Runtime& rt, AmrConfig config);

  /// Kick iteration 0. Call `rt.run()` (or run_until) afterwards.
  void start() { driver_->start(); }

  IterationDriver& driver() { return *driver_; }
  const IterationDriver& driver() const { return *driver_; }

  charm::ArrayId array() const { return array_; }
  const AmrConfig& config() const { return config_; }

  /// Model cells of a patch at `level` (4x per level, 2D refinement).
  double model_cells(int level) const;

  /// Current refinement level of patch `e`.
  int level_of(int e) const;

  /// Sum of model cells over all patches at their current levels.
  double total_model_cells() const;

  /// Model-scale problem footprint in bytes at the current levels.
  double model_bytes() const;

  /// Model cells advanced by the last completed iteration (the kSum
  /// reduction value): varies over the run as the mesh adapts.
  double cells_last_iteration() const { return driver_->last_reduction_value(); }

  /// Deterministic event draw in [0, 1) for (seed, patch, iteration):
  /// a splitmix64 hash, so the stream is placement-independent.
  static double event_draw(unsigned seed, int elem, int iteration);

 private:
  int real_cells_at(int level) const;
  void kick(int iteration);
  void send_flux(int from, AmrBlock::Dir d);
  void maybe_compute(int elem, AmrBlock& block, charm::Runtime& rt);
  void apply_refinement_event(int elem, AmrBlock& block);

  charm::Runtime& rt_;
  AmrConfig config_;
  int base_edge_;  ///< model cells along a patch edge at level 0
  charm::ArrayId array_;
  std::unique_ptr<IterationDriver> driver_;
};

}  // namespace ehpc::apps
