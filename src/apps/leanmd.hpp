#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "apps/driver.hpp"
#include "charm/runtime.hpp"

namespace ehpc::apps {

/// Configuration of the LeanMD-style molecular dynamics mini-app (paper
/// §4.1): a 3D grid of cells, each holding atoms interacting through the
/// Lennard-Jones potential with atoms in the 6 face-neighbour cells.
/// Compute-intensive: flops grow with atoms², messages stay small.
///
/// Resolution scaling mirrors Jacobi2D: each cell integrates
/// `real_atoms_per_cell` real atoms while charging the flops and bytes of
/// `atoms_per_cell` model atoms.
struct LeanMdConfig {
  int cells_x = 4;
  int cells_y = 4;
  int cells_z = 4;
  int atoms_per_cell = 400;       ///< model atoms per cell (costing)
  int real_atoms_per_cell = 12;   ///< executed atoms per cell (numerics)
  int max_iterations = 30;
  double flops_per_pair = 45.0;   ///< LJ evaluation cost per atom pair
  double dt = 1.0e-3;             ///< integration step
  unsigned seed = 12345;          ///< initial-condition seed
};

/// One spatial cell: positions/velocities/forces of its atoms. Migratable.
class MdCell final : public charm::Chare {
 public:
  MdCell(int num_atoms, int num_neighbors, unsigned seed,
         std::array<double, 3> origin);

  void pup(charm::Pup& p) override;

  /// Snapshot of atom positions to send to neighbours (x0,y0,z0,x1,...).
  std::vector<double> positions() const { return pos_; }

  /// Accumulate LJ forces between own atoms and a neighbour's atoms; returns
  /// the pair potential energy. Safe to call before this cell's own "start"
  /// (own positions are already this iteration's state).
  double interact(const std::vector<double>& other_positions);

  void mark_started() { started_ = true; }
  bool started() const { return started_; }
  bool all_received() const { return recv_count_ >= num_neighbors_; }
  bool ready_to_integrate() const { return started_ && all_received(); }

  /// Self-interactions plus a velocity-Verlet-style update; returns kinetic
  /// energy. Resets per-iteration counters.
  double integrate(double dt);

  int iteration() const { return iteration_; }
  int num_atoms() const { return num_atoms_; }
  double kinetic_energy() const;

 private:
  int num_atoms_;
  int num_neighbors_;
  int iteration_ = 0;
  int recv_count_ = 0;
  bool started_ = false;
  std::vector<double> pos_;    // 3 * num_atoms_
  std::vector<double> vel_;
  std::vector<double> force_;
};

/// The LeanMD application: builds the cell array, wires position exchange
/// and the energy reduction, drives iterations via IterationDriver.
class LeanMd {
 public:
  using Config = LeanMdConfig;
  /// Leading iterations calibration leaves out of the step time: fixed
  /// cells settle into a steady state after the startup transient.
  static constexpr int kCalibrationWarmup = 2;

  LeanMd(charm::Runtime& rt, LeanMdConfig config);

  void start() { driver_->start(); }

  IterationDriver& driver() { return *driver_; }
  const IterationDriver& driver() const { return *driver_; }

  charm::ArrayId array() const { return array_; }
  const LeanMdConfig& config() const { return config_; }
  int num_cells() const { return config_.cells_x * config_.cells_y * config_.cells_z; }

  /// Total energy reported by the last completed step.
  double energy() const { return driver_->last_reduction_value(); }

 private:
  int cell_index(int cx, int cy, int cz) const;
  int neighbor_count(int cx, int cy, int cz) const;
  void kick(int iteration);
  void send_positions(int cx, int cy, int cz, int dim, int dir);
  void maybe_integrate(MdCell& cell, charm::Runtime& rt);

  charm::Runtime& rt_;
  LeanMdConfig config_;
  double flops_per_exchange_;   // model atoms² * flops_per_pair
  double flops_self_;
  std::size_t position_bytes_;  // model atoms * 3 doubles
  charm::ArrayId array_;
  std::unique_ptr<IterationDriver> driver_;
};

}  // namespace ehpc::apps
