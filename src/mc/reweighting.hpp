// Multiple-histogram reweighting (Ferrenberg-Swendsen / WHAM).
//
// Combines canonical energy histograms collected at several temperatures
// (e.g. by parallel tempering) into one density-of-states estimate:
//
//   ln g(E)  = ln[ sum_k H_k(E) ] - ln[ sum_k N_k exp(f_k - beta_k E) ]
//   f_k      = -ln Z_k = -LSE_E[ ln g(E) - beta_k E ]
//
// iterated to self-consistency, everything in log space. This is the
// conventional route to alloy thermodynamics that DeepThermo's direct
// flat-histogram evaluation replaces; tests cross-check the two against
// exact enumeration.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/dos.hpp"
#include "mc/energy_grid.hpp"

namespace dt::mc {

struct WhamResult {
  DensityOfStates dos;          ///< unnormalised ln g over visited bins
  std::vector<double> log_z;    ///< per-temperature ln Z (self-consistent)
  int iterations = 0;
  bool converged = false;
};

/// `histograms[k]` holds the visit counts of temperature `temperatures[k]`
/// on the shared grid. Bins with zero total count are left unvisited.
/// Stops at self-consistency or at an iteration cap; `converged` says
/// which.
WhamResult wham(const EnergyGrid& grid,
                const std::vector<Histogram>& histograms,
                const std::vector<double>& temperatures);

}  // namespace dt::mc
