#include "lattice/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace dt::lattice {

namespace {

/// Fractional basis positions within the conventional cubic cell.
std::vector<std::array<double, 3>> basis_positions(LatticeType type) {
  switch (type) {
    case LatticeType::kSimpleCubic:
      return {{0.0, 0.0, 0.0}};
    case LatticeType::kBCC:
      return {{0.0, 0.0, 0.0}, {0.5, 0.5, 0.5}};
    case LatticeType::kFCC:
      return {{0.0, 0.0, 0.0},
              {0.5, 0.5, 0.0},
              {0.5, 0.0, 0.5},
              {0.0, 0.5, 0.5}};
  }
  throw Error("unknown lattice type");
}

struct Offset {
  int dcx, dcy, dcz;  // cell displacement
  int basis;          // target basis index
};

int wrap(int v, int n) {
  v %= n;
  return v < 0 ? v + n : v;
}

}  // namespace

std::string to_string(LatticeType type) {
  switch (type) {
    case LatticeType::kSimpleCubic:
      return "sc";
    case LatticeType::kBCC:
      return "bcc";
    case LatticeType::kFCC:
      return "fcc";
  }
  return "?";
}

int basis_count(LatticeType type) {
  return static_cast<int>(basis_positions(type).size());
}

Lattice Lattice::create(LatticeType type, int nx, int ny, int nz,
                        int n_shells) {
  DT_CHECK_MSG(nx >= 1 && ny >= 1 && nz >= 1,
               "lattice dims must be positive: " << nx << "x" << ny << "x" << nz);
  DT_CHECK_MSG(n_shells >= 1 && n_shells <= kMaxShells,
               "n_shells out of supported range: " << n_shells);

  Lattice lat;
  lat.type_ = type;
  lat.nx_ = nx;
  lat.ny_ = ny;
  lat.nz_ = nz;
  const auto basis = basis_positions(type);
  lat.basis_ = static_cast<int>(basis.size());
  lat.num_sites_ =
      static_cast<std::int32_t>(nx) * ny * nz * lat.basis_;

  // Enumerate candidate neighbours of each basis position within a window
  // of cells wide enough for the requested shells (3 cells covers the 6th
  // shell of all cubic lattices).
  constexpr int kWindow = 3;
  constexpr double kTol = 1e-9;

  // shell distance -> per-basis offsets
  std::map<long long, std::vector<std::vector<Offset>>> by_dist;
  for (int b = 0; b < lat.basis_; ++b) {
    for (int dz = -kWindow; dz <= kWindow; ++dz) {
      for (int dy = -kWindow; dy <= kWindow; ++dy) {
        for (int dx = -kWindow; dx <= kWindow; ++dx) {
          for (int tb = 0; tb < lat.basis_; ++tb) {
            if (dx == 0 && dy == 0 && dz == 0 && tb == b) continue;
            const double rx = dx + basis[static_cast<std::size_t>(tb)][0] -
                              basis[static_cast<std::size_t>(b)][0];
            const double ry = dy + basis[static_cast<std::size_t>(tb)][1] -
                              basis[static_cast<std::size_t>(b)][1];
            const double rz = dz + basis[static_cast<std::size_t>(tb)][2] -
                              basis[static_cast<std::size_t>(b)][2];
            const double d2 = rx * rx + ry * ry + rz * rz;
            // Quantize distance for exact grouping (d2 is a multiple of
            // 0.25 on all cubic lattices).
            const auto key = static_cast<long long>(std::llround(d2 / 0.25));
            DT_CHECK(std::abs(static_cast<double>(key) * 0.25 - d2) < kTol);
            auto& group = by_dist[key];
            if (group.empty())
              group.resize(static_cast<std::size_t>(lat.basis_));
            group[static_cast<std::size_t>(b)].push_back(
                Offset{dx, dy, dz, tb});
          }
        }
      }
    }
  }

  DT_CHECK_MSG(static_cast<int>(by_dist.size()) >= n_shells,
               "cannot resolve " << n_shells << " shells");

  auto it = by_dist.begin();
  std::vector<std::vector<std::vector<Offset>>> shell_offsets;  // [shell][basis]
  for (int s = 0; s < n_shells; ++s, ++it) {
    lat.shell_d2_.push_back(static_cast<double>(it->first) * 0.25);
    shell_offsets.push_back(it->second);
    const auto z0 = it->second.at(0).size();
    for (const auto& per_basis : it->second)
      DT_CHECK_MSG(per_basis.size() == z0,
                   "inconsistent coordination across basis positions");
    lat.shell_z_.push_back(static_cast<int>(z0));
    // Require the supercell to be at least twice the largest offset so
    // that a site never lists itself or a duplicate image as a neighbour.
    for (const auto& per_basis : it->second) {
      for (const auto& o : per_basis) {
        DT_CHECK_MSG(std::abs(o.dcx) * 2 <= nx && std::abs(o.dcy) * 2 <= ny &&
                         std::abs(o.dcz) * 2 <= nz,
                     "supercell too small for shell " << s);
      }
    }
  }

  // Instantiate flat per-site neighbour tables.
  lat.flat_.resize(static_cast<std::size_t>(n_shells));
  for (int s = 0; s < n_shells; ++s) {
    const auto z = static_cast<std::size_t>(lat.shell_z_[static_cast<std::size_t>(s)]);
    auto& flat = lat.flat_[static_cast<std::size_t>(s)];
    flat.resize(static_cast<std::size_t>(lat.num_sites_) * z);
    for (std::int32_t site = 0; site < lat.num_sites_; ++site) {
      const auto [cx, cy, cz, b] = lat.decompose(site);
      const auto& offsets =
          shell_offsets[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)];
      for (std::size_t n = 0; n < z; ++n) {
        const auto& o = offsets[n];
        flat[static_cast<std::size_t>(site) * z + n] =
            lat.site_index(cx + o.dcx, cy + o.dcy, cz + o.dcz, o.basis);
      }
    }
  }

  return lat;
}

bool Lattice::are_neighbors(std::int32_t site, std::int32_t other,
                            int shell) const {
  const auto ns = neighbors(site, shell);
  return std::find(ns.begin(), ns.end(), other) != ns.end();
}

int Lattice::neighbor_multiplicity(std::int32_t site, std::int32_t other,
                                   int shell) const {
  const auto ns = neighbors(site, shell);
  return static_cast<int>(std::count(ns.begin(), ns.end(), other));
}

std::array<double, 3> Lattice::position(std::int32_t site) const {
  const auto [cx, cy, cz, b] = decompose(site);
  const auto basis = basis_positions(type_);
  return {cx + basis[static_cast<std::size_t>(b)][0],
          cy + basis[static_cast<std::size_t>(b)][1],
          cz + basis[static_cast<std::size_t>(b)][2]};
}

std::array<int, 4> Lattice::decompose(std::int32_t site) const {
  DT_CHECK(site >= 0 && site < num_sites_);
  const int b = site % basis_;
  std::int32_t cell = site / basis_;
  const int cx = cell % nx_;
  cell /= nx_;
  const int cy = cell % ny_;
  const int cz = cell / ny_;
  return {cx, cy, cz, b};
}

std::int32_t Lattice::site_index(int cx, int cy, int cz, int b) const {
  cx = wrap(cx, nx_);
  cy = wrap(cy, ny_);
  cz = wrap(cz, nz_);
  return static_cast<std::int32_t>(
      ((static_cast<std::int64_t>(cz) * ny_ + cy) * nx_ + cx) * basis_ + b);
}

}  // namespace dt::lattice
