// Shared plumbing for the figure/table bench harnesses.
//
// Every bench binary reproduces one table or figure of the DeepThermo
// evaluation (see DESIGN.md's experiment index): it builds a system from
// a common set of --flags, runs the experiment, and prints paper-style
// rows through dt::Table (optionally also to CSV via --csv=<path>).
//
// Defaults are sized so the full set finishes in minutes on a laptop;
// pass --cells=6 (or more) to approach paper-scale systems.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/deepthermo.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"

namespace dt::bench {

/// Wall clock of the whole bench process, started by parse_args; the
/// --json summary records its reading at each emit().
inline const Stopwatch& bench_clock() {
  static Stopwatch clock;
  return clock;
}

/// Parse the common command line: --cells, --bins, --seed, --csv,
/// --json (machine-readable per-bench summaries), --telemetry (JSONL
/// runtime telemetry, see src/obs; a .csv path is rejected), plus
/// whatever bench-specific keys the caller reads from the result. Once
/// it has read them all, the caller calls cfg.require_all_read(), so a
/// mistyped flag fails.
inline Config parse_args(int argc, char** argv) {
  (void)bench_clock();  // start the wall clock at entry
  Config cfg;
  cfg.update_from_args(argc, argv);
  const std::string telemetry = cfg.get_string("telemetry", "");
  if (!telemetry.empty()) obs::Telemetry::instance().enable(telemetry);
  // emit() reads these later; count them as known now.
  (void)cfg.get_string("json", "");
  (void)cfg.get_string("csv", "");
  return cfg;
}

/// Checkpoint/restart counters and timings accumulated so far (all zero
/// when the bench never enabled a checkpoint_dir); serialised into every
/// --json line so save/restore overhead is tracked alongside throughput.
inline std::string ckpt_metrics_json() {
  auto& metrics = obs::MetricsRegistry::global();
  JsonWriter ckpt;
  ckpt.field("saves",
             static_cast<std::int64_t>(metrics.counter("ckpt.saves").value()))
      .field("loads",
             static_cast<std::int64_t>(metrics.counter("ckpt.loads").value()))
      .field("bytes_total",
             static_cast<std::int64_t>(
                 metrics.counter("ckpt.bytes_total").value()))
      .field("last_bytes", metrics.gauge("ckpt.last_bytes").value())
      .field("last_save_seconds",
             metrics.gauge("ckpt.last_save_seconds").value())
      .field("last_load_seconds",
             metrics.gauge("ckpt.last_load_seconds").value());
  return ckpt.str();
}

/// Sampling-health digest from the live HealthRegistry (empty registry
/// when the bench ran no REWL): the same walker and exchange-pair arrays
/// GET /status serves, serialised into every --json line next to the
/// checkpoint counters.
inline std::string health_metrics_json() {
  const obs::HealthSnapshot snap = obs::HealthRegistry::global().snapshot();
  JsonWriter health;
  health.field("phase", snap.phase)
      .field("stalled_walkers",
             static_cast<std::int64_t>(snap.stalled_walkers))
      .raw("walkers", obs::walkers_json(snap))
      .raw("exchange_pairs", obs::exchange_pairs_json(snap));
  return health.str();
}

/// Emit a table to stdout and, when --csv=<path> was given, to that file
/// (suffix inserted before .csv when a bench emits several tables).
/// When --json=<path> was given, additionally append one JSON line per
/// table -- {"bench", "tag", "wall_seconds", "ckpt", "columns", "rows"}
/// -- so bench trajectories (and checkpoint/resume overhead) can be
/// tracked across commits.
inline void emit(const Table& table, const Config& cfg,
                 const std::string& title, const std::string& csv_tag = "") {
  table.print(std::cout, title);
  std::cout << '\n';
  const std::string json_path = cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::string rows = "[";
    for (std::size_t r = 0; r < table.rows(); ++r) {
      if (r > 0) rows += ',';
      rows += '[';
      const auto& cells = table.row(r);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c > 0) rows += ',';
        rows += '"' + json_escape(cells[c]) + '"';
      }
      rows += ']';
    }
    rows += ']';
    std::string columns = "[";
    for (std::size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) columns += ',';
      columns += '"' + json_escape(table.columns()[c]) + '"';
    }
    columns += ']';
    JsonWriter line;
    line.field("bench", title)
        .field("tag", csv_tag)
        .field("wall_seconds", bench_clock().seconds())
        .raw("ckpt", ckpt_metrics_json())
        .raw("health", health_metrics_json())
        .raw("columns", columns)
        .raw("rows", rows);
    std::ofstream out(json_path, std::ios::app);
    out << line.str() << '\n';
  }
  const std::string base = cfg.get_string("csv", "");
  if (base.empty()) return;
  std::string path = base;
  if (!csv_tag.empty()) {
    const auto dot = path.rfind(".csv");
    if (dot != std::string::npos)
      path.insert(dot, "_" + csv_tag);
    else
      path += "_" + csv_tag + ".csv";
  }
  table.write_csv_file(path);
}

/// DeepThermo options for the common bench system: a --cells^3 BCC
/// supercell of the quaternary NbMoTaW model.
inline core::DeepThermoOptions bench_options(const Config& cfg) {
  core::DeepThermoOptions opts;
  const auto cells = cfg.get_int_as("cells", 3);
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = cells;
  opts.n_bins = cfg.get_int_as<std::int32_t>("bins", 80);
  opts.seed = cfg.get_int_as<std::uint64_t>("seed", 2023);
  opts.rewl.seed = opts.seed;
  opts.rewl.n_windows = cfg.get_int_as("windows", 2);
  opts.rewl.walkers_per_window = cfg.get_int_as("walkers", 1);
  opts.rewl.max_sweeps = cfg.get_int("max_sweeps", 150000);
  opts.rewl.wl.log_f_final = cfg.get_double("log_f_final", 1e-3);
  opts.rewl.exchange_interval = cfg.get_int("exchange_interval", 50);
  opts.global_fraction = cfg.get_double("global_fraction", 0.05);
  opts.vae.hidden = cfg.get_int("hidden", 64);
  opts.vae.latent = cfg.get_int("latent", 8);
  opts.vae.epochs = cfg.get_int_as("epochs", 12);
  opts.pretrain.n_temperatures = cfg.get_int_as("pretrain_temps", 5);
  opts.pretrain.samples_per_temperature =
      cfg.get_int_as("pretrain_samples", 32);
  return opts;
}

inline void print_run_header(const std::string& experiment,
                             const core::DeepThermoOptions& opts) {
  std::cout << "=== " << experiment << " ===\n"
            << "system: NbMoTaW-model BCC " << opts.lattice.nx << "x"
            << opts.lattice.ny << "x" << opts.lattice.nz << " ("
            << 2 * opts.lattice.nx * opts.lattice.ny * opts.lattice.nz
            << " atoms), " << opts.n_bins << " bins, seed " << opts.seed
            << "\n\n";
}

}  // namespace dt::bench
