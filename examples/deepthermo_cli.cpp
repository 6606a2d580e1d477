// deepthermo_cli: config-file-driven end-to-end runs without writing C++.
//
//   ./examples/deepthermo_cli run.cfg [--key=value overrides...]
//   ./examples/deepthermo_cli --print-default-config > run.cfg
//
// Reads a key=value config (every knob of DeepThermoOptions), runs the
// pipeline, prints the thermodynamic scan and writes the DOS / scan CSVs
// next to the config when output paths are set. This is the entry point
// a downstream user scripts against.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "ckpt/signal.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/run_main.hpp"
#include "common/table.hpp"
#include "core/deepthermo.hpp"
#include "obs/http_server.hpp"
#include "obs/telemetry.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(# DeepThermo run configuration
# system
lattice = bcc            # bcc | fcc | sc
cells = 3                # supercell edge, atoms = basis * cells^3
n_species = 4            # 4 selects the NbMoTaW preset Hamiltonian
bins = 80
seed = 2023

# REWL
windows = 2
walkers = 1
overlap = 0.75
max_sweeps = 300000
log_f_final = 1e-4
exchange_interval = 50

# DeepThermo kernel
use_vae = true
global_fraction = 0.05
condition_on_energy = false
vae_hidden = 64
vae_latent = 8
vae_epochs = 12
# decode-ahead depth per walker (latents per decoder GEMM; 0 = library
# default). Pure performance knobs -- sampled sequences are bitwise
# identical for any setting (see README "Performance tuning").
decode_batch = 0
# Opt-in cross-walker decode plane: fuse all walkers' decode refills
# into one GEMM on one thread. It cannot pay (the GEMM kernels are
# single-threaded) and stays only until ROADMAP item 1 removes it.
# Unset keys keep the library defaults;
# decode_plane_window_us is the max microseconds a plane leader waits
# for stragglers before serving a partial batch.
# decode_plane = true

# production phase (0 = off)
production_sweeps = 0

# checkpoint/restart (see README "Checkpoint/restart"): non-empty
# checkpoint_dir enables periodic crash-consistent saves; SIGUSR1
# checkpoints immediately, SIGTERM checkpoints then stops; resume = true
# continues bit-exactly from the newest valid generation.
checkpoint_dir =
checkpoint_interval = 25
checkpoint_min_interval = 1.0
checkpoint_keep = 3
resume = false

# post-processing
t_lo = 0.005
t_hi = 0.4
t_points = 40

# outputs (empty = skip)
dos_out =
scan_out =

# observability (see README "Observability"): telemetry sink path --
# events stream to it as JSONL; a *.csv path is rejected.
telemetry =
log_format = text       # text | json

# live observability plane (see README "Live observability"): port >= 0
# starts the embedded HTTP server (0 = ephemeral, printed at startup)
# serving GET /metrics /status /healthz /trace on obs_http_bind.
obs_http_port = -1
obs_http_bind = 127.0.0.1
# Flag walkers whose flatness has not improved for this many wall-clock
# seconds (surfaced via /healthz and a WARN log; 0 = off).
watchdog_stall_seconds = 0
)";

dt::lattice::LatticeType parse_lattice(const std::string& name) {
  if (name == "bcc") return dt::lattice::LatticeType::kBCC;
  if (name == "fcc") return dt::lattice::LatticeType::kFCC;
  if (name == "sc") return dt::lattice::LatticeType::kSimpleCubic;
  throw dt::Error("unknown lattice type: " + name);
}

}  // namespace

int run(int argc, char** argv) {
  using namespace dt;

  Config cli;
  cli.update_from_args(argc, argv);
  Config cfg = Config::from_text(kDefaultConfig);
  if (!cli.positional().empty()) {
    std::ifstream in(cli.positional().front());
    if (!in.good()) {
      std::fprintf(stderr, "cannot open config: %s\n",
                   cli.positional().front().c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const Config file_cfg = Config::from_text(buffer.str());
    for (const auto& [key, value] : file_cfg.items()) cfg.set(key, value);
  }
  for (const auto& [key, value] : cli.items()) cfg.set(key, value);
  if (cfg.get_bool("print-default-config", false)) {
    std::cout << kDefaultConfig;
    return 0;
  }

  // Read every key before anything runs, so require_all_read() below
  // rejects a mistyped key up front.
  // Set first, so a rejection below is logged in the requested format.
  if (cfg.get_string("log_format", "text") == "json")
    set_log_format(LogFormat::kJson);
  const std::string telemetry_path = cfg.get_string("telemetry", "");
  obs::HttpServerOptions so;
  so.bind = cfg.get_string("obs_http_bind", "127.0.0.1");
  so.port = cfg.get_int_as("obs_http_port", -1);

  core::DeepThermoOptions opts;
  opts.lattice.type = parse_lattice(cfg.get_string("lattice", "bcc"));
  const auto cells = cfg.get_int_as("cells", 3);
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = cells;
  opts.n_species = cfg.get_int_as("n_species", 4);
  opts.n_bins = cfg.get_int_as<std::int32_t>("bins", 80);
  opts.seed = cfg.get_int_as<std::uint64_t>("seed", 2023);
  opts.rewl.seed = opts.seed;
  opts.rewl.n_windows = cfg.get_int_as("windows", 2);
  opts.rewl.walkers_per_window = cfg.get_int_as("walkers", 1);
  opts.rewl.overlap = cfg.get_double("overlap", 0.75);
  opts.rewl.max_sweeps = cfg.get_int("max_sweeps", 300000);
  opts.rewl.wl.log_f_final = cfg.get_double("log_f_final", 1e-4);
  opts.rewl.exchange_interval = cfg.get_int("exchange_interval", 50);
  opts.use_vae = cfg.get_bool("use_vae", true);
  opts.global_fraction = cfg.get_double("global_fraction", 0.05);
  opts.condition_on_energy = cfg.get_bool("condition_on_energy", false);
  opts.vae.hidden = cfg.get_int("vae_hidden", 64);
  opts.vae.latent = cfg.get_int("vae_latent", 8);
  opts.vae.epochs = cfg.get_int_as("vae_epochs", 12);
  opts.vae_decode_batch = cfg.get_int_as<std::int32_t>("decode_batch", 0);
  opts.decode_plane = cfg.get_bool("decode_plane", opts.decode_plane);
  opts.decode_plane_window_us =
      cfg.get_int("decode_plane_window_us", opts.decode_plane_window_us);
  opts.production_sweeps = cfg.get_int("production_sweeps", 0);
  opts.checkpoint_dir = cfg.get_string("checkpoint_dir", "");
  opts.checkpoint_interval_rounds = cfg.get_int("checkpoint_interval", 25);
  opts.checkpoint_min_interval_seconds =
      cfg.get_double("checkpoint_min_interval", 1.0);
  opts.checkpoint_keep = cfg.get_int_as("checkpoint_keep", 3);
  opts.resume = cfg.get_bool("resume", false);
  opts.rewl.watchdog_stall_seconds =
      cfg.get_double("watchdog_stall_seconds", 0.0);
  const double t_lo = cfg.get_double("t_lo", 0.005);
  const double t_hi = cfg.get_double("t_hi", 0.4);
  const auto n_t = cfg.get_int_as<std::size_t>("t_points", 40);
  DT_CHECK_MSG(t_lo > 0.0 && t_hi > 0.0,
               "config keys 't_lo' and 't_hi' must be > 0, got "
                   << t_lo << " and " << t_hi);
  DT_CHECK_MSG(n_t >= 1, "config key 't_points' must be >= 1, got " << n_t);
  const std::string dos_out = cfg.get_string("dos_out", "");
  const std::string scan_out = cfg.get_string("scan_out", "");
  cfg.require_all_read();

  if (!telemetry_path.empty())
    obs::Telemetry::instance().enable(telemetry_path);
  std::optional<obs::HttpServer> obs_server;
  if (so.port >= 0) {
    obs_server.emplace(so);
    obs_server->start();
    std::printf("observability: http://%s:%d (/metrics /status /healthz "
                "/trace)\n",
                so.bind.c_str(), obs_server->port());
  }
  if (!opts.checkpoint_dir.empty()) ckpt::install_signal_handlers();

  // n_species == 4 selects the NbMoTaW preset; anything else gets a
  // reproducible random EPI (users with real coefficients use the C++
  // API; see examples/custom_alloy.cpp).
  std::printf("deepthermo_cli: %s %dx%dx%d, %d species, %d bins, seed %llu\n",
              cfg.get_string("lattice", "bcc").c_str(), cells, cells, cells,
              opts.n_species, opts.n_bins,
              static_cast<unsigned long long>(opts.seed));
  auto framework =
      opts.n_species == 4 && opts.lattice.type == lattice::LatticeType::kBCC
          ? core::Framework::nbmotaw(opts)
          : core::Framework(opts,
                            lattice::random_epi(opts.n_species, 2, 0.05,
                                                opts.seed));

  const auto result = framework.run();
  if (result.rewl.interrupted) {
    std::printf("interrupted: checkpoint generation %llu saved in %s; "
                "rerun with resume = true to continue\n",
                static_cast<unsigned long long>(
                    result.rewl.last_checkpoint_generation),
                opts.checkpoint_dir.c_str());
    return 3;
  }
  std::printf("converged: %s | DOS bins: %d | ln g span: %.1f | "
              "VAE acceptance: %.3f\n",
              result.rewl.converged ? "yes" : "no", result.dos.num_visited(),
              result.dos.log_range(), result.vae_stats.acceptance_rate());
  if (opts.production_sweeps > 0)
    std::printf("production flatness: %.3f\n", result.production_flatness);

  const auto scan = core::Framework::scan(result, t_lo, t_hi, n_t);
  const double n_atoms = framework.lattice_ref().num_sites();

  Table table({"T", "U_per_atom", "F_per_atom", "S_per_atom", "Cv_per_atom"});
  for (const auto& pt : scan)
    table.add(pt.temperature, pt.internal_energy / n_atoms,
              pt.free_energy / n_atoms, pt.entropy / n_atoms,
              pt.specific_heat / n_atoms);
  table.print(std::cout, "thermodynamic scan");
  std::printf("\nTc (Cv peak): %.6g\n", mc::transition_temperature(scan));

  if (!dos_out.empty()) {
    std::ofstream out(dos_out);
    result.dos.save(out);
    std::printf("DOS -> %s\n", dos_out.c_str());
  }
  if (!scan_out.empty()) {
    table.write_csv_file(scan_out);
    std::printf("scan -> %s\n", scan_out.c_str());
  }
  if (!telemetry_path.empty()) {
    // Pick up spans opened after run() (thermo scan) and the final
    // metric values.
    obs::Telemetry::instance().finish();
    std::printf("telemetry -> %s\n", telemetry_path.c_str());
  }
  return result.rewl.converged ? 0 : 2;
}

int main(int argc, char** argv) {
  return dt::run_main("deepthermo_cli", run, argc, argv);
}
