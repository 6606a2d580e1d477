// Table 3 (extension): checkpoint/restart overhead.
//
// Runs the same DeepThermo pipeline three ways -- no checkpointing,
// periodic checkpointing (--ckpt_interval rounds), and a resume from the
// finished run's final generation -- and reports wall-clock overhead,
// bytes written and save/load latency. The acceptance bar for the ckpt
// subsystem is < 5% wall-clock overhead at the default interval.
//
//   ./bench/bench_t3_checkpoint [--cells=3 --ckpt_interval=25
//                                --ckpt_dir=/tmp/dt_bench_ckpt --json=...]
#include <cstdint>
#include <filesystem>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "common/stopwatch.hpp"
#include "core/framework.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  core::DeepThermoOptions opts = bench::bench_options(cfg);
  const std::string ckpt_dir = cfg.get_string(
      "ckpt_dir",
      (std::filesystem::temp_directory_path() / "dt_bench_ckpt").string());
  const std::int64_t interval = cfg.get_int("ckpt_interval", 25);
  cfg.require_all_read();
  bench::print_run_header("T3: checkpoint/restart overhead", opts);

  std::filesystem::remove_all(ckpt_dir);

  auto& metrics = obs::MetricsRegistry::global();

  // Baseline: checkpointing off.
  Stopwatch clock;
  auto baseline = core::Framework::nbmotaw(opts).run();
  const double base_s = clock.seconds();

  // Checkpointed run: identical physics (saves draw no RNG), plus
  // periodic crash-consistent saves every `interval` exchange rounds.
  opts.checkpoint_dir = ckpt_dir;
  opts.checkpoint_interval_rounds = interval;
  clock.reset();
  auto checkpointed = core::Framework::nbmotaw(opts).run();
  const double ckpt_s = clock.seconds();
  const auto saves = metrics.counter("ckpt.saves").value();
  const auto bytes = metrics.counter("ckpt.bytes_total").value();

  // Resume from the final (production-phase) generation: measures the
  // restore path -- load + validate + rebuild -- with REWL skipped.
  opts.resume = true;
  clock.reset();
  auto resumed = core::Framework::nbmotaw(opts).run();
  const double resume_s = clock.seconds();

  const double overhead = base_s > 0.0 ? (ckpt_s - base_s) / base_s : 0.0;
  Table table({"variant", "wall_s", "saves", "MB_written", "overhead_pct",
               "ln_g_span", "rounds"});
  table.add("baseline", base_s, std::int64_t{0}, 0.0, 0.0,
            baseline.dos.log_range(),
            static_cast<std::int64_t>(baseline.rewl.total_sweeps /
                                      std::max<std::int64_t>(
                                          1, opts.rewl.exchange_interval)));
  table.add("checkpointed", ckpt_s, static_cast<std::int64_t>(saves),
            static_cast<double>(bytes) / 1.0e6, 100.0 * overhead,
            checkpointed.dos.log_range(),
            static_cast<std::int64_t>(checkpointed.rewl.total_sweeps /
                                      std::max<std::int64_t>(
                                          1, opts.rewl.exchange_interval)));
  table.add("resumed", resume_s, std::int64_t{0}, 0.0, 0.0,
            resumed.dos.log_range(), std::int64_t{0});
  bench::emit(table, cfg, "T3_checkpoint", "t3");

  std::printf("save latency: last %.3f ms | load latency: last %.3f ms\n",
              1e3 * metrics.gauge("ckpt.last_save_seconds").value(),
              1e3 * metrics.gauge("ckpt.last_load_seconds").value());
  std::printf("checkpoint overhead: %.2f%% (%s 5%% budget)\n",
              100.0 * overhead, overhead < 0.05 ? "within" : "EXCEEDS");

  std::filesystem::remove_all(ckpt_dir);
  return overhead < 0.05 ? 0 : 1;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_t3_checkpoint", run, argc, argv);
}
