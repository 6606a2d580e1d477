#include "par/rewl.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>

#include "ckpt/fault.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "mc/proposal.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dt::par {

namespace {

// Message tags for the exchange protocol (user-level tags are >= 0).
constexpr int kTagEnergy = 10;
constexpr int kTagReply = 11;
constexpr int kTagDecision = 12;
constexpr int kTagConfigDown = 13;
constexpr int kTagConfigUp = 14;
constexpr int kTagDos = 15;
constexpr int kTagReport = 16;

/// Cap on the sweeps a walker spends driving into its window.
constexpr std::int64_t kSeekSweeps = 2000;

struct ExchangeStats {
  std::int64_t attempted = 0;
  std::int64_t accepted = 0;
};

std::string rank_component(int rank) {
  return "rank" + std::to_string(rank);
}

/// DOS wire format: one double per bin, NaN for unvisited.
std::vector<double> dos_to_wire(const mc::DensityOfStates& dos) {
  const auto n = static_cast<std::size_t>(dos.grid().n_bins());
  std::vector<double> wire(n, std::numeric_limits<double>::quiet_NaN());
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b)
    if (dos.visited(b))
      wire[static_cast<std::size_t>(b)] = dos.log_g(b).value();
  return wire;
}

mc::DensityOfStates dos_from_wire(const mc::EnergyGrid& grid,
                                  std::span<const double> wire) {
  mc::DensityOfStates dos(grid);
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    const double v = wire[static_cast<std::size_t>(b)];
    if (!std::isnan(v)) dos.set(b, units::LogDoS(v));
  }
  return dos;
}

}  // namespace

RewlResult run_rewl(const lattice::EpiHamiltonian& hamiltonian,
                    const lattice::Lattice& lat, int n_species,
                    const mc::EnergyGrid& grid, const RewlOptions& options,
                    const ProposalFactory& make_proposal,
                    const IntervalHook& hook,
                    const RewlCheckpointConfig* checkpoint) {
  DT_CHECK(options.n_windows >= 1);
  DT_CHECK(options.walkers_per_window >= 1);
  DT_CHECK(options.exchange_interval >= 1);
  const bool ckpt_active = checkpoint != nullptr && checkpoint->store != nullptr;
  const bool resuming = checkpoint != nullptr && checkpoint->resume_from != nullptr;

  const std::vector<Window> windows =
      make_windows(grid.n_bins(), options.n_windows, options.overlap);
  const int wpw = options.walkers_per_window;

  RewlResult result;
  std::mutex result_mutex;  // rank 0 writes once; belt and braces
  Stopwatch wall;

  obs::Telemetry& telemetry = obs::Telemetry::instance();

  // Health plane: sized before the walker threads start so each rank can
  // resolve a stable cell handle. Publishing is always on (one batch of
  // relaxed stores per exchange block) -- the HTTP server may attach at
  // any time and must not see an empty table.
  obs::HealthRegistry& health = obs::HealthRegistry::global();
  health.configure(options.total_ranks(), options.n_windows, wpw,
                   options.watchdog_stall_seconds);
  health.set_phase("rewl");

  run_ranks(options.total_ranks(), [&](Communicator& comm) {
    const int rank = comm.rank();
    const int window_id = rank / wpw;
    const Window& window = windows[static_cast<std::size_t>(window_id)];
    set_log_tag(strformat("r%d", rank));
    DT_SPAN("rewl.rank");

    // Independent streams per rank for init / sampling / exchange.
    mc::Rng init_rng(options.seed, stream_id(static_cast<std::uint64_t>(rank), 0));
    mc::Rng wl_rng(options.seed, stream_id(static_cast<std::uint64_t>(rank), 1));
    mc::Rng exch_rng(options.seed, stream_id(static_cast<std::uint64_t>(rank), 2));

    lattice::Configuration cfg =
        lattice::random_configuration(lat, n_species, init_rng);

    mc::WangLandauOptions wl_opts = options.wl;
    wl_opts.window_lo_bin = window.lo_bin;
    wl_opts.window_hi_bin = window.hi_bin;
    mc::WangLandauSampler walker(hamiltonian, cfg, grid, wl_opts, wl_rng);

    ExchangeStats exch;
    const auto n_sites = static_cast<std::size_t>(lat.num_sites());
    std::int64_t round = 0;
    std::int64_t last_saved_round = -1;
    Stopwatch save_throttle;  // rank 0: time since the last periodic save
    Stopwatch heartbeat;      // rank 0: time since the last progress line

    // Resume: restore the walker mid-run from its rank component instead
    // of seeking into the window; the round counter (hence the exchange
    // parity schedule) continues where the checkpoint left it.
    std::optional<std::istringstream> resume_stream;
    if (resuming) {
      const ckpt::Checkpoint& ck = *checkpoint->resume_from;
      auto meta = ck.stream("rewl.meta");
      DT_CHECK_MSG(read_pod<std::int32_t>(meta) == options.n_windows &&
                       read_pod<std::int32_t>(meta) == wpw &&
                       read_pod<std::int32_t>(meta) == grid.n_bins(),
                   "rewl resume: checkpoint topology does not match options");
      round = read_pod<std::int64_t>(meta);
      last_saved_round = round;

      resume_stream.emplace(ck.stream(rank_component(rank)));
      walker.load_state(*resume_stream);
      exch.attempted = read_pod<std::int64_t>(*resume_stream);
      exch.accepted = read_pod<std::int64_t>(*resume_stream);
      exch_rng.set_key(read_pod<std::array<std::uint32_t, 2>>(*resume_stream));
      exch_rng.seek(read_pod<std::uint64_t>(*resume_stream));
    } else {
      // Seeking uses a plain local-swap kernel: robust regardless of what
      // the sampling proposal is (an untrained VAE would wander).
      mc::LocalSwapProposal seek_kernel(hamiltonian);
      const bool inside = walker.seek_window(seek_kernel, kSeekSweeps);
      DT_CHECK_MSG(inside, "rank " << rank
                                   << " failed to reach window ["
                                   << window.lo_bin << ", " << window.hi_bin
                                   << "]");
    }

    std::shared_ptr<mc::Proposal> proposal = make_proposal(rank);
    DT_CHECK(proposal != nullptr);

    // Caller extras (VAE replica, optimizer moments, replay dataset) are
    // restored only after the factory has built the objects they land in.
    if (resuming) {
      const auto has_extra = read_pod<std::uint8_t>(*resume_stream);
      if (has_extra != 0) {
        DT_CHECK_MSG(static_cast<bool>(checkpoint->load_extra),
                     "rewl resume: checkpoint carries per-rank extra state "
                     "but no load_extra is wired");
        std::istringstream extra(read_string(*resume_stream),
                                 std::ios::binary);
        checkpoint->load_extra(rank, extra);
      }
      resume_stream.reset();
    }

    const std::shared_ptr<obs::WalkerHealthCell> health_cell =
        health.walker_cell(rank);

    // The walker's state as the one record every sink renders; the
    // per-block fields (sweeps_per_s, partner_window) are the caller's.
    auto make_block = [&] {
      const mc::WangLandauStats& st = walker.stats();
      obs::WalkerBlock block;
      block.rank = rank;
      block.window = window_id;
      block.round = round;
      block.sweeps = st.sweeps;
      block.log_f = walker.log_f();
      block.f_stage = st.f_stages_completed;
      block.flatness =
          walker.histogram().flatness_ratio(window.lo_bin, window.hi_bin);
      block.acceptance = st.acceptance_rate();
      block.round_trips = st.round_trips;
      block.exch_attempted = exch.attempted;
      block.exch_accepted = exch.accepted;
      block.energy = walker.energy().value();
      block.rng_position = walker.rng_position();
      block.converged = walker.converged() ? obs::Flag::kYes : obs::Flag::kNo;
      for (const auto& [name, value] : proposal->telemetry())
        obs::set_field(block, name, value);
      return block;
    };
    Stopwatch block_clock;
    std::int64_t sweeps_at_last_block = 0;
    bool interrupted_run = false;

    for (;;) {
      // ---- checkpoint barrier (top of round: the globally consistent
      // point -- every walker sits between exchange blocks) ----
      if (ckpt_active) {
        std::uint8_t cmd = 0;  // bit 0: save, bit 1: stop after saving
        if (rank == 0) {
          bool save = checkpoint->interval_rounds > 0 && round > 0 &&
                      round % checkpoint->interval_rounds == 0 &&
                      round != last_saved_round &&
                      save_throttle.seconds() >=
                          checkpoint->min_interval_seconds;
          bool stop = false;
          if (checkpoint->signals != nullptr) {
            if (checkpoint->signals->consume_save_request()) save = true;
            if (checkpoint->signals->stop_requested()) {
              save = true;
              stop = true;
            }
          }
          cmd = static_cast<std::uint8_t>((save ? 1U : 0U) |
                                          (stop ? 2U : 0U));
        }
        std::vector<std::uint8_t> wire_cmd(1, cmd);
        comm.broadcast(wire_cmd, 0);
        cmd = wire_cmd[0];

        if ((cmd & 1U) != 0) {
          DT_SPAN("rewl.checkpoint");
          std::ostringstream os(std::ios::binary);
          walker.save_state(os);
          write_pod(os, exch.attempted);
          write_pod(os, exch.accepted);
          write_pod(os, exch_rng.key());
          write_pod(os, exch_rng.position());
          const std::uint8_t has_extra =
              checkpoint->save_extra ? std::uint8_t{1} : std::uint8_t{0};
          write_pod(os, has_extra);
          if (has_extra != 0) {
            // write_string's layout, streamed in place: a u64 length
            // prefix, patched once the extra state is written behind it.
            const std::streampos prefix = os.tellp();
            write_pod<std::uint64_t>(os, 0);
            checkpoint->save_extra(rank, os);
            const std::streampos end = os.tellp();
            os.seekp(prefix);
            write_pod(os, static_cast<std::uint64_t>(end - prefix) -
                              sizeof(std::uint64_t));
            os.seekp(end);
          }
          std::vector<std::string> records =
              comm.gather(std::move(os).str(), 0);
          if (rank == 0) {
            ckpt::CheckpointBuilder builder;
            builder.component("rewl.meta", [&](std::ostream& ms) {
              write_pod(ms, static_cast<std::int32_t>(options.n_windows));
              write_pod(ms, static_cast<std::int32_t>(wpw));
              write_pod(ms, grid.n_bins());
              write_pod(ms, round);
            });
            for (int r = 0; r < options.total_ranks(); ++r)
              builder.add(rank_component(r),
                          std::move(records[static_cast<std::size_t>(r)]));
            if (checkpoint->add_components)
              checkpoint->add_components(builder);
            const ckpt::SaveReport saved = checkpoint->store->save(builder);
            health.set_checkpoint_generation(saved.generation);
            std::lock_guard<std::mutex> lock(result_mutex);
            result.last_checkpoint_generation = saved.generation;
          }
          last_saved_round = round;
          save_throttle.reset();
        }
        if (rank == 0) ckpt::fault_point("rewl.round");
        if ((cmd & 2U) != 0) {
          interrupted_run = true;
          break;
        }
      }

      walker.advance(*proposal, options.exchange_interval,
                     [&](int /*stage*/, double /*log_f*/,
                         std::int64_t /*sweeps*/) {
                       // Mid-stage fault site: exercises recovery from a
                       // crash between checkpoints (replay from the last
                       // round boundary must be bit-exact).
                       if (rank == 0) ckpt::fault_point("rewl.wl_stage");
                     });
      if (hook) hook(comm, walker, exch_rng);

      // ---- replica exchange between adjacent windows ----
      // Round parity alternates which window pairs are active:
      // even rounds pair (0,1),(2,3),..., odd rounds pair (1,2),(3,4),...
      const bool even_round = (round % 2) == 0;
      const bool lower_active = even_round ? (window_id % 2 == 0)
                                           : (window_id % 2 == 1);
      int partner = -1;
      bool is_lower = false;
      if (lower_active && window_id + 1 < options.n_windows) {
        partner = (window_id + 1) * wpw + (rank % wpw);
        is_lower = true;
      } else if (!lower_active && window_id > 0) {
        partner = (window_id - 1) * wpw + (rank % wpw);
        is_lower = false;
      }

      if (partner >= 0) {
        if (is_lower) {
          // Protocol: lower sends E_x, upper answers with
          // (E_y, ln g_j(E_y), ln g_j(E_x)); lower decides.
          comm.send_value(partner, kTagEnergy, walker.energy().value());
          const auto reply = comm.recv<double>(partner, kTagReply);
          const double e_y = reply[0];
          const double lgj_ey = reply[1];
          const double lgj_ex = reply[2];
          const units::LogDoS lgi_ex = walker.log_g_at(walker.energy());
          const units::LogDoS lgi_ey =
              walker.log_g_at(units::Energy(e_y));

          ++exch.attempted;
          bool accept = false;
          if (std::isfinite(lgi_ey.value()) && std::isfinite(lgj_ex)) {
            // ln A = [ln g_i(E_x) - ln g_i(E_y)] + [ln g_j(E_y) - ln g_j(E_x)]
            const units::LogWeight log_a =
                (lgi_ex - lgi_ey) +
                units::LogWeight(lgj_ey - lgj_ex);
            accept = units::metropolis_accept(
                log_a, [&] { return units::Prob(uniform01(exch_rng)); });
          }
          // Pair EWMA: recorded once per attempt, by the deciding
          // (lower) walker; pair index == lower window id.
          health.record_exchange(window_id, accept);
          comm.send_value<std::uint8_t>(partner, kTagDecision,
                                        accept ? 1 : 0);
          if (accept) {
            ++exch.accepted;
            comm.send<std::uint8_t>(
                partner, kTagConfigUp,
                std::span<const std::uint8_t>(
                    walker.configuration().occupancy().data(), n_sites));
            const auto theirs =
                comm.recv<std::uint8_t>(partner, kTagConfigDown);
            lattice::Configuration incoming(lat, n_species);
            incoming.assign(theirs);
            walker.adopt(incoming, units::Energy(e_y));
          }
        } else {
          const double e_x = comm.recv_value<double>(partner, kTagEnergy);
          const double reply[3] = {
              walker.energy().value(),
              walker.log_g_at(walker.energy()).value(),
              walker.log_g_at(units::Energy(e_x)).value()};
          comm.send<double>(partner, kTagReply,
                            std::span<const double>(reply, 3));
          const auto accept =
              comm.recv_value<std::uint8_t>(partner, kTagDecision);
          if (accept != 0) {
            const auto theirs =
                comm.recv<std::uint8_t>(partner, kTagConfigUp);
            comm.send<std::uint8_t>(
                partner, kTagConfigDown,
                std::span<const std::uint8_t>(
                    walker.configuration().occupancy().data(), n_sites));
            lattice::Configuration incoming(lat, n_species);
            incoming.assign(theirs);
            walker.adopt(incoming, units::Energy(e_x));
          }
        }
      }

      // ---- health publish (always on), telemetry event, heartbeat ----
      {
        obs::WalkerBlock block = make_block();
        const double block_s = block_clock.seconds();
        block_clock.reset();
        block.sweeps_per_s =
            block_s > 0.0
                ? static_cast<double>(block.sweeps - sweeps_at_last_block) /
                      block_s
                : 0.0;
        sweeps_at_last_block = block.sweeps;
        if (partner >= 0)
          block.partner_window = is_lower ? window_id + 1 : window_id - 1;
        health.publish(health_cell, block);

        if (telemetry.enabled()) {
          obs::Event event("rewl_walker");
          obs::for_each_field(block, [&](std::string_view name, auto value) {
            event.with(std::string(name), value);
          });
          telemetry.emit(std::move(event));
        }

        if (rank == 0) {
          const bool watched = obs::instrumentation_active();
          // The watchdog runs every round whenever a stall budget is set,
          // watched or dark; a watched run also refreshes the gauge.
          if (options.watchdog_stall_seconds > 0.0 || watched)
            health.evaluate();
          if (watched &&
              heartbeat.seconds() >= options.progress_interval_seconds) {
            heartbeat.reset();
            DT_LOG_INFO << "rewl: round " << block.round << ", sweeps "
                        << block.sweeps << ", ln f " << block.log_f
                        << ", flatness " << block.flatness << ", acc "
                        << block.acceptance;
            const std::string digest = health.summary_line();
            if (!digest.empty()) DT_LOG_INFO << digest;
            telemetry.snapshot_metrics();  // no-ops without a sink
            telemetry.flush();
          }
        }
      }
      ++round;

      // ---- global convergence check ----
      const bool done_here = walker.converged() ||
                             walker.stats().sweeps >= options.max_sweeps;
      if (comm.allreduce_and(done_here)) break;
    }

    // ---- assemble: average ln g within each window ----
    // Interrupted runs skip the stitch: early-stage window fragments need
    // not overlap yet, and the stitched DOS of a half-finished run is
    // meaningless anyway -- resume from the checkpoint instead.
    const int leader = window_id * wpw;
    std::vector<double> wire = dos_to_wire(walker.dos());
    if (interrupted_run) {
      // fall through to the reports
    } else if (rank == leader) {
      std::vector<std::vector<double>> fragments;
      fragments.push_back(std::move(wire));
      for (int k = 1; k < wpw; ++k)
        fragments.push_back(comm.recv<double>(leader + k, kTagDos));
      // Average ln g over the walkers that visited each bin.
      std::vector<double> avg(static_cast<std::size_t>(grid.n_bins()),
                              std::numeric_limits<double>::quiet_NaN());
      for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
        const auto i = static_cast<std::size_t>(b);
        double acc = 0.0;
        int hits = 0;
        for (const auto& f : fragments) {
          if (!std::isnan(f[i])) {
            acc += f[i];
            ++hits;
          }
        }
        if (hits > 0) avg[i] = acc / hits;
      }

      if (rank == 0) {
        std::vector<mc::DensityOfStates> parts;
        parts.push_back(dos_from_wire(grid, avg));
        for (int w = 1; w < options.n_windows; ++w) {
          const auto frag = comm.recv<double>(w * wpw, kTagDos);
          parts.push_back(dos_from_wire(grid, frag));
        }
        std::lock_guard<std::mutex> lock(result_mutex);
        result.dos = mc::DensityOfStates::stitch(parts);
      } else {
        comm.send<double>(0, kTagDos,
                          std::span<const double>(avg.data(), avg.size()));
      }
    } else {
      comm.send<double>(leader, kTagDos,
                        std::span<const double>(wire.data(), wire.size()));
    }

    // ---- per-walker final records to rank 0 ----
    const obs::WalkerBlock final_block = make_block();
    if (rank == 0) {
      std::vector<obs::WalkerBlock> reports{final_block};
      for (int r = 1; r < options.total_ranks(); ++r)
        reports.push_back(comm.recv_value<obs::WalkerBlock>(r, kTagReport));

      std::lock_guard<std::mutex> lock(result_mutex);
      result.interrupted = interrupted_run;
      result.converged = !interrupted_run;
      result.total_sweeps = 0;
      for (const obs::WalkerBlock& r : reports) {
        result.walker_energies.push_back(r.energy);
        result.walker_rng_positions.push_back(r.rng_position);
      }
      result.windows.assign(static_cast<std::size_t>(options.n_windows), {});
      for (int w = 0; w < options.n_windows; ++w) {
        RewlWindowReport& wr = result.windows[static_cast<std::size_t>(w)];
        wr.window = w;
        wr.lo_bin = windows[static_cast<std::size_t>(w)].lo_bin;
        wr.hi_bin = windows[static_cast<std::size_t>(w)].hi_bin;
        std::int64_t exch_att = 0, exch_acc = 0;
        bool all_conv = true;
        double acc_rate = 0.0;
        wr.flatness = std::numeric_limits<double>::infinity();
        for (int k = 0; k < wpw; ++k) {
          const obs::WalkerBlock& r =
              reports[static_cast<std::size_t>(w * wpw + k)];
          wr.sweeps += r.sweeps;
          wr.f_stages = std::max(wr.f_stages, static_cast<int>(r.f_stage));
          wr.flatness = std::min(wr.flatness, r.flatness);
          wr.round_trips += r.round_trips;
          acc_rate += r.acceptance;
          exch_att += r.exch_attempted;
          exch_acc += r.exch_accepted;
          all_conv = all_conv && r.converged == obs::Flag::kYes;
        }
        wr.acceptance = acc_rate / wpw;
        wr.exchange_acceptance =
            exch_att == 0 ? 0.0
                          : static_cast<double>(exch_acc) /
                                static_cast<double>(exch_att);
        wr.converged = all_conv;
        result.converged = result.converged && all_conv;
        result.total_sweeps += wr.sweeps;
      }
    } else {
      comm.send_value(0, kTagReport, final_block);
    }
  });

  result.wall_seconds = wall.seconds();
  return result;
}

void write_window_reports(std::ostream& os,
                          std::span<const RewlWindowReport> windows) {
  using R = RewlWindowReport;
  std::vector<char> bytes(windows.size() * sizeof(R), 0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    char* rec = &bytes[i * sizeof(R)];
    const R& w = windows[i];
    const auto put = [rec](std::size_t offset, const auto& field) {
      std::memcpy(rec + offset, &field, sizeof field);
    };
    put(offsetof(R, window), w.window);
    put(offsetof(R, lo_bin), w.lo_bin);
    put(offsetof(R, hi_bin), w.hi_bin);
    put(offsetof(R, sweeps), w.sweeps);
    put(offsetof(R, f_stages), w.f_stages);
    put(offsetof(R, acceptance), w.acceptance);
    put(offsetof(R, flatness), w.flatness);
    put(offsetof(R, round_trips), w.round_trips);
    put(offsetof(R, exchange_acceptance), w.exchange_acceptance);
    put(offsetof(R, converged), w.converged);
  }
  write_pod<std::uint64_t>(os, windows.size());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  DT_CHECK_MSG(os.good(), "serialize: write failed");
}

}  // namespace dt::par
