// ttsbench: one DeepThermo time-to-solution run, written as JSON.
//
// Runs the whole pipeline for one named workload -- core::Framework
// construction, Framework::pretrain(), then REWL sampling -- and writes
// its timings and the outputs run.py checks. Sampling runs one of two
// ways:
//
//   --trace=0  Framework::run() as shipped: the end-to-end numbers.
//   --trace=1  the same pipeline driven through public entry points:
//              par::run_rewl with a ProposalFactory, IntervalHook and
//              RewlCheckpointConfig that mirror Framework::run(), plus a
//              timing decorator around each rank's kernel. Spans are
//              recorded at every layer boundary visible from outside the
//              library and summed into a per-layer ledger. run.py checks
//              that this re-wiring reproduces --trace=0 bit for bit.
//
// Other modes:
//   --mode=reference  local-swap-only REWL solve of the tts54 system at a
//                     tighter ln f (gen_reference.py averages several).
//   --mode=oracle16   mixed-kernel solve of the 16-site system plus its
//                     exact ln g from validate::ExactOracle, to validate
//                     the ln g comparator.
//
// Usage:
//   ttsbench --mode=run --workload=tts54 --seed=7 --trace=0 --out=r.json
//            [--ckpt_dir=dir] [--spans=spans.json --solve=0]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/signal.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/decode_plane.hpp"
#include "core/framework.hpp"
#include "core/mixed_kernel.hpp"
#include "obs/metrics.hpp"
#include "par/ddp.hpp"
#include "par/rewl.hpp"
#include "validate/oracle.hpp"

namespace {

using namespace dt;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------- workloads

/// Seed of the grid, the pretraining data and the VAE on every workload.
/// Pinned so all tts54 solves share the pinned reference's grid and so
/// the workload seed varies only the REWL trajectory.
constexpr std::uint64_t kSystemSeed = 2023;

core::DeepThermoOptions common_options(int cells) {
  core::DeepThermoOptions o;
  o.lattice.nx = o.lattice.ny = o.lattice.nz = cells;
  o.n_bins = 80;
  o.vae.hidden = 64;
  o.vae.latent = 8;
  o.vae.epochs = 12;
  o.pretrain.n_temperatures = 5;
  o.pretrain.samples_per_temperature = 32;
  o.global_fraction = 0.05;
  o.rewl.n_windows = 2;
  o.rewl.walkers_per_window = 1;
  o.rewl.exchange_interval = 50;
  o.rewl.wl.log_f_final = 1e-4;
  o.seed = kSystemSeed;
  return o;
}

/// `seed` is the REWL seed. The 2000-site sweep budgets are far short of
/// any ln f schedule reaching log_f_final, so those runs use all of it.
core::DeepThermoOptions workload_options(const std::string& name,
                                         std::uint64_t seed,
                                         const std::string& ckpt_dir) {
  core::DeepThermoOptions o;
  if (name == "tts54") {
    o = common_options(3);
    o.rewl.max_sweeps = 150000;
  } else if (name == "vae2000") {
    o = common_options(10);
    o.rewl.n_windows = 3;
    o.rewl.max_sweeps = 200;
  } else if (name == "retrain2000") {
    DT_CHECK_MSG(!ckpt_dir.empty(), "retrain2000 needs --ckpt_dir");
    o = common_options(10);
    o.rewl.exchange_interval = 10;
    o.rewl.max_sweeps = 150;
    o.retrain_every_rounds = 1;
    o.retrain_epochs = 1;
    o.checkpoint_dir = ckpt_dir;
    o.checkpoint_interval_rounds = 5;
    o.checkpoint_min_interval_seconds = 0.0;
    o.checkpoint_keep = 2;
  } else {
    DT_CHECK_MSG(false, "unknown workload '" << name << "'");
  }
  o.rewl.seed = seed;
  return o;
}

// ------------------------------------------------------------------ tracing

/// One traced interval. `parent` indexes the merged span list written by
/// write_spans (-1: the process's core.run span); rank spans carry their
/// rank, process-level spans -1.
struct Span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::int32_t parent;
  std::int32_t rank;
};

/// Per-rank timeline, written only by that rank's thread while run_rewl
/// runs. The rank's time is cut into consecutive intervals:
///   par.seek    run_rewl entry -> first exchange block (window seek and
///               kernel construction);
///   mc.block    first proposal of a block -> the interval hook;
///   hook        the interval hook, with nn.retrain (ddp_fit + plane
///               refresh) nested inside when retraining;
///   ckpt.save   start of a checkpoint save -> the next block;
///   par.sync    the rest between a hook and the next block: exchange,
///               health publish, the convergence allreduce and waiting
///               for the slowest rank;
///   par.finish  after the last hook: final exchange, stitch, reports.
///               In no layer, so trace.closure shows what it leaves out.
/// Inside blocks the decorator times every VAE proposal and every
/// (kLocalSampleMask + 1)-th local one.
struct alignas(64) RankTrace {
  enum class Gap { kSeek, kSync, kCkpt };

  std::vector<Span> spans;
  std::int32_t rank = 0;
  std::int64_t mark = 0;  // end of the last attributed interval
  Gap gap = Gap::kSeek;
  bool block_open = false;
  std::int64_t block_start = 0;
  std::int64_t hook_start = 0;
  std::int32_t retrain_span = -1;

  std::int64_t seek_ns = 0, block_ns = 0, hook_ns = 0, ckpt_ns = 0;
  std::int64_t sync_ns = 0, retrain_ns = 0;
  std::int64_t local_timed_ns = 0, vae_ns = 0;
  std::uint64_t local_calls = 0, local_timed = 0, vae_calls = 0;
  std::uint64_t retrains = 0, rounds = 0;

  std::int32_t push(const char* name, std::int64_t t0, std::int64_t t1) {
    spans.push_back({name, t0, t1, -1, rank});
    return static_cast<std::int32_t>(spans.size() - 1);
  }

  void close_gap(std::int64_t t) {
    static constexpr const char* kNames[] = {"par.seek", "par.sync",
                                             "ckpt.save"};
    push(kNames[static_cast<int>(gap)], mark, t);
    (gap == Gap::kSeek   ? seek_ns
     : gap == Gap::kSync ? sync_ns
                         : ckpt_ns) += t - mark;
    mark = t;
    gap = Gap::kSync;
  }

  void open_block(std::int64_t t) {
    close_gap(t);
    block_open = true;
    block_start = t;
  }

  void enter_hook(std::int64_t t) {
    if (block_open) {
      push("mc.block", block_start, t);
      block_ns += t - block_start;
      block_open = false;
      mark = t;
    } else {
      close_gap(t);  // no proposals this round
    }
    hook_start = t;
    ++rounds;
  }

  void leave_hook(std::int64_t t) {
    const std::int32_t hook = push("hook", hook_start, t);
    if (retrain_span >= 0) {
      // Rank-local parent, encoded below -1; write_spans resolves it.
      spans[static_cast<std::size_t>(retrain_span)].parent = -2 - hook;
      retrain_span = -1;
    }
    hook_ns += t - hook_start;
    mark = t;
  }

  void enter_save(std::int64_t t) {
    close_gap(t);
    gap = Gap::kCkpt;
  }

  void finish(std::int64_t t) { push("par.finish", mark, t); }

  [[nodiscard]] std::int64_t busy_ns() const {
    return seek_ns + block_ns + hook_ns + ckpt_ns;
  }
};

/// Timing decorator around a rank's DeepThermo kernel. Tells local from
/// VAE moves by the change in vae_stats().proposed; every call reads the
/// clock once on entry, VAE calls and sampled local calls once more on
/// exit. Everything else is forwarded, so the trajectory is unchanged.
class TimedProposal final : public mc::Proposal {
 public:
  static constexpr std::uint64_t kLocalSampleMask = 63;

  TimedProposal(std::shared_ptr<core::DeepThermoProposal> inner,
                RankTrace& trace)
      : inner_(std::move(inner)), trace_(&trace) {}

  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override {
    const std::int64_t t0 = now_ns();
    if (!trace_->block_open) trace_->open_block(t0);
    const std::uint64_t vae_before = inner_->vae_stats().proposed;
    const mc::ProposalResult r = inner_->propose(cfg, current_energy, rng);
    if (inner_->vae_stats().proposed != vae_before) {
      trace_->vae_ns += now_ns() - t0;
      ++trace_->vae_calls;
    } else if ((trace_->local_calls++ & kLocalSampleMask) == 0) {
      trace_->local_timed_ns += now_ns() - t0;
      ++trace_->local_timed;
    }
    return r;
  }
  void revert(lattice::Configuration& cfg) override { inner_->revert(cfg); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool is_global() const override {
    return inner_->is_global();
  }
  [[nodiscard]] std::vector<std::pair<std::string, double>> telemetry()
      const override {
    return inner_->telemetry();
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::shared_ptr<core::DeepThermoProposal> inner_;
  RankTrace* trace_;
};

// ------------------------------------------ Framework::run() mirror pieces

// Checkpoint layout of core/framework.cpp's own components, repeated so
// the traced run writes the same bytes.
constexpr std::uint64_t kFrameworkMagic = 0x44'54'46'52'41'4D'45'31ULL;
constexpr std::int32_t kPhaseRewl = 1;
constexpr std::int32_t kPhaseProduction = 2;

void add_framework_component(ckpt::CheckpointBuilder& builder,
                             std::int32_t phase,
                             const std::vector<float>& loss_trace) {
  builder.component("framework", [&](std::ostream& os) {
    write_pod(os, kFrameworkMagic);
    write_pod(os, phase);
    write_vector(os, loss_trace);
  });
}

void write_dos(std::ostream& os, const mc::DensityOfStates& dos) {
  const std::uint8_t has = dos.num_visited() > 0 ? 1 : 0;
  write_pod(os, has);
  if (has == 0) return;
  write_pod(os, dos.grid().e_min());
  write_pod(os, dos.grid().e_max());
  write_pod(os, dos.grid().n_bins());
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b) {
    const std::uint8_t v = dos.visited(b) ? 1 : 0;
    write_pod(os, v);
    if (v != 0) write_pod(os, dos.log_g(b));
  }
}

void write_rewl_result(std::ostream& os, const par::RewlResult& r) {
  write_dos(os, r.dos);
  write_vector(os, r.windows);
  write_pod<std::uint8_t>(os, r.converged ? 1 : 0);
  write_pod(os, r.total_sweeps);
  write_pod(os, r.wall_seconds);
  write_pod(os, r.last_checkpoint_generation);
  write_vector(os, r.walker_energies);
  write_vector(os, r.walker_rng_positions);
}

std::string vae_bytes(const nn::Vae& vae) {
  std::ostringstream os(std::ios::binary);
  vae.save(os);
  return std::move(os).str();
}

/// What the traced run measures beyond the DeepThermoResult.
struct Ledger {
  std::vector<RankTrace> ranks;
  std::int64_t rewl_ns = 0;
  double final_save_s = 0.0;
  double decode_wait_s = 0.0;
  core::DecodePlane::Stats plane;
  std::uint64_t exch_attempted = 0;
  std::uint64_t exch_accepted = 0;
};

/// Framework::run() for a fresh run with the VAE on and no production
/// phase, re-wired through run_rewl with tracing. Every object the
/// framework builds is built here in the same order from the same bytes,
/// so the trajectory and the checkpoint bytes are identical.
core::DeepThermoResult run_traced(const core::Framework& fw,
                                  const std::vector<float>& loss_trace,
                                  Ledger& ledger) {
  const core::DeepThermoOptions& o = fw.options();
  DT_CHECK_MSG(o.use_vae && !o.resume && o.production_sweeps == 0 &&
                   !o.condition_on_energy,
               "the traced run mirrors the fresh VAE pipeline only");
  const std::string pretrained = vae_bytes(*fw.vae());
  core::DeepThermoResult result;
  result.grid = fw.grid();

  std::unique_ptr<ckpt::CheckpointStore> store;
  if (!o.checkpoint_dir.empty())
    store = std::make_unique<ckpt::CheckpointStore>(o.checkpoint_dir,
                                                    o.checkpoint_keep);

  std::shared_ptr<core::DecodePlane> plane;
  if (o.decode_plane) {
    auto plane_vae = std::make_shared<nn::Vae>(fw.vae()->options(), o.seed);
    std::istringstream in(pretrained, std::ios::binary);
    plane_vae->load(in);
    core::DecodePlane::Options plane_opts;
    plane_opts.window_us = o.decode_plane_window_us;
    plane = std::make_shared<core::DecodePlane>(std::move(plane_vae),
                                                plane_opts);
  }

  struct RankState {
    std::shared_ptr<nn::Vae> vae;
    std::shared_ptr<core::DeepThermoProposal> kernel;
    std::unique_ptr<nn::Trainer> trainer;
    std::unique_ptr<nn::ConfigDataset> dataset;
    Xoshiro256ss reservoir_rng{0};
    std::int64_t rounds = 0;
  };
  const int n_ranks = o.rewl.total_ranks();
  std::vector<RankState> states(static_cast<std::size_t>(n_ranks));
  ledger.ranks.assign(static_cast<std::size_t>(n_ranks), {});
  for (int r = 0; r < n_ranks; ++r)
    ledger.ranks[static_cast<std::size_t>(r)].rank = r;

  par::ProposalFactory factory =
      [&](int rank) -> std::shared_ptr<mc::Proposal> {
    RankState& st = states[static_cast<std::size_t>(rank)];
    st.vae = std::make_shared<nn::Vae>(fw.vae()->options(), o.seed);
    std::istringstream in(pretrained);
    st.vae->load(in);
    if (o.retrain_every_rounds > 0) {
      nn::TrainOptions to;
      to.epochs = 1;
      to.batch_size = o.vae.batch_size;
      to.learning_rate = o.vae.learning_rate;
      to.seed = o.seed;
      st.trainer = std::make_unique<nn::Trainer>(*st.vae, to);
      st.dataset = std::make_unique<nn::ConfigDataset>(
          fw.lattice_ref().num_sites(), o.vae.dataset_capacity,
          st.vae->options().condition_dim);
      st.reservoir_rng = Xoshiro256ss(
          o.seed ^ stream_id(static_cast<std::uint64_t>(rank), 7));
    }
    st.kernel = std::make_shared<core::DeepThermoProposal>(
        fw.hamiltonian(), st.vae, o.global_fraction);
    if (o.vae_decode_batch > 0)
      st.kernel->vae_kernel().set_decode_batch(o.vae_decode_batch);
    if (o.vae_audit_interval >= 0)
      st.kernel->vae_kernel().set_audit_interval(
          static_cast<std::uint64_t>(o.vae_audit_interval));
    if (plane != nullptr) st.kernel->attach_decode_plane(plane);
    return std::make_shared<TimedProposal>(
        st.kernel, ledger.ranks[static_cast<std::size_t>(rank)]);
  };

  par::IntervalHook hook = [&](par::Communicator& comm,
                               mc::WangLandauSampler& walker, mc::Rng&) {
    RankTrace& tr = ledger.ranks[static_cast<std::size_t>(comm.rank())];
    tr.enter_hook(now_ns());
    if (o.retrain_every_rounds > 0) {
      RankState& st = states[static_cast<std::size_t>(comm.rank())];
      st.dataset->add(walker.configuration().occupancy(), st.reservoir_rng);
      ++st.rounds;
      if (st.rounds % o.retrain_every_rounds == 0 &&
          st.dataset->size() >= 2) {
        const std::int64_t t0 = now_ns();
        par::ddp_fit(comm, *st.trainer, *st.dataset, o.retrain_epochs,
                     o.vae.batch_size);
        st.kernel->vae_kernel().invalidate_decode_cache();
        if (plane != nullptr) {
          comm.barrier();
          if (comm.rank() == 0) {
            std::istringstream rs(vae_bytes(*st.vae), std::ios::binary);
            plane->refresh_weights(rs);
          }
          comm.barrier();
        }
        const std::int64_t t1 = now_ns();
        tr.retrain_span = tr.push("nn.retrain", t0, t1);
        tr.retrain_ns += t1 - t0;
        ++tr.retrains;
      }
    }
    tr.leave_hook(now_ns());
  };

  par::RewlCheckpointConfig rewl_ckpt;
  const par::RewlCheckpointConfig* rewl_ckpt_ptr = nullptr;
  if (store != nullptr) {
    rewl_ckpt.store = store.get();
    rewl_ckpt.interval_rounds = o.checkpoint_interval_rounds;
    rewl_ckpt.min_interval_seconds = o.checkpoint_min_interval_seconds;
    rewl_ckpt.signals = &ckpt::SignalFlags::instance();
    rewl_ckpt.add_components = [&](ckpt::CheckpointBuilder& builder) {
      add_framework_component(builder, kPhaseRewl, loss_trace);
      builder.add("vae.pretrained", pretrained);
    };
    rewl_ckpt.save_extra = [&](int rank, std::ostream& os) {
      ledger.ranks[static_cast<std::size_t>(rank)].enter_save(now_ns());
      const RankState& st = states[static_cast<std::size_t>(rank)];
      st.vae->save(os);
      const std::uint8_t has_retrain = st.trainer ? 1 : 0;
      write_pod(os, has_retrain);
      if (has_retrain != 0) {
        st.trainer->save_state(os);
        st.dataset->save_state(os);
        write_pod(os, st.reservoir_rng.state());
        write_pod(os, st.rounds);
      }
      st.kernel->save_state(os);
    };
    rewl_ckpt.load_extra = [](int, std::istream&) {
      DT_CHECK_MSG(false, "the traced run never resumes");
    };
    rewl_ckpt_ptr = &rewl_ckpt;
  }

  const std::int64_t t_rewl0 = now_ns();
  for (RankTrace& tr : ledger.ranks) tr.mark = t_rewl0;
  result.rewl = par::run_rewl(fw.hamiltonian(), fw.lattice_ref(),
                              o.n_species, fw.grid(), o.rewl, factory, hook,
                              rewl_ckpt_ptr);
  const std::int64_t t_rewl1 = now_ns();
  for (RankTrace& tr : ledger.ranks) tr.finish(t_rewl1);
  ledger.rewl_ns = t_rewl1 - t_rewl0;
  result.sample_seconds = to_s(ledger.rewl_ns);

  for (const RankState& st : states) {
    result.vae_stats.proposed += st.kernel->vae_stats().proposed;
    result.vae_stats.reverted += st.kernel->vae_stats().reverted;
    result.local_stats.proposed += st.kernel->local_stats().proposed;
    result.local_stats.reverted += st.kernel->local_stats().reverted;
    ledger.decode_wait_s += st.kernel->vae_kernel().decode_wait_seconds();
  }
  if (plane != nullptr) ledger.plane = plane->stats();
  result.final_vae_weights = vae_bytes(*states[0].vae);

  // Exchange attempts follow run_rewl's fixed parity schedule: windows
  // (w, w+1) pair up in rounds r with r % 2 == w % 2, once per walker
  // slot. run_rewl reports the accepted share per lower window.
  const std::uint64_t rounds = ledger.ranks[0].rounds;
  for (std::size_t w = 0; w + 1 < result.rewl.windows.size(); ++w) {
    const std::uint64_t att =
        static_cast<std::uint64_t>(o.rewl.walkers_per_window) *
        ((rounds + (w % 2 == 0 ? 1 : 0)) / 2);
    ledger.exch_attempted += att;
    ledger.exch_accepted += static_cast<std::uint64_t>(
        std::llround(result.rewl.windows[w].exchange_acceptance *
                     static_cast<double>(att)));
  }

  if (store != nullptr && !result.rewl.interrupted) {
    ckpt::CheckpointBuilder builder;
    add_framework_component(builder, kPhaseProduction, loss_trace);
    builder.add("vae.pretrained", pretrained);
    builder.add("vae.final", result.final_vae_weights);
    builder.component("rewl.result", [&](std::ostream& os) {
      write_rewl_result(os, result.rewl);
      write_pod(os, result.vae_stats);
      write_pod(os, result.local_stats);
    });
    ledger.final_save_s = store->save(builder).seconds;
  }
  result.vae_loss_trace = loss_trace;
  result.dos = result.rewl.dos;
  result.dos.normalize(units::LogWeight(fw.log_total_states()));
  return result;
}

// ------------------------------------------------------------------- output

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

template <class T>
std::string json_list(const std::vector<T>& values) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i > 0 ? "," : "") << values[i];
  os << ']';
  return os.str();
}

std::string hex_list(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    s += (i > 0 ? ",\"" : "\"") + hex_bits(values[i]) + "\"";
  return s + "]";
}

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  Json() { os_.precision(17); }
  Json& num(const std::string& key, double v) {
    sep(key);
    if (std::isfinite(v))
      os_ << v;
    else
      os_ << "null";
    return *this;
  }
  Json& integer(const std::string& key, std::int64_t v) {
    sep(key);
    os_ << v;
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"' << v << '"';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& v) {
    sep(key);
    os_ << v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Visited bins of a DOS as [[bin, energy, ln g, "bits"], ...].
std::string dos_json(const mc::DensityOfStates& dos) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  bool first = true;
  for (std::int32_t b = 0; b < dos.grid().n_bins(); ++b) {
    if (!dos.visited(b)) continue;
    const double v = dos.log_g(b).value();
    os << (first ? "" : ",") << '[' << b << ',' << dos.grid().energy(b)
       << ',' << (std::isfinite(v) ? v : 0.0) << ",\"" << hex_bits(v)
       << "\"]";
    first = false;
  }
  os << ']';
  return os.str();
}

std::string result_json(const core::DeepThermoResult& r) {
  bool finite = r.dos.num_visited() > 0;
  for (std::int32_t b = 0; b < r.dos.grid().n_bins() && finite; ++b)
    if (r.dos.visited(b)) finite = std::isfinite(r.dos.log_g(b).value());
  std::int64_t f_stages = 0;
  for (const auto& w : r.rewl.windows) f_stages += w.f_stages;
  return Json()
      .integer("sweeps", r.rewl.total_sweeps)
      .boolean("converged", r.rewl.converged)
      .boolean("lng_finite", finite)
      .integer("f_stages", f_stages)
      .raw("walker_energies", hex_list(r.rewl.walker_energies))
      .raw("walker_rng", json_list(r.rewl.walker_rng_positions))
      .raw("lng", dos_json(r.dos))
      .integer("vae_proposed", static_cast<std::int64_t>(r.vae_stats.proposed))
      .integer("vae_reverted", static_cast<std::int64_t>(r.vae_stats.reverted))
      .integer("local_proposed",
               static_cast<std::int64_t>(r.local_stats.proposed))
      .integer("local_reverted",
               static_cast<std::int64_t>(r.local_stats.reverted))
      .done();
}

std::string ledger_json(const Ledger& l) {
  std::int64_t seek = 0, block = 0, hook = 0, ckpt = 0, sync = 0;
  std::int64_t retrain = 0, local_timed_ns = 0, vae_ns = 0;
  std::uint64_t local_calls = 0, local_timed = 0, vae_calls = 0;
  std::uint64_t retrains = 0;
  std::vector<double> busy;
  for (const RankTrace& r : l.ranks) {
    seek += r.seek_ns;
    block += r.block_ns;
    hook += r.hook_ns;
    ckpt += r.ckpt_ns;
    sync += r.sync_ns;
    retrain += r.retrain_ns;
    local_timed_ns += r.local_timed_ns;
    vae_ns += r.vae_ns;
    local_calls += r.local_calls;
    local_timed += r.local_timed;
    vae_calls += r.vae_calls;
    retrains += r.retrains;
    busy.push_back(to_s(r.busy_ns()));
  }
  return Json()
      .num("seek_s", to_s(seek))
      .num("block_s", to_s(block))
      .num("hook_s", to_s(hook))
      .num("ckpt_rewl_s", to_s(ckpt))
      .num("ckpt_final_s", l.final_save_s)
      .num("sync_s", to_s(sync))
      .num("retrain_s", to_s(retrain))
      .integer("retrains", static_cast<std::int64_t>(retrains))
      .integer("rounds", static_cast<std::int64_t>(l.ranks.at(0).rounds))
      .integer("local_calls", static_cast<std::int64_t>(local_calls))
      .integer("local_timed", static_cast<std::int64_t>(local_timed))
      .num("local_timed_s", to_s(local_timed_ns))
      .integer("vae_calls", static_cast<std::int64_t>(vae_calls))
      .num("vae_s", to_s(vae_ns))
      .num("decode_wait_s", l.decode_wait_s)
      .integer("plane_requests", static_cast<std::int64_t>(l.plane.requests))
      .integer("plane_batches", static_cast<std::int64_t>(l.plane.batches))
      .integer("plane_rows", static_cast<std::int64_t>(l.plane.rows))
      .integer("plane_coalesced",
               static_cast<std::int64_t>(l.plane.coalesced))
      .integer("exch_attempted", static_cast<std::int64_t>(l.exch_attempted))
      .integer("exch_accepted", static_cast<std::int64_t>(l.exch_accepted))
      .num("ledger_s", to_s(seek + block + hook + ckpt + sync))
      .num("rank_wall_s",
           to_s(l.rewl_ns) * static_cast<double>(l.ranks.size()))
      .raw("rank_busy_s", json_list(busy))
      .done();
}

/// Spans as one JSON array: process spans first, then each rank's.
void write_spans(const std::string& path, const std::vector<Span>& process,
                 std::int32_t run_span, const Ledger& ledger,
                 std::int64_t solve) {
  std::ofstream out(path);
  DT_CHECK_MSG(out.good(), "cannot write " << path);
  out << '[';
  std::int64_t index = 0;
  auto emit = [&](const Span& s, std::int64_t parent) {
    out << (index++ == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.t0 << ",\"end_ns\":" << s.t1
        << ",\"parent\":" << parent << ",\"solve\":" << solve
        << ",\"rank\":" << s.rank << '}';
  };
  for (const Span& s : process) emit(s, s.parent);
  for (const RankTrace& r : ledger.ranks) {
    const std::int64_t base = index;
    for (const Span& s : r.spans)
      emit(s, s.parent <= -2 ? base + (-2 - s.parent) : run_span);
  }
  out << "]\n";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  DT_CHECK_MSG(out.good(), "cannot write " << path);
  out << text << '\n';
}

// -------------------------------------------------------------------- modes

int mode_run(const Config& cfg) {
  const std::string workload = cfg.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const bool trace = cfg.get_int("trace", 0) != 0;
  const std::string out_path = cfg.get_string("out", "");
  DT_CHECK_MSG(!out_path.empty(), "--out is required");
  const core::DeepThermoOptions options =
      workload_options(workload, seed, cfg.get_string("ckpt_dir", ""));

  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& ckpt_saves = metrics.counter("ckpt.saves");
  obs::Counter& ckpt_bytes = metrics.counter("ckpt.bytes_total");
  obs::Counter& pack_hits = metrics.counter("nn.linear.pack.hits");
  obs::Counter& pack_misses = metrics.counter("nn.linear.pack.misses");

  const std::int64_t t0 = now_ns();
  core::Framework fw = core::Framework::nbmotaw(options);
  const std::int64_t t1 = now_ns();
  const nn::TrainReport report = fw.pretrain();
  const std::int64_t t2 = now_ns();

  const std::uint64_t saves0 = ckpt_saves.value();
  const std::uint64_t bytes0 = ckpt_bytes.value();
  const std::uint64_t hits0 = pack_hits.value();
  const std::uint64_t misses0 = pack_misses.value();
  Ledger ledger;
  const std::int64_t t3 = now_ns();
  const core::DeepThermoResult result =
      trace ? run_traced(fw, report.epoch_loss, ledger) : fw.run();
  const std::int64_t t4 = now_ns();

  Json out;
  out.str("workload", workload)
      .integer("seed", static_cast<std::int64_t>(seed))
      .boolean("trace", trace)
      .integer("n_ranks", options.rewl.total_ranks())
      .integer("max_sweeps", options.rewl.max_sweeps)
      .num("construct_s", to_s(t1 - t0))
      .num("pretrain_s", to_s(t2 - t1))
      .num("run_s", to_s(t4 - t3))
      .integer("ckpt_saves",
               static_cast<std::int64_t>(ckpt_saves.value() - saves0))
      .integer("ckpt_bytes",
               static_cast<std::int64_t>(ckpt_bytes.value() - bytes0))
      .integer("pack_hits",
               static_cast<std::int64_t>(pack_hits.value() - hits0))
      .integer("pack_misses",
               static_cast<std::int64_t>(pack_misses.value() - misses0))
      .str("compiler", __VERSION__)
      .raw("result", result_json(result));
  if (trace) {
    out.raw("ledger", ledger_json(ledger));
    const std::string spans = cfg.get_string("spans", "");
    if (!spans.empty()) {
      const std::vector<Span> process = {{"core.construct", t0, t1, -1, -1},
                                         {"core.pretrain", t1, t2, -1, -1},
                                         {"core.run", t3, t4, -1, -1}};
      write_spans(spans, process, 2, ledger, cfg.get_int("solve", 0));
    }
  }
  write_file(out_path, out.done());
  return 0;
}

/// Stop condition and sweep cap (per walker) of the reference solves.
constexpr double kReferenceLogF = 1e-6;
constexpr std::int64_t kReferenceMaxSweeps = 5000000;
/// Energy bins of the 16-site comparator check.
constexpr std::int32_t kOracleBins = 24;

int mode_reference(const Config& cfg) {
  core::DeepThermoOptions o = workload_options(
      "tts54", static_cast<std::uint64_t>(cfg.get_int("seed", 1)), "");
  o.use_vae = false;
  o.rewl.wl.log_f_final = kReferenceLogF;
  o.rewl.max_sweeps = kReferenceMaxSweeps;
  core::Framework fw = core::Framework::nbmotaw(o);
  const core::DeepThermoResult r = fw.run();
  write_file(cfg.get_string("out", "reference.json"),
             Json()
                 .num("log_f_final", kReferenceLogF)
                 .raw("result", result_json(r))
                 .done());
  return 0;
}

int mode_oracle16(const Config& cfg) {
  core::DeepThermoOptions o = common_options(2);
  o.n_bins = kOracleBins;
  o.rewl.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  o.rewl.max_sweeps = 1000000;
  core::Framework fw = core::Framework::nbmotaw(o);
  fw.pretrain();
  const core::DeepThermoResult r = fw.run();

  validate::OracleOptions oo;
  oo.cache_dir = "-";
  const auto comp =
      validate::equiatomic_composition(fw.lattice_ref().num_sites(), 4);
  const auto oracle = validate::ExactOracle::get(
      fw.hamiltonian(), fw.lattice_ref(), comp, oo);
  // Exact degeneracies summed per grid bin; levels outside the grid are
  // dropped, as the sampler never reaches them either.
  std::vector<double> counts(static_cast<std::size_t>(fw.grid().n_bins()),
                             0.0);
  for (const auto& level : oracle->levels()) {
    const std::int32_t b = fw.grid().bin(level.energy);
    if (b >= 0) counts[static_cast<std::size_t>(b)] += level.count;
  }
  mc::DensityOfStates exact(fw.grid());
  for (std::int32_t b = 0; b < fw.grid().n_bins(); ++b) {
    const double c = counts[static_cast<std::size_t>(b)];
    if (c > 0.0) exact.set(b, units::LogDoS(std::log(c)));
  }
  write_file(cfg.get_string("out", "oracle16.json"),
             Json()
                 .raw("result", result_json(r))
                 .raw("exact", dos_json(exact))
                 .done());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    dt::Config cfg;
    cfg.update_from_args(argc, argv);
    const std::string mode = cfg.get_string("mode", "run");
    if (mode == "run") return mode_run(cfg);
    if (mode == "reference") return mode_reference(cfg);
    if (mode == "oracle16") return mode_oracle16(cfg);
    std::cerr << "ttsbench: unknown --mode=" << mode << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ttsbench: " << e.what() << '\n';
    return 1;
  }
}
