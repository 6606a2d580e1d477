#include "core/framework.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "ckpt/fault.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/math.hpp"
#include "common/serialize.hpp"
#include "common/stopwatch.hpp"
#include "common/units.hpp"
#include "core/decode_plane.hpp"
#include "mc/metropolis.hpp"
#include "mc/multicanonical.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/ddp.hpp"
#include "par/partition.hpp"

namespace dt::core {

namespace {

constexpr std::uint64_t kFrameworkMagic = 0x44'54'46'52'41'4D'45'31ULL;

// Energy range bracketing.
constexpr std::int64_t kQuenchSweeps = 40;  ///< quench effort per edge
constexpr double kRangePad = 0.01;          ///< padding of the quenched range
/// kThermal: upper edge = <E>_rand + kRangeSigma * std(E)_rand.
constexpr double kRangeSigma = 5.0;

// Pretraining ladder, high T -> low T, in energy units.
constexpr double kPretrainTHi = 0.25;  ///< ladder start (disordered)
constexpr double kPretrainTLo = 0.02;  ///< ladder end (ordered)
constexpr std::int64_t kSweepsBetweenSamples = 2;

/// Binary (bit-exact) DOS serialisation for checkpoints; the text
/// DensityOfStates::save is for human consumption and does not round-trip
/// doubles exactly.
void write_dos(std::ostream& os, const mc::DensityOfStates& dos) {
  // A default-constructed DOS has no bin storage; num_visited() is the
  // only accessor that is safe on it.
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

mc::DensityOfStates read_dos(std::istream& is) {
  if (read_pod<std::uint8_t>(is) == 0) return {};
  const auto e_min = read_pod<double>(is);
  const auto e_max = read_pod<double>(is);
  const auto n_bins = read_pod<std::int32_t>(is);
  mc::DensityOfStates dos{mc::EnergyGrid(e_min, e_max, n_bins)};
  for (std::int32_t b = 0; b < n_bins; ++b)
    if (read_pod<std::uint8_t>(is) != 0)
      dos.set(b, units::LogDoS(read_pod<double>(is)));
  return dos;
}

void write_rewl_result(std::ostream& os, const par::RewlResult& r) {
  write_dos(os, r.dos);
  par::write_window_reports(os, r.windows);
  write_pod<std::uint8_t>(os, r.converged ? 1 : 0);
  write_pod(os, r.total_sweeps);
  write_pod(os, r.wall_seconds);
  write_pod(os, r.last_checkpoint_generation);
  write_vector(os, r.walker_energies);
  write_vector(os, r.walker_rng_positions);
}

par::RewlResult read_rewl_result(std::istream& is) {
  par::RewlResult r;
  r.dos = read_dos(is);
  r.windows = read_vector<par::RewlWindowReport>(is);
  r.converged = read_pod<std::uint8_t>(is) != 0;
  r.total_sweeps = read_pod<std::int64_t>(is);
  r.wall_seconds = read_pod<double>(is);
  r.last_checkpoint_generation = read_pod<std::uint64_t>(is);
  r.walker_energies = read_vector<double>(is);
  r.walker_rng_positions = read_vector<std::uint64_t>(is);
  return r;
}

mc::EnergyGrid build_grid(const lattice::EpiHamiltonian& hamiltonian,
                          const lattice::Lattice& lat,
                          const DeepThermoOptions& options) {
  DT_SPAN("bracket_range");
  // Validate before quenching: this runs from Framework's initializer
  // list, ahead of the constructor-body checks, and a species mismatch
  // would index the Hamiltonian's coupling table out of bounds.
  DT_CHECK_MSG(hamiltonian.n_species() == options.n_species,
               "Hamiltonian species count does not match options");
  // A bad REWL layout would otherwise surface only after pretraining,
  // from run_rewl or from a kernel built on a rank thread.
  DT_CHECK_MSG(options.global_fraction >= 0.0 && options.global_fraction <= 1.0,
               "global_fraction must be in [0, 1], got "
                   << options.global_fraction);
  DT_CHECK_MSG(options.rewl.walkers_per_window >= 1,
               "walkers_per_window must be >= 1, got "
                   << options.rewl.walkers_per_window);
  DT_CHECK_MSG(options.rewl.exchange_interval >= 1,
               "exchange_interval must be >= 1, got "
                   << options.rewl.exchange_interval);
  DT_CHECK_MSG(options.rewl.wl.log_f_final > 0.0 &&
                   options.rewl.wl.log_f_final < 1.0,
               "log_f_final must be in (0, 1), got "
                   << options.rewl.wl.log_f_final);
  (void)par::make_windows(options.n_bins, options.rewl.n_windows,
                          options.rewl.overlap);
  mc::Rng rng(options.seed, stream_id(0xE0, 0));
  lattice::Configuration cfg =
      lattice::random_configuration(lat, options.n_species, rng);
  const auto [e_lo, e_hi] = mc::estimate_energy_range(
      hamiltonian, cfg, kQuenchSweeps, kRangePad,
      mc::Rng(options.seed, stream_id(0xE0, 1)));
  if (options.range_mode == EnergyRangeMode::kFullSpectrum)
    return mc::EnergyGrid(e_lo, e_hi, options.n_bins);

  // Thermal range: upper edge from the statistics of random (infinite-T)
  // configurations instead of the up-quenched anti-ordered extreme.
  RunningStats stats;
  mc::Rng sample_rng(options.seed, stream_id(0xE0, 2));
  for (int k = 0; k < 200; ++k) {
    const auto sample =
        lattice::random_configuration(lat, options.n_species, sample_rng);
    stats.add(hamiltonian.total_energy(sample));
  }
  const double thermal_hi = stats.mean() + kRangeSigma * stats.stddev();
  DT_CHECK_MSG(thermal_hi > e_lo, "degenerate thermal energy range");
  return mc::EnergyGrid(e_lo, std::min(e_hi, thermal_hi), options.n_bins);
}

}  // namespace

Framework::Framework(DeepThermoOptions options,
                     lattice::EpiHamiltonian hamiltonian)
    : options_(std::move(options)),
      lattice_(lattice::Lattice::create(options_.lattice.type,
                                        options_.lattice.nx,
                                        options_.lattice.ny,
                                        options_.lattice.nz,
                                        options_.lattice.n_shells)),
      hamiltonian_(std::move(hamiltonian)),
      grid_(build_grid(hamiltonian_, lattice_, options_)) {
  DT_CHECK_MSG(hamiltonian_.n_species() == options_.n_species,
               "Hamiltonian species count does not match options");
  DT_CHECK_MSG(hamiltonian_.n_shells() <= lattice_.num_shells(),
               "Hamiltonian needs more shells than the lattice resolves");
}

Framework Framework::nbmotaw(DeepThermoOptions options) {
  DT_CHECK_MSG(options.n_species == 4,
               "NbMoTaW has 4 species, but n_species is "
                   << options.n_species);
  DT_CHECK_MSG(options.lattice.type == lattice::LatticeType::kBCC,
               "NbMoTaW is BCC, but the lattice is "
                   << lattice::to_string(options.lattice.type));
  return Framework(std::move(options), lattice::epi_nbmotaw());
}

double Framework::log_total_states() const {
  // Equiatomic largest-remainder composition, same as
  // random_configuration's default pool.
  const auto n = static_cast<std::size_t>(lattice_.num_sites());
  const auto s = static_cast<std::size_t>(options_.n_species);
  std::vector<std::size_t> counts(s, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[i % s];
  return log_multinomial(counts);
}

double Framework::normalized_energy(units::Energy energy) const {
  const double frac =
      (energy.value() - grid_.e_min()) / (grid_.e_max() - grid_.e_min());
  return std::clamp(frac, 0.0, 1.0);
}

nn::VaeOptions Framework::make_vae_options() const {
  nn::VaeOptions vo;
  vo.n_sites = lattice_.num_sites();
  vo.n_species = options_.n_species;
  vo.hidden = options_.vae.hidden;
  vo.latent = options_.vae.latent;
  vo.condition_dim = options_.condition_on_energy ? 1 : 0;
  return vo;
}

void Framework::save_framework_component(ckpt::CheckpointBuilder& builder,
                                         Phase phase) const {
  builder.component("framework", [&](std::ostream& os) {
    write_pod(os, kFrameworkMagic);
    write_pod(os, static_cast<std::int32_t>(phase));
    write_vector(os, loss_trace_);
  });
}

nn::TrainReport Framework::pretrain() {
  return pretrain_impl(nullptr, nullptr);
}

nn::TrainReport Framework::pretrain_impl(ckpt::CheckpointStore* store,
                                         const ckpt::Checkpoint* resume) {
  DT_SPAN("pretrain");
  obs::HealthRegistry::global().set_phase("pretrain");
  const PretrainOptions& po = options_.pretrain;
  DT_CHECK(po.n_temperatures >= 1);

  const std::int32_t cond_dim = options_.condition_on_energy ? 1 : 0;
  vae_ = std::make_shared<nn::Vae>(make_vae_options(), options_.seed);

  nn::ConfigDataset dataset(lattice_.num_sites(),
                            options_.vae.dataset_capacity, cond_dim);

  nn::TrainOptions to;
  to.epochs = options_.vae.epochs;
  to.batch_size = options_.vae.batch_size;
  to.learning_rate = options_.vae.learning_rate;
  to.seed = options_.seed ^ 0xD1B54A32D192ED03ULL;
  nn::Trainer trainer(*vae_, to);

  std::int32_t first_epoch = 0;
  if (resume != nullptr) {
    // Mid-pretrain resume: the ladder data is in the checkpoint, so the
    // annealing phase is skipped entirely.
    auto meta = resume->stream("pretrain.meta");
    first_epoch = read_pod<std::int32_t>(meta);
    auto vs = resume->stream("pretrain.vae");
    vae_->load(vs);
    auto ds = resume->stream("pretrain.dataset");
    dataset.load_state(ds);
    auto ts = resume->stream("pretrain.trainer");
    trainer.load_state(ts);
    DT_LOG_INFO << "pretrain: resuming at epoch " << first_epoch;
  } else {
    // ---- data generation: annealing ladder, high T -> low T ----
    obs::ScopedSpan ladder_span("pretrain.ladder");
    Xoshiro256ss reservoir_rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);

    mc::Rng init_rng(options_.seed, stream_id(0xAA, 0));
    lattice::Configuration cfg =
        lattice::random_configuration(lattice_, options_.n_species, init_rng);
    mc::MetropolisSampler sampler(hamiltonian_, cfg,
                                  units::Temperature(kPretrainTHi),
                                  mc::Rng(options_.seed, stream_id(0xAA, 1)));
    mc::LocalSwapProposal kernel(hamiltonian_);

    for (int t_idx = 0; t_idx < po.n_temperatures; ++t_idx) {
      // Geometric ladder hits ordering scales more evenly than linear.
      const double frac =
          po.n_temperatures == 1
              ? 0.0
              : static_cast<double>(t_idx) /
                    static_cast<double>(po.n_temperatures - 1);
      const double t =
          kPretrainTHi * std::pow(kPretrainTLo / kPretrainTHi, frac);
      sampler.set_temperature(units::Temperature(t));
      sampler.run(kernel, po.equilibration_sweeps);
      for (int k = 0; k < po.samples_per_temperature; ++k) {
        sampler.run(kernel, kSweepsBetweenSamples);
        if (cond_dim > 0) {
          const float c = static_cast<float>(
              normalized_energy(sampler.energy()));
          dataset.add(sampler.configuration().occupancy(), reservoir_rng,
                      std::span<const float>(&c, 1));
        } else {
          dataset.add(sampler.configuration().occupancy(), reservoir_rng);
        }
      }
    }
  }

  // ---- fit ----
  DT_SPAN("pretrain.fit");
  nn::EpochHook epoch_hook = [&](std::int32_t epoch, float loss) {
    loss_trace_.push_back(loss);
    const std::int32_t cadence = options_.checkpoint_pretrain_epochs;
    if (store != nullptr && cadence > 0 && (epoch + 1) % cadence == 0 &&
        epoch + 1 < to.epochs) {
      ckpt::fault_point("pretrain.epoch");
      ckpt::CheckpointBuilder builder;
      save_framework_component(builder, Phase::kPretrain);
      builder.component("pretrain.meta", [&](std::ostream& os) {
        write_pod<std::int32_t>(os, epoch + 1);
      });
      builder.component("pretrain.vae",
                        [&](std::ostream& os) { vae_->save(os); });
      builder.component("pretrain.dataset",
                        [&](std::ostream& os) { dataset.save_state(os); });
      builder.component("pretrain.trainer",
                        [&](std::ostream& os) { trainer.save_state(os); });
      obs::HealthRegistry::global().set_checkpoint_generation(
          store->save(builder).generation);
    }
  };
  nn::TrainReport report = trainer.fit(dataset, epoch_hook, first_epoch);

  std::ostringstream weights;
  vae_->save(weights);
  pretrained_weights_ = weights.str();

  DT_LOG_INFO << "pretrain: " << dataset.size() << " samples, final loss "
              << (report.epoch_loss.empty() ? 0.0f
                                            : report.epoch_loss.back());
  return report;
}

DeepThermoResult Framework::run() {
  DeepThermoResult result;
  result.grid = grid_;

  // ---- checkpoint/restart wiring ----
  const bool ckpt_enabled = !options_.checkpoint_dir.empty();
  std::unique_ptr<ckpt::CheckpointStore> store;
  std::optional<ckpt::Checkpoint> resume_ck;
  Phase resume_phase = Phase::kPretrain;
  bool resuming = false;
  if (ckpt_enabled) {
    store = std::make_unique<ckpt::CheckpointStore>(options_.checkpoint_dir,
                                                    options_.checkpoint_keep);
    if (options_.resume) {
      resume_ck = store->load_latest();
      if (resume_ck.has_value()) {
        DT_CHECK_MSG(resume_ck->has("framework"),
                     "resume: checkpoint lacks the framework component");
        auto fs = resume_ck->stream("framework");
        DT_CHECK_MSG(read_pod<std::uint64_t>(fs) == kFrameworkMagic,
                     "resume: framework component has a bad magic");
        resume_phase = static_cast<Phase>(read_pod<std::int32_t>(fs));
        loss_trace_ = read_vector<float>(fs);
        resuming = true;
        result.resumed = true;
        DT_LOG_INFO << "resume: generation " << resume_ck->generation()
                    << ", phase " << static_cast<int>(resume_phase);
      } else {
        DT_LOG_INFO
            << "resume requested but no valid checkpoint found in '"
            << options_.checkpoint_dir << "'; starting fresh";
      }
    }
  }

  // Resuming past pretrain: rebuild the shared VAE from the checkpointed
  // pretrained weights instead of re-training.
  if (resuming && resume_phase != Phase::kPretrain && options_.use_vae) {
    pretrained_weights_ = resume_ck->blob("vae.pretrained");
    vae_ = std::make_shared<nn::Vae>(make_vae_options(), options_.seed);
    std::istringstream in(pretrained_weights_, std::ios::binary);
    vae_->load(in);
  }

  Stopwatch pretrain_clock;
  if (options_.use_vae && !vae_) {
    const ckpt::Checkpoint* pretrain_resume =
        resuming && resume_phase == Phase::kPretrain ? &*resume_ck : nullptr;
    result.pretrain_report = pretrain_impl(store.get(), pretrain_resume);
    if (store != nullptr) {
      // Phase-transition checkpoint: pretrain done, REWL not started.
      ckpt::CheckpointBuilder builder;
      save_framework_component(builder, Phase::kRewl);
      builder.add("vae.pretrained", pretrained_weights_);
      obs::HealthRegistry::global().set_checkpoint_generation(
          store->save(builder).generation);
    }
  }
  result.pretrain_seconds = pretrain_clock.seconds();

  const int n_ranks = options_.rewl.total_ranks();
  const bool skip_rewl = resuming && resume_phase == Phase::kProduction;

  // Shared cross-walker decode plane: one serving VAE replica loaded
  // from the same pretrained bytes as every walker's own, so fused and
  // per-walker decodes are bitwise interchangeable. Declared before the
  // rank states so it outlives the kernels that detach from it.
  std::shared_ptr<DecodePlane> plane;
  if (options_.use_vae && options_.decode_plane && !skip_rewl) {
    auto plane_vae =
        std::make_shared<nn::Vae>(make_vae_options(), options_.seed);
    std::istringstream in(pretrained_weights_, std::ios::binary);
    plane_vae->load(in);
    DecodePlane::Options plane_opts;
    plane_opts.window_us = options_.decode_plane_window_us;
    plane = std::make_shared<DecodePlane>(std::move(plane_vae), plane_opts);
  }

  // Per-rank sampling state, created on each rank's own thread by the
  // factory and read back after run_rewl joins them.
  struct RankState {
    std::shared_ptr<nn::Vae> vae;
    std::shared_ptr<DeepThermoProposal> kernel;
    std::unique_ptr<nn::Trainer> trainer;
    std::unique_ptr<nn::ConfigDataset> dataset;
    Xoshiro256ss reservoir_rng{0};
    std::int64_t rounds = 0;
  };
  std::vector<RankState> states(static_cast<std::size_t>(n_ranks));

  par::ProposalFactory factory =
      [&](int rank) -> std::shared_ptr<mc::Proposal> {
    if (!options_.use_vae)
      return std::make_shared<mc::LocalSwapProposal>(hamiltonian_);

    RankState& st = states[static_cast<std::size_t>(rank)];
    // Per-rank replica: identical construction seed, then the pretrained
    // weights, so all replicas start in sync for data-parallel refreshes.
    st.vae = std::make_shared<nn::Vae>(vae_->options(), options_.seed);
    std::istringstream in(pretrained_weights_);
    st.vae->load(in);

    if (options_.retrain_every_rounds > 0) {
      nn::TrainOptions to;
      to.epochs = 1;
      to.batch_size = options_.vae.batch_size;
      to.learning_rate = options_.vae.learning_rate;
      to.seed = options_.seed;  // identical eps streams across replicas
      st.trainer = std::make_unique<nn::Trainer>(*st.vae, to);
      st.dataset = std::make_unique<nn::ConfigDataset>(
          lattice_.num_sites(), options_.vae.dataset_capacity,
          st.vae->options().condition_dim);
      st.reservoir_rng = Xoshiro256ss(
          options_.seed ^ stream_id(static_cast<std::uint64_t>(rank), 7));
    }

    st.kernel = std::make_shared<DeepThermoProposal>(
        hamiltonian_, st.vae, options_.global_fraction);
    if (options_.vae_decode_batch > 0)
      st.kernel->vae_kernel().set_decode_batch(options_.vae_decode_batch);
    if (options_.vae_audit_interval >= 0)
      st.kernel->vae_kernel().set_audit_interval(
          static_cast<std::uint64_t>(options_.vae_audit_interval));
    if (options_.condition_on_energy) {
      // Fix this walker's decoder condition to its window centre --
      // state-independent, so the kernel stays exactly balanced.
      const auto windows = par::make_windows(
          grid_.n_bins(), options_.rewl.n_windows, options_.rewl.overlap);
      const int window_id = rank / options_.rewl.walkers_per_window;
      const auto& w = windows[static_cast<std::size_t>(window_id)];
      const units::Energy centre(grid_.energy((w.lo_bin + w.hi_bin) / 2));
      st.kernel->vae_kernel().set_condition(
          {static_cast<float>(normalized_energy(centre))});
    }
    if (plane != nullptr) st.kernel->attach_decode_plane(plane);
    return st.kernel;
  };

  par::IntervalHook hook;
  if (options_.use_vae && options_.retrain_every_rounds > 0) {
    hook = [&](par::Communicator& comm, mc::WangLandauSampler& walker,
               mc::Rng& /*rng*/) {
      RankState& st = states[static_cast<std::size_t>(comm.rank())];
      if (options_.condition_on_energy) {
        const float c =
            static_cast<float>(normalized_energy(walker.energy()));
        st.dataset->add(walker.configuration().occupancy(), st.reservoir_rng,
                        std::span<const float>(&c, 1));
      } else {
        st.dataset->add(walker.configuration().occupancy(), st.reservoir_rng);
      }
      ++st.rounds;
      if (st.rounds % options_.retrain_every_rounds == 0 &&
          st.dataset->size() >= 2) {
        par::ddp_fit(comm, *st.trainer, *st.dataset, options_.retrain_epochs,
                     options_.vae.batch_size);
        // The kernel may hold probabilities decoded from the old weights;
        // stale entries would make sampling depend on the decode batch
        // size and break bit-exact resume. With a plane this also cancels
        // the walker's in-flight prefetch.
        st.kernel->vae_kernel().invalidate_decode_cache();
        if (plane != nullptr) {
          // Refresh the plane's serving replica under the header's
          // contract: every rank has cancelled (above; ddp_fit makes this
          // branch collective), barrier so the plane is quiescent, rank 0
          // pushes its post-fit weights (all replicas are identical after
          // the allreduce), barrier so nobody decodes before the refresh.
          comm.barrier();
          if (comm.rank() == 0) {
            std::ostringstream ws(std::ios::binary);
            st.vae->save(ws);
            std::istringstream rs(std::move(ws).str(), std::ios::binary);
            plane->refresh_weights(rs);
          }
          comm.barrier();
        }
      }
    };
  }

  if (skip_rewl) {
    // The checkpoint was taken after REWL finished: restore its result
    // and rerun only the (deterministic) production + normalisation.
    auto rs = resume_ck->stream("rewl.result");
    result.rewl = read_rewl_result(rs);
    result.vae_stats = read_pod<VaeProposalStats>(rs);
    result.local_stats = read_pod<KernelStats>(rs);
    if (resume_ck->has("vae.final"))
      result.final_vae_weights = resume_ck->blob("vae.final");
  } else {
    par::RewlCheckpointConfig rewl_ckpt;
    const par::RewlCheckpointConfig* rewl_ckpt_ptr = nullptr;
    if (store != nullptr) {
      rewl_ckpt.store = store.get();
      rewl_ckpt.interval_rounds = options_.checkpoint_interval_rounds;
      rewl_ckpt.min_interval_seconds =
          options_.checkpoint_min_interval_seconds;
      rewl_ckpt.signals = &ckpt::SignalFlags::instance();
      if (resuming && resume_phase == Phase::kRewl &&
          resume_ck->has("rewl.meta"))
        rewl_ckpt.resume_from = &*resume_ck;
      rewl_ckpt.add_components = [&](ckpt::CheckpointBuilder& builder) {
        save_framework_component(builder, Phase::kRewl);
        if (options_.use_vae)
          builder.add("vae.pretrained", pretrained_weights_);
      };
      if (options_.use_vae) {
        rewl_ckpt.save_extra = [&](int rank, std::ostream& os) {
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
          // Kernel behavioural state (VAE decode-ahead ordinal + stats)
          // last, so older records without it fail loudly on the magic.
          st.kernel->save_state(os);
        };
        rewl_ckpt.load_extra = [&](int rank, std::istream& is) {
          RankState& st = states[static_cast<std::size_t>(rank)];
          st.vae->load(is);
          const auto has_retrain = read_pod<std::uint8_t>(is);
          DT_CHECK_MSG((has_retrain != 0) == (st.trainer != nullptr),
                       "resume: retrain wiring does not match checkpoint");
          if (has_retrain != 0) {
            st.trainer->load_state(is);
            st.dataset->load_state(is);
            st.reservoir_rng.set_state(
                read_pod<std::array<std::uint64_t, 4>>(is));
            st.rounds = read_pod<std::int64_t>(is);
          }
          st.kernel->load_state(is);
          // The checkpointed replica may carry post-retrain weights; the
          // plane was built from the pretrained bytes, so re-sync it from
          // rank 0's restored replica (all replicas are identical). Safe
          // here: no walker samples before rank 0 passes the first
          // top-of-round broadcast, which happens after this hook.
          if (plane != nullptr && rank == 0) {
            std::ostringstream ws(std::ios::binary);
            st.vae->save(ws);
            std::istringstream rs(std::move(ws).str(), std::ios::binary);
            plane->refresh_weights(rs);
          }
        };
      }
      rewl_ckpt_ptr = &rewl_ckpt;
    }

    Stopwatch sample_clock;
    {
      DT_SPAN("rewl");
      result.rewl =
          par::run_rewl(hamiltonian_, lattice_, options_.n_species, grid_,
                        options_.rewl, factory, hook, rewl_ckpt_ptr);
    }
    result.sample_seconds = sample_clock.seconds();

    // Aggregate per-kernel stats (threads are joined; states are ours).
    for (const RankState& st : states) {
      if (st.kernel == nullptr) continue;
      result.vae_stats.proposed += st.kernel->vae_stats().proposed;
      result.vae_stats.reverted += st.kernel->vae_stats().reverted;
      result.local_stats.proposed += st.kernel->local_stats().proposed;
      result.local_stats.reverted += st.kernel->local_stats().reverted;
    }

    if (options_.use_vae) {
      const RankState& st0 = states[0];
      if (st0.vae != nullptr) {
        std::ostringstream weights(std::ios::binary);
        st0.vae->save(weights);
        result.final_vae_weights = std::move(weights).str();
      } else {
        result.final_vae_weights = pretrained_weights_;
      }
    }

    if (store != nullptr && !result.rewl.interrupted) {
      // Phase-transition checkpoint: REWL result banked; production and
      // normalisation are deterministic re-runs from here.
      ckpt::CheckpointBuilder builder;
      save_framework_component(builder, Phase::kProduction);
      if (options_.use_vae) {
        builder.add("vae.pretrained", pretrained_weights_);
        builder.add("vae.final", result.final_vae_weights);
      }
      builder.component("rewl.result", [&](std::ostream& os) {
        write_rewl_result(os, result.rewl);
        write_pod(os, result.vae_stats);
        write_pod(os, result.local_stats);
      });
      obs::HealthRegistry::global().set_checkpoint_generation(
          store->save(builder).generation);
    }
  }

  result.vae_loss_trace = loss_trace_;
  result.dos = result.rewl.dos;

  if (result.rewl.interrupted) {
    // Stopped early (SIGTERM-style) after a final checkpoint; skip the
    // production phase and normalisation -- the DOS is not stitched yet.
    obs::Telemetry& telemetry = obs::Telemetry::instance();
    if (telemetry.enabled()) telemetry.finish();
    return result;
  }

  // ---- optional multicanonical production phase ----
  if (options_.production_sweeps > 0 && result.rewl.dos.num_visited() > 1) {
    DT_SPAN("production");
    obs::HealthRegistry::global().set_phase("production");
    Stopwatch production_clock;
    mc::Rng init_rng(options_.seed, stream_id(0xBB, 0));
    lattice::Configuration cfg =
        lattice::random_configuration(lattice_, options_.n_species, init_rng);
    // Drive the walker onto the reference support with a cheap quench
    // towards the support's energy span.
    {
      mc::WangLandauOptions seek_opts;
      seek_opts.window_lo_bin = result.rewl.dos.first_visited();
      seek_opts.window_hi_bin = result.rewl.dos.last_visited();
      mc::WangLandauSampler seeker(hamiltonian_, cfg, grid_, seek_opts,
                                   mc::Rng(options_.seed, stream_id(0xBB, 1)));
      mc::LocalSwapProposal seek_kernel(hamiltonian_);
      seeker.seek_window(seek_kernel, 2000);
    }
    const std::int32_t start_bin = grid_.bin(hamiltonian_.total_energy(cfg));
    if (start_bin >= 0 && result.rewl.dos.visited(start_bin)) {
      mc::MulticanonicalSampler production(
          hamiltonian_, cfg, result.rewl.dos,
          mc::Rng(options_.seed, stream_id(0xBB, 2)));
      mc::LocalSwapProposal kernel(hamiltonian_);
      production.run(kernel, options_.production_sweeps);
      result.production_flatness = production.flatness();
      // Refine only if the production run covered the support; a partial
      // histogram would punch holes into the DOS.
      const auto refined = production.refined_dos();
      if (refined.num_visited() == result.rewl.dos.num_visited())
        result.dos = refined;
    } else {
      DT_LOG_WARN << "production phase skipped: walker failed to reach the "
                     "DOS support";
    }
    result.production_seconds = production_clock.seconds();
  }

  result.dos.normalize(units::LogWeight(log_total_states()));
  obs::HealthRegistry::global().set_phase("done");

  if (obs::instrumentation_active()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge("run.pretrain_seconds").set(result.pretrain_seconds);
    metrics.gauge("run.sample_seconds").set(result.sample_seconds);
    metrics.gauge("run.production_seconds").set(result.production_seconds);
    metrics.gauge("run.total_sweeps")
        .set(static_cast<double>(result.rewl.total_sweeps));
  }
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  if (telemetry.enabled()) telemetry.finish();
  return result;
}

std::vector<mc::ThermoPoint> Framework::scan(const DeepThermoResult& result,
                                             double t_lo, double t_hi,
                                             std::size_t n_points) {
  DT_SPAN("thermo_scan");
  return mc::thermo_scan(result.dos, linspace(t_lo, t_hi, n_points));
}

}  // namespace dt::core
