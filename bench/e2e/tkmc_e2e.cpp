// End-to-end benchmark program: runs one workload deck and prints its
// measurements as one JSON object on stdout (bench/e2e/run.py turns it
// into named metrics and checks the results).
//
// The engine is built exactly as `tensorkmc -in <deck>` builds it:
//   serial   — SerialEngine over the Simulation's energy model, KmcConfig
//              seed = seed ^ 0x1234beef, the Simulation's catalog;
//   parallel — ParallelEngine with ParallelConfig mapped key for key from
//              the deck, seed = seed ^ 0x9a11e1, SunwayEnergyModel for
//              NNP decks.
// so at the deck's own seed a run here follows the CLI's trajectory.
//
// Protocol (closed loop: the next step()/runCycle() is issued when the
// previous one returns):
//   1. build everything up to a ready engine several times; the median
//      is setup_s;
//   2. one warm-up rep of trajectory 0;
//   3. timed reps until --seconds have passed (at least three). Each rep
//      builds a fresh engine over the same initial state. Timed rep k
//      runs trajectory k (see trajectorySeed), so rep 0 repeats the
//      warm-up and must end on the same state.
// Setup and rep times are host-normalised (see HostProbe). With --trace,
// odd reps record bench-side spans (rep -> step|cycle -> energy.call) and
// give the per-layer metrics; even reps stay untraced and run the same
// trajectory as the traced rep after them, so the tracing overhead is
// measured on paired reps of one process. Untraced reps record only
// counts and whole-rep wall time. Traced runs build the engine once,
// since they report no setup_s. --quick is a smoke run: 1/20 of the
// deck's length, one setup, the warm-up and one rep (two when traced).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/input_deck.hpp"
#include "kmc/direct_energy_model.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/remote_store.hpp"
#include "sunway/sunway_energy_model.hpp"

using namespace tkmc;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------
// Bench-side spans

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense id per OS thread; the main thread calls it first and gets 0.
int threadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

struct Span {
  const char* name = "";
  std::int64_t beginNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  int tid = 0;
  int states = 0;  // vacancy systems evaluated (energy.call spans)
};

/// Fixed-capacity span store. add() is lock-free (one atomic slot claim),
/// so rank threads record energy spans without a shared lock.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

  void add(const Span& span) {
    const std::size_t slot = size_.fetch_add(1);
    if (slot < spans_.size())
      spans_[slot] = span;
    else
      dropped_.fetch_add(1);
  }

  /// Records [beginNs, now) under `name` on the calling thread.
  std::uint64_t close(const char* name, std::int64_t beginNs,
                      std::uint64_t parent, int states = 0) {
    const std::uint64_t id = newId();
    add({name, beginNs, nowNs(), id, parent, threadIndex(), states});
    return id;
  }

  std::size_t size() const { return std::min(size_.load(), spans_.size()); }
  const Span& operator[](std::size_t i) const { return spans_[i]; }
  std::uint64_t dropped() const { return dropped_.load(); }

  /// The step or cycle currently running; energy spans on rank threads
  /// take it as their parent.
  std::atomic<std::uint64_t> currentIteration{0};

  /// Chrome trace-event JSON: balanced B/E pairs per thread track.
  void writeChromeTrace(const std::string& path) const {
    std::map<int, std::vector<const Span*>> tracks;
    std::int64_t origin = INT64_MAX;
    for (std::size_t i = 0; i < size(); ++i) {
      tracks[spans_[i].tid].push_back(&spans_[i]);
      origin = std::min(origin, spans_[i].beginNs);
    }
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const Span& s, char ph, std::int64_t ns) {
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
                    "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"states\":%d}}",
                    first ? "" : ",", s.name, ph,
                    static_cast<double>(ns - origin) / 1e3, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.states);
      out << buf;
      first = false;
    };
    for (auto& [tid, spans] : tracks) {
      // Spans of one thread nest; sort outer-first and close with a stack.
      std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
        return a->beginNs != b->beginNs ? a->beginNs < b->beginNs
                                        : a->endNs > b->endNs;
      });
      std::vector<const Span*> open;
      for (const Span* s : spans) {
        while (!open.empty() && open.back()->endNs <= s->beginNs) {
          emit(*open.back(), 'E', open.back()->endNs);
          open.pop_back();
        }
        emit(*s, 'B', s->beginNs);
        open.push_back(s);
      }
      while (!open.empty()) {
        emit(*open.back(), 'E', open.back()->endNs);
        open.pop_back();
      }
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> nextId_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------
// Energy-model decorator

/// Forwards every call to the engine's energy model, counting calls and
/// vacancy systems; with a SpanLog it also records one `energy.call` span
/// per call, parented to the running step or cycle. supportsVet() and
/// concurrentDispatchSafe() are forwarded so the engine dispatches exactly
/// as it would without the decorator: reporting false for the EAM model
/// would serialize a threaded deck behind the engine's model mutex,
/// and the measurement would change the program. Counters are atomics
/// because threaded engines call in from every rank thread.
class TimedEnergyModel final : public EnergyModel {
 public:
  TimedEnergyModel(EnergyModel& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) override {
    return forward(1, [&] {
      return inner_.stateEnergies(state, center, numFinal);
    });
  }

  std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) override {
    return forward(1, [&] {
      return inner_.stateEnergiesFromVet(vet, numFinal);
    });
  }

  std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<Vet* const> vets, int numFinal) override {
    return forward(static_cast<int>(vets.size()), [&] {
      return inner_.stateEnergiesBatch(vets, numFinal);
    });
  }

  bool supportsVet() const override { return inner_.supportsVet(); }
  bool concurrentDispatchSafe() const override {
    return inner_.concurrentDispatchSafe();
  }
  const char* name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t states() const { return states_.load(); }
  void resetCounts() {
    calls_ = 0;
    states_ = 0;
  }

 private:
  template <typename F>
  auto forward(int states, F&& evaluate) -> decltype(evaluate()) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    states_.fetch_add(static_cast<std::uint64_t>(states),
                      std::memory_order_relaxed);
    if (log_ == nullptr) return evaluate();
    const std::int64_t begin = nowNs();
    auto result = evaluate();
    log_->close("energy.call", begin, log_->currentIteration.load(), states);
    return result;
  }

  EnergyModel& inner_;
  SpanLog* log_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> states_{0};
};

// ---------------------------------------------------------------------
// Small helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

volatile std::uint64_t gProbeSink = 0;

/// Measures how fast the host runs the program while it runs, so that
/// timings can be host-normalised.
///
/// On a shared host the speed of a vCPU changes for seconds to minutes at
/// a time: the host sometimes runs another tenant on the sibling
/// hyperthread of the same core, and the two share its execution ports.
/// Code that keeps the ports busy, as the engine's loops do, then runs up
/// to 1.6x slower; a latency-bound loop (one dependency chain, or a
/// pointer chase) hardly slows. So the probe is a fixed loop of eight
/// independent xorshift-multiply streams. It touches no memory and leaves
/// the program's caches as they were, so it can run between iterations
/// of the timed loop, at most every kGapMs. The mean probe time over a
/// rep then follows the host's speed during that rep.
/// bench/e2e/README.md, "Host-normalised time", has the measurements.
class HostProbe {
 public:
  /// Probe time that defines a host-normalised second: about the probe's
  /// time on a quiet core of a 2.1 GHz Xeon.
  static constexpr double kNominalUs = 50.0;

  /// Called between iterations of a timed loop: probes if none has run
  /// since reset() or kGapMs have passed since the last one.
  void between() {
    if (count_ == 0 || sinceLast_.milliseconds() >= kGapMs) run();
  }

  void run() {
    std::uint64_t z[8];
    for (int k = 0; k < 8; ++k)
      z[k] = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k + 1) +
             gProbeSink;
    Stopwatch watch;
    for (int i = 0; i < kIterations; ++i)
      for (std::uint64_t& v : z) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        v *= 0xFF51AFD7ED558CCDULL;
      }
    totalS_ += watch.seconds();
    ++count_;
    // Every stream reaches the sink, so none can be optimised away.
    std::uint64_t all = 0;
    for (const std::uint64_t v : z) all ^= v;
    gProbeSink = gProbeSink + all;
    sinceLast_.reset();
  }

  void reset() {
    totalS_ = 0.0;
    count_ = 0;
  }

  /// Seconds spent probing since reset(); timed work excludes them.
  double totalSeconds() const { return totalS_; }
  double meanUs() const {
    return count_ > 0 ? totalS_ * 1e6 / static_cast<double>(count_)
                      : kNominalUs;
  }

  /// `seconds` of work measured since reset(), expressed on a host that
  /// runs the probe in kNominalUs. The ratio cancels the host's speed,
  /// while a slower program still reads slower.
  double hostSeconds(double seconds) const {
    return seconds * kNominalUs / meanUs();
  }

 private:
  static constexpr double kGapMs = 5.0;
  static constexpr int kIterations = 8000;

  Stopwatch sinceLast_;
  double totalS_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Engine seed of trajectory k. Trajectory 0 runs --seed itself, which at
/// the deck's seed is the CLI's trajectory; the others draw fresh streams.
/// A run's median then averages over many trajectories: with one
/// trajectory per run, the events a rep commits moved by 7% (IQR /
/// median) between seeds on the EAM decks, against 2% for the per-run
/// median over many.
std::uint64_t trajectorySeed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed
                : SplitMix64(seed ^ (k * 0x9E3779B97F4A7C15ULL)).next();
}

struct SpeciesCounts {
  std::int64_t fe = 0, cu = 0, vacancies = 0;
  bool operator==(const SpeciesCounts&) const = default;
};

SpeciesCounts countsOf(const LatticeState& s) {
  return {s.countSpecies(Species::kFe), s.countSpecies(Species::kCu),
          s.countSpecies(Species::kVacancy)};
}

/// Correctness checks; every check counts as one attempted operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

using Samples = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------------
// Workload

struct Options {
  std::string deck;
  std::string workdir = ".";
  std::string tracePath;  // non-empty: traced reps on
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  bool quick = false;

  bool traced() const { return !tracePath.empty(); }
  double lengthScale() const { return quick ? 0.05 : 1.0; }
  /// Traced runs alternate untraced and traced reps; they need one of each.
  int minReps() const { return !quick ? 3 : traced() ? 2 : 1; }
  /// Only a full untraced run reports setup_s; the others build once.
  bool repeatSetup() const { return !traced() && !quick; }
};

struct RepResult {
  bool traced = false;
  std::uint64_t seed = 0;  // the engine seed: which trajectory
  std::uint32_t hash = 0;
  std::uint64_t events = 0;
  std::uint64_t iterations = 0;  // steps or cycles
  std::uint64_t rollbacks = 0;
  double probeUs = 0.0;  // mean host probe time during the rep
  std::optional<LatticeState> finalState;
  Samples e2e;
  Samples layer;  // traced reps only
};

constexpr int kGhostReplays = 60;
constexpr std::size_t kSpanCapacity = 1u << 19;

/// The deck's random alloy, drawn from the deck's seed by the same recipe
/// as the Simulation facade.
LatticeState generateAlloy(const SimulationConfig& c) {
  LatticeState state(BccLattice(c.cells, c.cells, c.cells, c.latticeConstant));
  const std::int64_t vacancies =
      c.vacancyCount >= 0
          ? c.vacancyCount
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(state.lattice().siteCount()) *
                       c.vacancyConcentration));
  Rng rng(c.seed);
  state.randomAlloy(c.cuFraction, vacancies, rng);
  return state;
}

/// One deck under the benchmark seed. The seed draws the engine's random
/// streams: which events fire, and when. The alloy and the self-trained
/// NNP come from the deck's seed. The NNP is part of the program under
/// test. The alloy is held fixed because it sets how many events a cycle
/// commits: over eight seeds, drawing the alloy too moved the events per
/// rep of shim_amar_cycle by 8% (IQR / median), against 4% for the
/// random streams alone. At the deck's own seed, trajectory 0 is exactly
/// `tensorkmc -in <deck>`.
class Workload {
 public:
  Workload(const Options& opt, const InputDeck& deck)
      : opt_(opt), deck_(deck), config_(deck.simulationConfig()),
        initial_(generateAlloy(config_)),
        initialCounts_(countsOf(initial_)) {
    if (!opt.tracePath.empty()) log_ = std::make_unique<SpanLog>(kSpanCapacity);
    if (!deck_.checkpointDir().empty())
      checkpointDir_ = (fs::path(opt.workdir) / deck_.checkpointDir()).string();
    if (!deck_.remoteDir().empty())
      remoteDir_ = (fs::path(opt.workdir) / deck_.remoteDir()).string();
  }

  ~Workload() { removeRunDirs(); }

  /// Time until an engine is ready for its first event: the Simulation
  /// (which builds the serial engine), plus the Sunway model and a
  /// ParallelEngine for parallel decks. Repeated (at least 3 times, up to
  /// 31 within 1 s) when setup_s is reported; returns the host-normalised
  /// seconds of each construction and keeps the last Simulation. The
  /// constructors cannot be interrupted, so the host is probed just
  /// before and just after each one.
  std::vector<double> setup() {
    constexpr int kProbesEachSide = 16;
    const int minSetups = opt_.repeatSetup() ? 3 : 1;
    const double budgetS = opt_.repeatSetup() ? 1.0 : 0.0;
    std::vector<double> seconds;
    Stopwatch phase;
    for (int k = 0; k < minSetups || (k < 31 && phase.seconds() < budgetS);
         ++k) {
      sunway_.reset();
      sim_.reset();
      std::unique_ptr<ParallelEngine> engine;  // destroyed after the timing
      probe_.reset();
      for (int i = 0; i < kProbesEachSide; ++i) probe_.run();
      Stopwatch watch;
      sim_ = std::make_unique<Simulation>(config_);
      if (deck_.parallelMode()) {
        if (config_.potential == SimulationConfig::Potential::kNnp)
          sunway_ = std::make_unique<SunwayEnergyModel>(
              sim_->cet(), sim_->net(), *sim_->featureTable(),
              *sim_->network());
        engine = makeParallelEngine(parallelModel(), opt_.seed);
      }
      const double built = watch.seconds();
      for (int i = 0; i < kProbesEachSide; ++i) probe_.run();
      seconds.push_back(probe_.hostSeconds(built));
    }
    return seconds;
  }

  /// One rep of the trajectory that `seed` draws.
  RepResult runRep(double lengthScale, bool traced, std::uint64_t seed,
                   Checks& checks) {
    RepResult rep;
    rep.traced = traced;
    rep.seed = seed;
    if (deck_.parallelMode()) {
      runParallelRep(rep, lengthScale, checks);
      removeRunDirs();
    } else {
      runSerialRep(rep, lengthScale, checks);
    }
    checks.expect(countsOf(*rep.finalState) == initialCounts_,
                  "Fe, Cu and vacancy counts conserved");
    return rep;
  }

  /// Replays GhostExchange::exchangeAll on the final state decomposed over
  /// the deck's rank grid (the engine's own subdomain layout), in the
  /// deck's RankTeam mode. A serial engine exchanges no ghosts, so serial
  /// decks report zeros.
  void replayGhostExchange(const LatticeState& final, Samples& layer) {
    if (!deck_.parallelMode()) {
      addZeros(layer, {"ghost.exchange_ms.p50", "ghost.bytes_per_exchange",
                       "ghost.msgs_per_exchange"});
      return;
    }
    const BccLattice& lattice = final.lattice();
    const Vec3i grid = deck_.rankGrid();
    Decomposition decomp({lattice.cellsX(), lattice.cellsY(), lattice.cellsZ()},
                         grid);
    const int ghost = requiredGhostCells(sim_->cet());
    const Vec3i ghostVec{grid.x > 1 ? ghost : 0, grid.y > 1 ? ghost : 0,
                         grid.z > 1 ? ghost : 0};
    std::vector<Subdomain> domains;
    for (int r = 0; r < decomp.rankCount(); ++r) {
      domains.emplace_back(lattice, decomp.originCells(r), decomp.extentCells(),
                           ghostVec);
      domains.back().loadFrom(final);
    }
    SimComm comm(decomp.rankCount());
    GhostExchange exchange(decomp, comm);
    std::unique_ptr<RankTeam> team;
    if (deck_.threaded()) team = std::make_unique<RankTeam>(decomp.rankCount());
    std::vector<double> ms;
    const std::int64_t begin = nowNs();
    for (int i = 0; i < kGhostReplays; ++i) {
      Stopwatch watch;
      exchange.exchangeAll(domains, team.get());
      ms.push_back(watch.milliseconds());
    }
    if (log_) log_->close("ghost.replay", begin, 0);
    layer["ghost.exchange_ms.p50"].push_back(quantile(ms, 0.5));
    layer["ghost.bytes_per_exchange"].push_back(
        static_cast<double>(comm.totalBytesSent()) / kGhostReplays);
    layer["ghost.msgs_per_exchange"].push_back(
        static_cast<double>(comm.totalMessagesSent()) / kGhostReplays);
  }

  /// Hop-energy agreement of the workload's NNP backend with an
  /// independent reference for every vacancy of `final`:
  ///   serial   — tabulated NnpEnergyModel vs DirectEnergyModel;
  ///   parallel — SunwayEnergyModel vs the double NnpEnergyModel.
  /// Tolerance 1e-3 * max(1, |dE|), as the Sunway model's unit test uses.
  void checkNnpEnergies(const LatticeState& final, Checks& checks) {
    if (config_.potential != SimulationConfig::Potential::kNnp) return;
    std::unique_ptr<EnergyModel> direct;
    EnergyModel* tested = sunway_ ? static_cast<EnergyModel*>(sunway_.get())
                                  : &sim_->model();
    EnergyModel* reference = &sim_->model();
    if (!sunway_) {
      direct = std::make_unique<DirectEnergyModel>(
          config_.latticeConstant, config_.cutoff, *sim_->network());
      reference = direct.get();
    }
    for (const Vec3i& v : final.vacancies()) {
      const auto a = tested->stateEnergies(final, v, kNumJumpDirections);
      const auto b = reference->stateEnergies(final, v, kNumJumpDirections);
      bool ok = a.size() == b.size();
      for (std::size_t k = 1; ok && k < a.size(); ++k) {
        const double dA = a[k] - a[0], dB = b[k] - b[0];
        ok = std::abs(dA - dB) <= 1e-3 * std::max(1.0, std::abs(dB));
      }
      checks.expect(ok, std::string(tested->name()) + " hop energies match " +
                            reference->name() + " at a final vacancy");
    }
  }

  SpanLog* log() { return log_.get(); }
  double bytesPerSite() const { return initial_.store().bytesPerSite(); }

 private:
  struct Timed {
    double wallS = 0.0;
    double cpuS = 0.0;
  };

  /// Rep-level bookkeeping shared by both engines: the `rep` span, wall
  /// and CPU time. The body calls probe_.between() after each iteration;
  /// the probes' time is taken out of both.
  template <typename Body>
  Timed timeRep(RepResult& rep, Body&& body) {
    const std::uint64_t repId = rep.traced ? log_->newId() : 0;
    const std::int64_t begin = nowNs();
    probe_.reset();
    const double cpu0 = cpuSeconds();
    Stopwatch watch;
    body(repId);
    const double probeS = probe_.totalSeconds();
    const Timed t{watch.seconds() - probeS, cpuSeconds() - cpu0 - probeS};
    rep.probeUs = probe_.meanUs();
    if (rep.traced)
      log_->add({"rep", begin, nowNs(), repId, 0, threadIndex(), 0});
    return t;
  }

  void addE2e(RepResult& rep, const Timed& t, double simSeconds) {
    const auto events = static_cast<double>(rep.events);
    const double wall = probe_.hostSeconds(t.wallS);
    rep.e2e["events_per_s"].push_back(ratio(events, wall));
    rep.e2e["events_per_s.raw"].push_back(ratio(events, t.wallS));
    rep.e2e["sim_s_per_wall_s"].push_back(ratio(simSeconds, wall));
    rep.e2e["cpu_s_per_kevent"].push_back(
        ratio(probe_.hostSeconds(t.cpuS), events / 1000.0));
  }

  /// Per-iteration spans of one traced rep: iteration times, and energy
  /// time as the union of the energy spans inside each iteration (rank
  /// threads overlap, so durations are also summed separately).
  struct IterationStats {
    std::vector<double> iterUs;
    double iterSumS = 0.0;
    double energyCoveredS = 0.0;
    double energySumS = 0.0;
    std::vector<double> batchStates;
  };

  IterationStats iterationStats(std::size_t spanBegin,
                                const char* iterName) const {
    IterationStats st;
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        energyByIter;
    for (std::size_t i = spanBegin; i < log_->size(); ++i) {
      const Span& s = (*log_)[i];
      const double dur = static_cast<double>(s.endNs - s.beginNs) * 1e-9;
      if (std::strcmp(s.name, iterName) == 0) {
        st.iterUs.push_back(dur * 1e6);
        st.iterSumS += dur;
      } else if (std::strcmp(s.name, "energy.call") == 0) {
        st.energySumS += dur;
        st.batchStates.push_back(s.states);
        energyByIter[s.parent].emplace_back(s.beginNs, s.endNs);
      }
    }
    for (auto& [iter, intervals] : energyByIter) {
      std::sort(intervals.begin(), intervals.end());
      std::int64_t coveredNs = 0, lo = intervals[0].first, hi = intervals[0].second;
      for (const auto& [b, e] : intervals) {
        if (b > hi) {
          coveredNs += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      coveredNs += hi - lo;
      st.energyCoveredS += static_cast<double>(coveredNs) * 1e-9;
    }
    return st;
  }

  void addEnergyLayer(RepResult& rep, const IterationStats& st,
                      const TimedEnergyModel& timed) {
    Samples& l = rep.layer;
    const auto events = static_cast<double>(rep.events);
    const auto iters = static_cast<double>(rep.iterations);
    const auto states = static_cast<double>(timed.states());
    l["engine.iter_us.p50"].push_back(quantile(st.iterUs, 0.5));
    l["engine.iter_us.p95"].push_back(quantile(st.iterUs, 0.95));
    l["engine.events_per_iter"].push_back(ratio(events, iters));
    l["engine.self_us_per_event"].push_back(
        ratio((st.iterSumS - st.energyCoveredS) * 1e6, events));
    l["energy.busy_frac"].push_back(ratio(st.energyCoveredS, st.iterSumS));
    l["energy.us_per_state"].push_back(ratio(st.energySumS * 1e6, states));
    l["energy.thread_us_per_iter"].push_back(ratio(st.energySumS * 1e6, iters));
    l["energy.states_per_event"].push_back(ratio(states, events));
    l["energy.batch_states.p50"].push_back(quantile(st.batchStates, 0.5));
    l["energy.batch_states.max"].push_back(quantile(st.batchStates, 1.0));
  }

  /// Layers a workload bypasses report zero, so every workload prints the
  /// same metric names.
  static void addZeros(Samples& l, std::initializer_list<const char*> names) {
    for (const char* n : names) l[n].push_back(0.0);
  }

  void runSerialRep(RepResult& rep, double lengthScale, Checks& checks) {
    const bool traced = rep.traced;
    LatticeState state = initial_;
    TimedEnergyModel timed(sim_->model(), traced ? log_.get() : nullptr);
    KmcConfig kc;
    kc.temperature = config_.temperature;
    kc.seed = rep.seed ^ 0x1234beefULL;
    kc.useVacancyCache = config_.useVacancyCache;
    kc.useTree = config_.useTree;
    kc.tEnd = 1e300;
    Stopwatch build;
    SerialEngine engine(state, timed, sim_->cet(), kc, &sim_->engine().catalog());
    const double engineMs = build.milliseconds();

    const auto maxSteps = static_cast<std::uint64_t>(std::max(
        1.0, std::round(static_cast<double>(deck_.maxSteps()) * lengthScale)));
    const std::uint64_t gathers0 = engine.cache().gatherCount();
    const std::uint64_t hits0 = engine.cache().hitCount();
    const std::uint64_t misses0 = engine.cache().missCount();
    const std::uint64_t updates0 = engine.tree().updateCount();
    timed.resetCounts();
    const std::size_t spanBegin = traced ? log_->size() : 0;

    const Timed t = timeRep(rep, [&](std::uint64_t repId) {
      while (engine.time() < deck_.tEnd() && rep.events < maxSteps) {
        std::int64_t begin = 0;
        if (traced) {
          log_->currentIteration = log_->newId();
          begin = nowNs();
        }
        const bool advanced = engine.step().advanced;
        if (traced)
          log_->add({"step", begin, nowNs(), log_->currentIteration.load(),
                     repId, threadIndex(), 0});
        probe_.between();
        if (!advanced) break;
        ++rep.events;
      }
    });
    rep.iterations = rep.events;
    rep.hash = state.contentHash();
    checks.expect(rep.events == maxSteps, "serial rep executed its full length");
    addE2e(rep, t, engine.time());

    if (traced) {
      const IterationStats st = iterationStats(spanBegin, "step");
      addEnergyLayer(rep, st, timed);
      Samples& l = rep.layer;
      const auto events = static_cast<double>(rep.events);
      const auto hits = static_cast<double>(engine.cache().hitCount() - hits0);
      const auto misses =
          static_cast<double>(engine.cache().missCount() - misses0);
      l["kmc.cache_hit_rate"].push_back(ratio(hits, hits + misses));
      l["kmc.gathers_per_event"].push_back(ratio(
          static_cast<double>(engine.cache().gatherCount() - gathers0), events));
      l["kmc.tree_updates_per_event"].push_back(ratio(
          static_cast<double>(engine.tree().updateCount() - updates0), events));
      l["setup.engine_ms"].push_back(engineMs);
      addZeros(l, {"parallel.discard_frac", "comm.bytes_per_cycle",
                   "comm.msgs_per_cycle"});
      addSunwayZeros(l);
      addCheckpointZeros(l);
    }
    rep.finalState = std::move(state);
  }

  ParallelConfig parallelConfig(std::uint64_t seed) const {
    ParallelConfig pc;
    pc.temperature = config_.temperature;
    pc.tStop = deck_.tStop();
    pc.seed = seed ^ 0x9a11e1ULL;
    pc.rankGrid = deck_.rankGrid();
    pc.catalog = config_.eventCatalog;
    pc.threaded = deck_.threaded();
    pc.enableRecovery = deck_.recovery();
    pc.checkpointDir = checkpointDir_;
    pc.checkpointCadence = deck_.checkpointCadence();
    pc.checkpointMode = deck_.deltaCheckpoints() ? CheckpointMode::kDelta
                                                 : CheckpointMode::kFull;
    pc.maxDeltaChain = deck_.maxDeltaChain();
    pc.spareRanks = deck_.spareRanks();
    pc.heartbeatIntervalMs = deck_.heartbeatIntervalMs();
    pc.heartbeatTimeoutMs = deck_.heartbeatTimeoutMs();
    pc.remoteDir = remoteDir_;
    pc.remoteRateMbps = deck_.remoteRateMbps();
    pc.remoteMaxLagEpochs = deck_.remoteMaxLagEpochs();
    pc.remoteRetries = deck_.remoteRetries();
    return pc;
  }

  void removeRunDirs() const {
    std::error_code ec;
    if (!checkpointDir_.empty()) fs::remove_all(checkpointDir_, ec);
    if (!remoteDir_.empty()) fs::remove_all(remoteDir_, ec);
  }

  EnergyModel& parallelModel() {
    return sunway_ ? static_cast<EnergyModel&>(*sunway_) : sim_->model();
  }

  /// A fresh engine over the initial state, with empty checkpoint dirs.
  std::unique_ptr<ParallelEngine> makeParallelEngine(EnergyModel& model,
                                                     std::uint64_t seed) {
    removeRunDirs();
    return std::make_unique<ParallelEngine>(initial_, model, sim_->cet(),
                                            parallelConfig(seed));
  }

  void runParallelRep(RepResult& rep, double lengthScale, Checks& checks) {
    const bool traced = rep.traced;
    const ParallelConfig pc = parallelConfig(rep.seed);
    TimedEnergyModel timed(parallelModel(), traced ? log_.get() : nullptr);
    Stopwatch build;
    const std::unique_ptr<ParallelEngine> enginePtr =
        makeParallelEngine(timed, rep.seed);
    ParallelEngine& engine = *enginePtr;
    const double engineMs = build.milliseconds();

    const double tEnd = deck_.tEnd() * lengthScale;
    const bool checkpointing = !pc.checkpointDir.empty();
    const auto cadence =
        static_cast<std::uint64_t>(std::max(1, pc.checkpointCadence));
    const std::uint64_t bytes0 = engine.comm().totalBytesSent();
    const std::uint64_t msgs0 = engine.comm().totalMessagesSent();
    Traffic traffic0;
    double modeled0 = 0.0;
    std::uint64_t launches0 = 0;
    if (sunway_) {
      traffic0 = sunway_->grid().peekTraffic();
      modeled0 = sunway_->grid().peekModeledSeconds();
      launches0 = sunway_->grid().launchCount();
    }
    timed.resetCounts();
    const std::size_t spanBegin = traced ? log_->size() : 0;
    std::vector<double> commitMs, plainMs;
    double drainMs = 0.0;

    const Timed t = timeRep(rep, [&](std::uint64_t repId) {
      while (engine.time() < tEnd) {
        std::int64_t begin = 0;
        if (traced) {
          log_->currentIteration = log_->newId();
          begin = nowNs();
        }
        engine.runCycle();
        if (traced) {
          const std::int64_t end = nowNs();
          log_->add({"cycle", begin, end, log_->currentIteration.load(), repId,
                     threadIndex(), 0});
          const bool commit = checkpointing && engine.cycles() % cadence == 0;
          (commit ? commitMs : plainMs)
              .push_back(static_cast<double>(end - begin) * 1e-6);
        }
        probe_.between();
      }
      // The CLI drains the remote mirror before it reports; so does a rep.
      if (engine.shardStreamer() != nullptr) {
        const std::int64_t begin = nowNs();
        Stopwatch drain;
        checks.expect(engine.shardStreamer()->drain(),
                      "remote streamer drained");
        drainMs = drain.milliseconds();
        if (traced) log_->close("remote.drain", begin, repId);
      }
    });
    rep.events = engine.totalEvents();
    rep.iterations = engine.cycles();
    LatticeState final = engine.assembleGlobalState();
    rep.hash = final.contentHash();
    addE2e(rep, t, engine.time());

    const RecoveryStats rs = engine.recoveryStats();
    rep.rollbacks = rs.rollbacks;
    checks.expect(rs.rollbacks == 0 && rs.invariantTrips == 0 &&
                      rs.commErrors == 0 && rs.ghostRetries == 0 &&
                      rs.foldRetries == 0 && rs.rankFailures == 0 &&
                      rs.epochsRolledBack == 0 && rs.growRecoveries == 0,
                  "recovery stats stay zero");
    checks.expect(engine.ghostsConsistent(), "ghost shells match their owners");
    checks.expect(engine.vacancyCount() == initialCounts_.vacancies,
                  "owned vacancies conserved across ranks");
    if (engine.shardStreamer() != nullptr)
      checks.expect(engine.shardStreamer()->gaveUp() == 0,
                    "remote streamer gave up no epoch");

    if (traced) {
      const IterationStats st = iterationStats(spanBegin, "cycle");
      addEnergyLayer(rep, st, timed);
      Samples& l = rep.layer;
      const auto cycles = static_cast<double>(rep.iterations);
      const auto events = static_cast<double>(rep.events);
      const auto discarded = static_cast<double>(engine.discardedEvents());
      l["parallel.discard_frac"].push_back(ratio(discarded, events + discarded));
      l["comm.bytes_per_cycle"].push_back(ratio(
          static_cast<double>(engine.comm().totalBytesSent() - bytes0), cycles));
      l["comm.msgs_per_cycle"].push_back(ratio(
          static_cast<double>(engine.comm().totalMessagesSent() - msgs0),
          cycles));
      l["setup.engine_ms"].push_back(engineMs);
      addZeros(l, {"kmc.cache_hit_rate", "kmc.gathers_per_event",
                   "kmc.tree_updates_per_event"});
      if (sunway_)
        addSunwayLayer(l, traffic0, modeled0, launches0, timed);
      else
        addSunwayZeros(l);
      if (checkpointing)
        addCheckpointLayer(l, engine, commitMs, plainMs, drainMs);
      else
        addCheckpointZeros(l);
    }
    if (checkpointing) checkResume(engine, rep, checks);
    rep.finalState = std::move(final);
  }

  void addSunwayLayer(Samples& l, const Traffic& traffic0, double modeled0,
                      std::uint64_t launches0, const TimedEnergyModel& timed) {
    const CpeGrid& grid = sunway_->grid();
    const Traffic now = grid.peekTraffic();
    const auto states = static_cast<double>(timed.states());
    const auto mainBytes =
        static_cast<double>(now.mainBytes() - traffic0.mainBytes());
    const auto flops = static_cast<double>(now.flops - traffic0.flops);
    l["sunway.main_bytes_per_state"].push_back(ratio(mainBytes, states));
    l["sunway.rma_bytes_per_state"].push_back(ratio(
        static_cast<double>(now.rmaBytes - traffic0.rmaBytes), states));
    l["sunway.flops_per_state"].push_back(ratio(flops, states));
    l["sunway.flops_per_byte"].push_back(ratio(flops, mainBytes));
    l["sunway.modeled_us_per_state"].push_back(
        ratio((grid.peekModeledSeconds() - modeled0) * 1e6, states));
    l["sunway.launches_per_batch"].push_back(
        ratio(static_cast<double>(grid.launchCount() - launches0),
              static_cast<double>(timed.calls())));
    l["sunway.ldm_high_water_kb"].push_back(
        static_cast<double>(grid.maxLdmHighWater()) / 1024.0);
  }

  static void addSunwayZeros(Samples& l) {
    addZeros(l, {"sunway.main_bytes_per_state", "sunway.rma_bytes_per_state",
                 "sunway.flops_per_state", "sunway.flops_per_byte",
                 "sunway.launches_per_batch", "sunway.ldm_high_water_kb"});
  }

  void addCheckpointLayer(Samples& l, const ParallelEngine& engine,
                          const std::vector<double>& commitMs,
                          const std::vector<double>& plainMs, double drainMs) {
    const double commitP50 = quantile(commitMs, 0.5);
    const double plainP50 = quantile(plainMs, 0.5);
    double cycleSumMs = 0.0;
    for (double ms : commitMs) cycleSumMs += ms;
    for (double ms : plainMs) cycleSumMs += ms;
    l["checkpoint.commit_cycle_ms.p50"].push_back(commitP50);
    l["checkpoint.plain_cycle_ms.p50"].push_back(plainP50);
    l["checkpoint.commit_cost_ms"].push_back(commitP50 - plainP50);
    l["checkpoint.commit_share"].push_back(ratio(
        (commitP50 - plainP50) * static_cast<double>(commitMs.size()),
        cycleSumMs));
    // Sizes from the manifests still on disk at the end of the rep:
    // consolidation has collected older deltas by then.
    std::vector<double> deltaBytes, fullBytes;
    const CheckpointStore& store = *engine.checkpointStore();
    for (const std::uint64_t epoch : store.epochs()) {
      const EpochManifest m = store.loadManifest(epoch);
      double bytes = 0.0;
      for (const EpochManifest::ShardEntry& s : m.shards)
        bytes += static_cast<double>(s.bytes);
      (m.isDelta() ? deltaBytes : fullBytes).push_back(bytes);
    }
    l["checkpoint.bytes_per_delta_epoch"].push_back(quantile(deltaBytes, 0.5));
    l["checkpoint.bytes_per_full_epoch"].push_back(quantile(fullBytes, 0.5));
    const ShardStreamer* streamer = engine.shardStreamer();
    l["remote.epochs_streamed"].push_back(
        streamer ? static_cast<double>(streamer->epochsStreamed()) : 0.0);
    l["remote.retries"].push_back(
        streamer ? static_cast<double>(streamer->retries()) : 0.0);
    l["remote.gave_up"].push_back(
        streamer ? static_cast<double>(streamer->gaveUp()) : 0.0);
    l["remote.drain_ms"].push_back(drainMs);
  }

  static void addCheckpointZeros(Samples& l) {
    addZeros(l, {"checkpoint.commit_share", "checkpoint.bytes_per_delta_epoch",
                 "checkpoint.bytes_per_full_epoch", "remote.epochs_streamed",
                 "remote.retries", "remote.gave_up"});
  }

  /// Resumes a second engine from the newest committed epoch (healing
  /// through the remote mirror if needed), brings it to the live engine's
  /// cycle, and requires both to agree bit for bit — state, clocks and
  /// counters — and to stay identical for two more cycles, which also
  /// pins the restored RNG streams.
  void checkResume(ParallelEngine& live, RepResult& rep, Checks& checks) {
    const std::int64_t begin = nowNs();
    Stopwatch watch;
    CheckpointStore probe(checkpointDir_);
    probe.setMaxDeltaChain(deck_.maxDeltaChain());
    if (!remoteDir_.empty())
      probe.attachRemote(std::make_shared<DirRemoteStore>(remoteDir_));
    const std::optional<std::uint64_t> epoch = probe.newestCompleteEpoch();
    checks.expect(epoch.has_value(), "a committed epoch exists to resume from");
    if (!epoch) return;
    ParallelConfig rc = parallelConfig(rep.seed);
    rc.checkpointDir.clear();
    rc.remoteDir.clear();
    ParallelEngine resumed(parallelModel(), sim_->cet(), rc, probe, *epoch);
    if (rep.traced) {
      rep.layer["checkpoint.resume_ms"].push_back(watch.milliseconds());
      log_->close("checkpoint.resume", begin, 0);
    }
    while (resumed.cycles() < live.cycles()) resumed.runCycle();
    const auto same = [&] {
      return resumed.cycles() == live.cycles() && resumed.time() == live.time() &&
             resumed.totalEvents() == live.totalEvents() &&
             resumed.assembleGlobalState() == live.assembleGlobalState();
    };
    bool ok = same();
    for (int r = 0; ok && r < live.rankCount(); ++r)
      ok = resumed.subdomain(r).vacancies() == live.subdomain(r).vacancies();
    for (int c = 0; ok && c < 2; ++c) {
      live.runCycle();
      resumed.runCycle();
      ok = same();
    }
    checks.expect(ok, "engine resumed from epoch " + std::to_string(*epoch) +
                          " matches the live engine bit for bit");
  }

  const Options& opt_;
  const InputDeck& deck_;
  SimulationConfig config_;
  LatticeState initial_;
  SpeciesCounts initialCounts_;
  std::string checkpointDir_;
  std::string remoteDir_;
  std::unique_ptr<SpanLog> log_;
  HostProbe probe_;
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<SunwayEnergyModel> sunway_;  // destroyed before sim_
};

// ---------------------------------------------------------------------
// Output

void printSamples(const char* key, const Samples& samples, bool& first) {
  std::printf("%s\"%s\":{", first ? "" : ",", key);
  first = false;
  bool firstMetric = true;
  for (const auto& [name, values] : samples) {
    std::printf("%s\"%s\":[%.17g,%.17g,%.17g,%zu]", firstMetric ? "" : ",",
                name.c_str(), quantile(values, 0.5), quantile(values, 0.25),
                quantile(values, 0.75), values.size());
    firstMetric = false;
  }
  std::printf("}");
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --deck <file> [--workdir DIR] [--seed N]\n"
               "          [--seconds S] [--trace FILE] [--quick]\n",
               argv0);
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--deck") opt.deck = value();
    else if (arg == "--workdir") opt.workdir = value();
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--seconds") opt.seconds = std::stod(value());
    else if (arg == "--trace") opt.tracePath = value();
    else if (arg == "--quick") opt.quick = true;
    else usage(argv[0]);
  }
  if (opt.deck.empty()) usage(argv[0]);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);
  threadIndex();  // the main thread is track 0
  try {
    const InputDeck deck = InputDeck::parseFile(opt.deck);
    require(deck.parallelMode() || deck.maxSteps() != ~0ULL,
            "serial benchmark decks must set max_steps (the rep length)");
    fs::create_directories(opt.workdir);
    Workload workload(opt, deck);
    Checks checks;

    // Every run of one trajectory must end on the same state.
    std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> endings;
    const auto checkRepeat = [&](const RepResult& rep) {
      const std::pair ending{rep.hash, rep.events};
      const auto [it, inserted] = endings.emplace(rep.seed, ending);
      if (!inserted)
        checks.expect(it->second == ending,
                      "a rerun of trajectory seed " +
                          std::to_string(rep.seed) +
                          " ends with its first run's hash and event count");
    };

    const std::vector<double> setupS = workload.setup();
    checkRepeat(workload.runRep(opt.lengthScale(), false,
                                trajectorySeed(opt.seed, 0), checks));

    std::vector<RepResult> reps;
    Stopwatch timedPhase;
    bool replayed = false;
    Samples e2e, layer;  // e2e from untraced reps, layer from traced ones
    std::vector<double> tracedRates, probeUs;
    const auto append = [](Samples& into, const Samples& from) {
      for (const auto& [k, v] : from) into[k].insert(into[k].end(), v.begin(), v.end());
    };
    while (static_cast<int>(reps.size()) < opt.minReps() ||
           timedPhase.seconds() < opt.seconds) {
      // A traced rep runs the trajectory of the untraced rep before it.
      const bool traced = opt.traced() && reps.size() % 2 == 1;
      const std::size_t trajectory =
          opt.traced() ? reps.size() / 2 : reps.size();
      RepResult rep = workload.runRep(opt.lengthScale(), traced,
                                      trajectorySeed(opt.seed, trajectory),
                                      checks);
      checkRepeat(rep);
      probeUs.push_back(rep.probeUs);
      if (traced) {
        if (!replayed) workload.replayGhostExchange(*rep.finalState, rep.layer);
        replayed = true;
        tracedRates.push_back(rep.e2e.at("events_per_s").front());
        append(layer, rep.layer);
      } else {
        append(e2e, rep.e2e);
      }
      reps.push_back(std::move(rep));
    }
    e2e["host.probe_us"] = probeUs;

    std::uint64_t iterations = 0, rollbacks = 0;
    for (const RepResult& rep : reps) {
      iterations += rep.iterations;
      rollbacks += rep.rollbacks;
    }
    workload.checkNnpEnergies(*reps.back().finalState, checks);

    e2e["setup_s"] = setupS;
    e2e["peak_rss_mb"] = {peakRssMb()};
    if (SpanLog* log = workload.log()) {
      const double untraced = quantile(e2e["events_per_s"], 0.5);
      const double traced = quantile(tracedRates, 0.5);
      layer["trace.overhead_frac"] = {ratio(untraced - traced, untraced)};
      layer["lattice.bytes_per_site"] = {workload.bytesPerSite()};
      layer["host.probe_us"] = probeUs;
      const double ghostMs = quantile(layer["ghost.exchange_ms.p50"], 0.5);
      const double cycleMs = quantile(layer["engine.iter_us.p50"], 0.5) / 1e3;
      layer["ghost.cycle_share"] = {ratio(ghostMs, cycleMs)};
      log->writeChromeTrace(opt.tracePath);
      checks.expect(log->dropped() == 0, "span log kept every span");
    }

    std::printf("{\"workload\":\"%s\",\"parallel\":%s,\"seed\":%llu,"
                "\"reps\":%zu,\"hash\":\"%08x\",\"events\":%llu,"
                "\"iterations\":%llu,\"rollbacks\":%llu,\"checks\":%llu,"
                "\"failures\":%zu,",
                fs::path(opt.deck).stem().string().c_str(),
                deck.parallelMode() ? "true" : "false",
                static_cast<unsigned long long>(opt.seed), reps.size(),
                reps[0].hash, static_cast<unsigned long long>(reps[0].events),
                static_cast<unsigned long long>(iterations),
                static_cast<unsigned long long>(rollbacks),
                static_cast<unsigned long long>(checks.attempted),
                checks.failures.size());
    bool first = true;
    printSamples("e2e", e2e, first);
    printSamples("layer", layer, first);
    std::printf("}\n");
    return checks.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
