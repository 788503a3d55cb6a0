// train: Algorithm 1 with the data-parallel engine at two workers and
// periodic checkpoints. Each round trains a freshly initialised cycle
// model through a schedule that crosses the warm-up boundary, so both the
// L_f + L_b steps and the joint (sampled-title) steps run. One operation
// is one step.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/flight_recorder.h"
#include "rewrite/trainer.h"
#include "src/checks.h"
#include "src/common.h"

namespace cyqr::perfbench {

namespace {

constexpr int64_t kRoundSteps = 96;
constexpr int64_t kWarmupSteps = 84;
constexpr int64_t kCheckpointEvery = 24;
constexpr int64_t kPrefixSteps = kWarmupSteps + 2;  // Two joint steps.
constexpr int64_t kWorkers = 2;
constexpr uint64_t kInitSeed = 1234;
constexpr size_t kQualityQueries = 16;
// While a round trains, a thread of the benchmark's own runs a reference
// slice this often and sleeps in between (about 2% of one vCPU): the
// trainer offers no seam between its steps to run them on.
constexpr auto kProbeEvery = std::chrono::milliseconds(20);

// The training recipe is fixed (initialisation and batch stream), so every
// round, and every run whatever its seed, trains the same model bit for bit.
CycleTrainerOptions RoundOptions(const std::string& dir, int64_t steps,
                                 int64_t workers) {
  CycleTrainerOptions options;
  options.max_steps = steps;
  options.warmup_steps = kWarmupSteps;
  options.joint = true;
  options.batch_size = 8;
  options.eval_every = 0;
  options.workers = workers;
  if (!dir.empty()) {
    options.checkpoint_every = kCheckpointEvery;
    options.checkpoint_dir = dir;
    options.checkpoint_keep = 2;
  }
  return options;
}

// One training job: a fresh model (fixed initialisation) and its trainer.
struct Job {
  Job(const Env& env, const CycleTrainerOptions& options)
      : init_rng(kInitSeed),
        model(BenchCycleConfig(env.vocab.size()), init_rng),
        trainer(&model, env.train_pairs, options) {}

  Rng init_rng;
  CycleModel model;
  CycleTrainer trainer;
};

// Runs reference slices on a thread of its own, from construction until
// Stop().
class BackgroundProbe {
 public:
  BackgroundProbe() : thread_([this] { Loop(); }) {}
  ~BackgroundProbe() { (void)Stop(); }

  /// Stops and joins the thread; returns the slices it ran.
  SpeedProbe Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return probe_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kProbeEvery, [this] { return stop_; })) {
      lock.unlock();
      (void)probe_.Run();
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  SpeedProbe probe_;  // Written by the thread only, read after join.
  std::thread thread_;
};

// The steps the trainer journals after flight-recorder time
// `after_micros` (advanced past them). A step's busy time is its time as
// "train.step_end" records it (arg0 = step, arg1 = micros) less the time
// the same thread, the coordinator, waited in that step at the
// collective's barriers ("collective.barrier_wait", same args): the
// plan barrier and the compute barrier. The wait is the other rank's
// compute plus the handoff, and on a shared host the handoff stalls for
// milliseconds whenever the hypervisor has descheduled the other vCPU.
struct JournalSteps {
  std::vector<double> busy_ms;
  int64_t barrier_waits = 0;  // Subtracted; two per step.
};

JournalSteps ReadJournalSteps(int64_t* after_micros) {
  JournalSteps out;
  std::map<std::pair<int32_t, int64_t>, std::pair<int64_t, int64_t>> waits;
  int64_t last = *after_micros;
  for (const FlightEvent& e : FlightRecorder::Global().Snapshot()) {
    if (e.t_micros <= *after_micros) continue;
    last = std::max(last, e.t_micros);
    const std::string name = e.name;
    if (name == "collective.barrier_wait") {
      auto& [count, micros] = waits[{e.thread_index, e.arg0}];
      ++count;
      micros += e.arg1;
    } else if (name == "train.step_end") {
      const auto [count, micros] = waits[{e.thread_index, e.arg0}];
      out.barrier_waits += count;
      out.busy_ms.push_back(static_cast<double>(e.arg1 - micros) / 1e3);
    }
  }
  *after_micros = last;
  return out;
}

struct PhaseResult {
  std::vector<double> step_ms;       // Busy time (see ReadJournalSteps).
  std::vector<double> round_cpu_ms;  // Process CPU time of each round.
  std::vector<double> round_scales;  // SpeedProbe::Scale around each round.
  double seconds = 0;  // The whole phase.
  int64_t steps = 0;
  double collective_wait_ms = 0;
  std::unique_ptr<Job> last;  // The last round's job (checked afterwards).
  std::vector<std::vector<std::vector<float>>> round_params;
};

PhaseResult RunPhase(const Env& env, const RunOptions& options,
                     double seconds, SpanRecorder* recorder,
                     Report* report) {
  PhaseResult phase;
  const std::string dir = options.work_dir + "/checkpoints";
  int64_t journal_mark = 0;
  (void)ReadJournalSteps(&journal_mark);  // Skip set-up's events.
  ThreadSpans& mine = PendingSpans();
  const Clock::time_point start = Clock::now();
  while (phase.round_cpu_ms.empty() || MillisSince(start) < seconds * 1e3) {
    std::filesystem::remove_all(dir);
    phase.last.reset();
    phase.last = std::make_unique<Job>(
        env, RoundOptions(dir, kRoundSteps, kWorkers));
    if (recorder != nullptr) mine.request = recorder->NextId();
    const double round_cpu_start = ProcessCpuMillis();
    auto background = std::make_unique<BackgroundProbe>();
    Status status;
    {
      ScopedSpan span(recorder, "rewrite.train_round");
      status = phase.last->trainer.Train({});
    }
    const SpeedProbe probe = background->Stop();
    phase.round_cpu_ms.push_back(ProcessCpuMillis() - round_cpu_start -
                                 probe.slice_ms());
    phase.round_scales.push_back(probe.Scale());
    if (recorder != nullptr) recorder->Commit(&mine.done);
    const CycleTrainer& trainer = phase.last->trainer;
    report->Check("rewrite.train_ok", status.ok(), status.ToString());
    report->Check("rewrite.no_anomalies",
                  trainer.skipped_batches() == 0 && trainer.rollbacks() == 0,
                  std::to_string(trainer.skipped_batches()) +
                      " skipped batches, " +
                      std::to_string(trainer.rollbacks()) + " rollbacks");
    const JournalSteps steps = ReadJournalSteps(&journal_mark);
    report->Check("rewrite.journal_steps",
                  static_cast<int64_t>(steps.busy_ms.size()) == kRoundSteps &&
                      steps.barrier_waits == 2 * kRoundSteps,
                  "journal holds " + std::to_string(steps.busy_ms.size()) +
                      " step times and " +
                      std::to_string(steps.barrier_waits) +
                      " coordinator barrier waits for a " +
                      std::to_string(kRoundSteps) + "-step round");
    phase.step_ms.insert(phase.step_ms.end(), steps.busy_ms.begin(),
                         steps.busy_ms.end());
    phase.steps += trainer.step();
    phase.collective_wait_ms += trainer.collective_wait_millis();
    phase.round_params.push_back(
        ParameterValues(phase.last->model.Parameters()));
  }
  phase.seconds = MillisSince(start) / 1e3;
  return phase;
}

// The legacy single-thread loop, one StepOnce at a time, with a checkpoint
// every kCheckpointEvery steps: the per-phase step and checkpoint costs the
// data-parallel Train() call does not expose.
void ReplaySteps(const Env& env, const RunOptions& options,
                 SpanRecorder* recorder) {
  const std::string dir = options.work_dir + "/replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Job job(env, RoundOptions(dir, kRoundSteps, /*workers=*/0));
  job.model.SetTraining(true);
  ThreadSpans& mine = PendingSpans();
  for (int64_t step = 1; step <= kRoundSteps; ++step) {
    mine.request = recorder->NextId();
    {
      ScopedSpan span(recorder, step <= kWarmupSteps ? "rewrite.warmup_step"
                                                     : "rewrite.joint_step");
      (void)job.trainer.StepOnce();
    }
    if (step % kCheckpointEvery == 0) {
      ScopedSpan span(recorder, "rewrite.checkpoint");
      (void)job.trainer.SaveCheckpoint();
    }
    recorder->Commit(&mine.done);
  }
}

std::vector<std::vector<float>> TrainPrefix(const Env& env,
                                            int64_t workers) {
  Job job(env, RoundOptions("", kPrefixSteps, workers));
  (void)job.trainer.Train({});
  return ParameterValues(job.model.Parameters());
}

void CheckTraining(const Env& env, const RunOptions& options,
                   const PhaseResult& phase, Report* report) {
  const std::vector<std::vector<float>> final_params =
      ParameterValues(phase.last->model.Parameters());
  bool rounds_identical = true;
  for (const auto& params : phase.round_params) {
    rounds_identical =
        rounds_identical && CheckParamsIdentical(params, final_params).empty();
  }
  report->Check("rewrite.rounds_identical", rounds_identical,
                "rounds with the same schedule ended at different parameters");

  // The last checkpoint resumes to the trained parameters, bit for bit.
  Job resumed(env, RoundOptions(options.work_dir + "/checkpoints",
                                kRoundSteps, kWorkers));
  const Status status = resumed.trainer.ResumeLatest();
  const std::string resume =
      status.ok() ? CheckParamsIdentical(
                        ParameterValues(resumed.model.Parameters()),
                        final_params)
                  : status.ToString();
  report->Check("rewrite.resume_identical", resume.empty(), resume);

  // Over a prefix that crosses into the joint phase, two workers reach the
  // parameters one worker does.
  const std::string dp = CheckParamsIdentical(
      TrainPrefix(env, 1), TrainPrefix(env, 2));
  report->Check("core.dp_deterministic", dp.empty(), dp);

  std::vector<std::vector<float>> flipped = final_params;
  uint32_t bits = 0;
  std::memcpy(&bits, &flipped[0][0], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&flipped[0][0], &bits, sizeof(bits));
  SelfTest("flipped_parameter_bit", CheckParamsIdentical(flipped, final_params),
           report);
}

}  // namespace

void RunTrain(const RunOptions& options, Report* report) {
  std::unique_ptr<Env> env = SetupRepeated(SetupSpec{}, options, report);

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  PhaseResult untraced = RunPhase(*env, options, untraced_s, nullptr, report);
  report->AddAttempted(untraced.steps);
  SpanRecorder recorder;
  PhaseResult traced;
  if (options.trace) {
    traced = RunPhase(*env, options, options.seconds / 2, &recorder, report);
    report->AddAttempted(traced.steps);
  }

  CheckTraining(*env, options, untraced, report);
  const double trained_loss =
      CycleEvalLoss(untraced.last->model, env->eval_pairs);
  Job untrained(*env, RoundOptions("", kRoundSteps, kWorkers));
  const double untrained_loss =
      CycleEvalLoss(untrained.model, env->eval_pairs);
  report->Check("rewrite.loss_decreased", trained_loss < untrained_loss,
                "held-out loss " + std::to_string(trained_loss) +
                    " is not below the untrained " +
                    std::to_string(untrained_loss));
  for (const char* kind :
       {"rewrite.train_ok", "rewrite.no_anomalies", "rewrite.rounds_identical",
        "rewrite.resume_identical", "core.dp_deterministic",
        "rewrite.loss_decreased", "selftest.flipped_parameter_bit"}) {
    report->Expect(kind);
  }

  if (!options.trace) {
    // Rewrite quality of the trained model on the most popular queries.
    untraced.last->model.SetTraining(false);
    const CycleRewriter rewriter(&untraced.last->model, &env->vocab);
    RewriteOptions rewrite_options;
    rewrite_options.k = kRewrites;
    std::vector<int64_t> queries(
        env->head.begin(),
        env->head.begin() + std::min(kQualityQueries, env->head.size()));
    std::vector<std::vector<std::vector<std::string>>> rewrites;
    std::vector<Page> pages;
    for (int64_t q : queries) {
      const std::vector<std::string>& tokens = env->log.queries()[q].tokens;
      std::vector<std::vector<std::string>> r;
      for (const RewriteCandidate& c :
           rewriter.Rewrite(tokens, rewrite_options).rewrites) {
        r.push_back(c.tokens);
      }
      pages.push_back(CheckedPage(*env, tokens, r, report));
      rewrites.push_back(std::move(r));
    }
    const Quality quality = WeightedQuality(*env, queries, rewrites, pages);
    const Figures figures =
        FiguresOfRounds("train", untraced.round_cpu_ms, untraced.round_scales,
                        untraced.step_ms, kRoundSteps, untraced.seconds);
    report->Set("cpu_per_op", figures.cpu_per_op, "ref_ms");
    report->Set("op_p50", figures.op_p50, "ref_ms");
    report->Set("op_p99", figures.op_p99, "ref_ms");
    report->Set("intent_hit_at_10", quality.intent_hit_at_10, "ratio");
    report->Set("rewrite_relevance", quality.rewrite_relevance, "score");
    report->Set("eval_loss", trained_loss, "nats");
    return;
  }
  ReplaySteps(*env, options, &recorder);
  const auto durations = recorder.Durations();
  report->Set("rewrite.warmup_step_ms",
              MedianOf(durations, "rewrite.warmup_step", 1e-3), "ms");
  report->Set("rewrite.joint_step_ms",
              MedianOf(durations, "rewrite.joint_step", 1e-3), "ms");
  report->Set("rewrite.checkpoint_ms",
              MedianOf(durations, "rewrite.checkpoint", 1e-3), "ms");
  report->Set("core.collective_wait_ms_per_step",
              traced.steps > 0 ? traced.collective_wait_ms / traced.steps : 0.0,
              "ms");
  ReportTraceOverhead(
      FiguresOfRounds("train untraced", untraced.round_cpu_ms,
                      untraced.round_scales, untraced.step_ms, kRoundSteps,
                      untraced.seconds)
          .op_p50,
      FiguresOfRounds("train traced", traced.round_cpu_ms, traced.round_scales,
                      traced.step_ms, kRoundSteps, traced.seconds)
          .op_p50,
      report);
  WriteSpans(recorder, options);
}

}  // namespace cyqr::perfbench
