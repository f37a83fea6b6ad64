// End-to-end training benchmark driver.
//
// Trains one named workload (see WORKLOADS.md) through the public trainer
// APIs and writes every raw measurement as one JSON object; run.py turns it
// into the benchmark's metrics. Two modes:
//
//   e2e    tracing off: repeated set-up, warm-up, then timed Train(dataset, 1)
//          calls until --seconds have passed (and at least kMinTimedIters).
//   trace  one trainer alternates windows of kTraceWindow steps with the
//          program's tracer on and off, exporting each traced window; a
//          second, untraced trainer replays the same iterations (losses must
//          agree bit for bit). Also times Layer::Forward, TrainSingleNode and
//          the planner on the workload's request.
//
// The bench records its own spans (name, start, end, parent, iteration)
// around every public call it makes; run.py folds them with the exported
// program trace into per-layer self times.
//
//   e2e_train --workload fc_ps --seed 1 --seconds 10 --mode e2e
//             --out DIR --plans e2ebench/plans
//   e2e_train --emit-plans e2ebench/plans   # regenerate the pinned plans
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/dataset.h"
#include "src/nn/single_trainer.h"
#include "src/planner/comm_planner.h"
#include "src/planner/plan_cache.h"
#include "src/poseidon/trainer.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace e2e {
namespace {

constexpr int kWarmupIters = 10;
constexpr int kMinTimedIters = 100;   // p90 keeps >= 10 samples beyond it
constexpr int kMinTracedIters = 30;   // traced steps (as many untraced)
constexpr int kSetupRepeats = 7;
// loss_final is the mean training loss over iterations [0, kLossIter): a
// fixed number of training samples, warm-up included.
constexpr int kLossIter = 100;
static_assert(kWarmupIters + kMinTimedIters >= kLossIter, "loss window must be trained");
constexpr int kTraceWindow = 10;      // iterations per tracer export + reset
constexpr int64_t kTraceRing = 1 << 13;  // events per thread ring
constexpr double kIterDeadlineS = 10.0;  // an iteration slower than this fails

// ------------------------------------------------------------------ clock --

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

// The bench's own spans, kept in memory and written out at the end.
struct BenchSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t iter = -1;
};

class SpanLog {
 public:
  void Begin(std::string name, int64_t iter = -1) {
    BenchSpan span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.iter = iter;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  // Returns the span's duration in seconds.
  double End() {
    BenchSpan& span = spans_[static_cast<size_t>(stack_.back())];
    stack_.pop_back();
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::vector<BenchSpan> spans_;
  std::vector<int> stack_;
};

// ----------------------------------------------------------------- output --

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + Num(values[i]);
  return out + "]";
}

// Flat JSON object writer: keys in insertion order, values pre-rendered.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& rendered) {
    body_ += (body_.empty() ? "" : ",\n ") + Quote(key) + ": " + rendered;
  }
  void Add(const std::string& key, double v) { Add(key, Num(v)); }
  void Add(const std::string& key, const std::vector<double>& v) { Add(key, NumList(v)); }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- workloads --

enum class Model { kCifarQuick, kWideMlp };

// Every workload runs one worker per core of a 4-core machine and 2 servers
// x 2 KV shards.
constexpr int kWorkers = 4;
constexpr int kServers = 2;
constexpr int kShards = 2;

struct Workload {
  std::string name;
  Model model = Model::kWideMlp;
  int batch = 4;
  FcSyncPolicy policy = FcSyncPolicy::kHybrid;
  float noise = 1.0f;
  SgdConfig sgd;
};

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "cnn_hybrid";
    w.model = Model::kCifarQuick;
    w.batch = 8;
    w.policy = FcSyncPolicy::kHybrid;
    w.noise = 1.75f;
    w.sgd = {.learning_rate = 0.01f, .momentum = 0.0f, .weight_decay = 1e-4f};
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "fc_ps";
    w.model = Model::kWideMlp;
    w.batch = 4;
    w.policy = FcSyncPolicy::kDense;
    w.noise = 4.0f;
    w.sgd = {.learning_rate = 0.005f, .momentum = 0.0f, .weight_decay = 1e-4f};
    all.push_back(w);
  }
  {
    Workload w = all.back();
    w.name = "fc_sfb";
    w.policy = FcSyncPolicy::kHybrid;
    all.push_back(w);
  }
  return all;
}

// Seeds derived from --seed: distinct streams for the data and the network.
uint64_t DataSeed(uint64_t seed) { return 1000003ULL * seed + 17; }
uint64_t NetSeed(uint64_t seed) { return 7919ULL * seed + 20170711ULL; }

DatasetConfig DataConfig(const Workload& w, uint64_t seed) {
  DatasetConfig data;
  data.num_classes = 10;
  data.channels = w.model == Model::kCifarQuick ? 3 : 1;
  data.height = 16;
  data.width = 16;
  data.train_size = 4096;
  data.test_size = 16;  // unused: the bench evaluates no test set
  data.noise_stddev = w.noise;
  data.seed = DataSeed(seed);
  return data;
}

NetworkFactory Factory(const Workload& w, uint64_t seed) {
  const uint64_t net_seed = NetSeed(seed);
  switch (w.model) {
    case Model::kCifarQuick:
      return [net_seed] {
        Rng rng(net_seed);
        return BuildCifarQuick(/*channels=*/3, /*image_hw=*/16, /*classes=*/10, rng);
      };
    case Model::kWideMlp:
      return [net_seed] {
        Rng rng(net_seed);
        return BuildMlp(/*input_dim=*/256, /*hidden_dim=*/1024, /*hidden_layers=*/3,
                        /*classes=*/10, rng);
      };
  }
  return nullptr;
}

TrainerOptions Options(const Workload& w) {
  TrainerOptions options;
  options.num_workers = kWorkers;
  options.num_servers = kServers;
  options.shards_per_server = kShards;
  options.batch_per_worker = w.batch;
  options.sgd = w.sgd;
  options.fc_policy = w.policy;
  options.model_name = w.name;
  return options;
}

// The paper-mode request the trainer builds for this workload (mirrors
// PoseidonTrainer's own paper-mode request), for timing the planner.
PlanRequest PaperRequest(const Workload& w, Network& net) {
  const TrainerOptions options = Options(w);
  ClusterInfo cluster;
  cluster.num_workers = options.num_workers;
  cluster.num_servers = options.num_servers;
  cluster.shards_per_server = options.shards_per_server;
  cluster.batch_per_worker = options.batch_per_worker;
  cluster.kv_pair_bytes = options.kv_pair_bytes;
  const Coordinator coordinator(net, cluster);
  PlanRequest req;
  req.model_name = options.model_name;
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    LayerSpec spec;
    spec.name = info.name;
    spec.type = info.type;
    spec.params = info.total_floats;
    spec.fc_m = info.fc_m;
    spec.fc_n = info.fc_n;
    req.layers.push_back(std::move(spec));
  }
  req.num_workers = options.num_workers;
  req.num_servers = options.num_servers;
  req.batch_per_worker = options.batch_per_worker;
  req.kv_pair_bytes = options.kv_pair_bytes;
  req.staleness = options.staleness;
  req.max_staleness = options.staleness;
  req.topk_density = options.topk_density;
  req.compression_min_floats = options.compression_min_floats;
  req.batch_max_messages = options.batch_options.max_batch_messages;
  req.ps_shards_pinned = options.shards_per_server;
  req.paper_eval_shards = options.shards_per_server;
  req.batch_egress = options.batch_egress;
  req.policy = PlanPolicyFromFcPolicy(options.fc_policy);
  req.codec = PlanCodecPolicyFromCompression(options.ps_compression);
  req.joint = false;
  return req;
}

std::string PlanPath(const std::string& dir, const Workload& w) {
  return dir + "/" + w.name + ".json";
}

std::string HashHex(uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// ------------------------------------------------------------------ checks --

// Named pass/fail output checks, reported in the raw JSON.
class Checks {
 public:
  void Add(const std::string& name, bool ok) {
    json_ += (json_.empty() ? "" : ", ") + Quote(name) + ": " + (ok ? "true" : "false");
  }
  std::string Json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

bool ReplicasBitwiseEqual(PoseidonTrainer& trainer) {
  auto reference = trainer.worker_net(0).LayerParams();
  for (int w = 1; w < kWorkers; ++w) {
    auto params = trainer.worker_net(w).LayerParams();
    if (params.size() != reference.size()) return false;
    for (size_t l = 0; l < params.size(); ++l) {
      for (size_t p = 0; p < params[l].size(); ++p) {
        const Tensor& a = *reference[l][p].value;
        const Tensor& b = *params[l][p].value;
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.size())) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

// The plan in force is the pinned one, and the pinned file is self-consistent.
bool PlanIsPinned(const PoseidonTrainer& trainer, const CommPlan& pinned) {
  return pinned.ComputeHash() == pinned.hash && trainer.plan()->hash == pinned.hash;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// --------------------------------------------------------------- run state --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "e2e";
  std::string out_dir = ".";
  std::string plans_dir = "e2ebench/plans";
  std::string emit_plans;
};

// What one training run observed.
struct TrainLog {
  std::vector<double> losses;   // mean loss per iteration, from iteration 0
  std::vector<double> iter_ms;  // timed steps only
  int failed = 0;               // timed iterations that failed
  int64_t tx_bytes = 0;         // bus deltas over the timed iterations
  int64_t tx_msgs = 0;
  int64_t tx_entries = 0;
  StallBreakdown stall;         // delta over the timed iterations
};

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t total = 0;
  for (int64_t x : v) total += x;
  return total;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Whether a timed loop that has run `done` steps since `start_ns` goes on:
// until `seconds` have passed and at least `min_steps` ran.
bool KeepGoing(int done, int64_t start_ns, double seconds, int min_steps) {
  return done < min_steps || static_cast<double>(NowNs() - start_ns) * 1e-9 < seconds;
}

// Calls Train(dataset, 1) until KeepGoing says stop, timing each call.
// `after_step` runs after every call, outside the step's span.
void TimedTrain(PoseidonTrainer& trainer, const SyntheticDataset& dataset, double seconds,
                int min_steps, SpanLog& spans, TrainLog* log,
                const std::function<void(int)>& after_step = nullptr) {
  MessageBus& bus = trainer.bus();
  const int64_t bytes0 = Sum(bus.TxBytes());
  const int64_t msgs0 = Sum(bus.TxMessages());
  const int64_t entries0 = Sum(bus.TxEntries());
  const StallBreakdown stall0 = trainer.stall_breakdown();
  const int64_t start = NowNs();
  for (int i = 0; KeepGoing(i, start, seconds, min_steps); ++i) {
    spans.Begin("bench.train_step", trainer.next_iter());
    const std::vector<IterationStats> stats = trainer.Train(dataset, 1);
    const double wall_s = spans.End();
    log->iter_ms.push_back(wall_s * 1e3);
    log->losses.push_back(stats.at(0).mean_loss);
    if (!std::isfinite(stats[0].mean_loss) || wall_s > kIterDeadlineS) ++log->failed;
    if (after_step) after_step(i);
  }
  log->tx_bytes = Sum(bus.TxBytes()) - bytes0;
  log->tx_msgs = Sum(bus.TxMessages()) - msgs0;
  log->tx_entries = Sum(bus.TxEntries()) - entries0;
  const StallBreakdown stall1 = trainer.stall_breakdown();
  log->stall.compute_s = stall1.compute_s - stall0.compute_s;
  log->stall.comm_wait_s = stall1.comm_wait_s - stall0.comm_wait_s;
}

// Untimed iterations (the warm-up), recording their losses.
void Untimed(PoseidonTrainer& trainer, const SyntheticDataset& dataset, int iterations,
             const char* span, SpanLog& spans, TrainLog* log) {
  spans.Begin(span);
  for (const IterationStats& s : trainer.Train(dataset, iterations)) {
    log->losses.push_back(s.mean_loss);
  }
  spans.End();
}

std::string SpansJson(const std::vector<BenchSpan>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    out += (i ? ",\n " : "") + std::string("{\"name\": ") + Quote(s.name) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"iter\": " + std::to_string(s.iter) + "}";
  }
  return out + "]";
}

// Constructs a trainer on the pinned plan, timed as one set-up.
std::unique_ptr<PoseidonTrainer> MakeTrainer(const Workload& w, uint64_t seed,
                                             std::shared_ptr<const CommPlan> plan,
                                             SpanLog& spans, double* setup_s = nullptr) {
  TrainerOptions options = Options(w);
  options.plan_mode = TrainerPlanMode::kFixed;
  options.fixed_plan = std::move(plan);
  spans.Begin("bench.setup");
  auto trainer = std::make_unique<PoseidonTrainer>(Factory(w, seed), options);
  const double s = spans.End();
  if (setup_s != nullptr) *setup_s = s;
  return trainer;
}

// Exports the program's tracer in windows: Reset() frees the rings of exited
// threads (Train() spawns fresh workers per call), so memory stays bounded.
class TraceWindows {
 public:
  explicit TraceWindows(std::string out_dir) : out_dir_(std::move(out_dir)) {}

  void Start() {
    Tracer::Enable(kTraceRing);
    Tracer::Reset();
    // Tracer timestamps count from its (re)set epoch; record where that
    // epoch lies on the bench clock so run.py can merge the windows.
    offsets_ns_.push_back(static_cast<double>(NowNs() - Tracer::NowNs()));
  }
  void Finish() {
    // Let syncer and shard threads close the window's last spans.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Tracer::Disable();
    dropped_ += Tracer::dropped();
    written_ok_ &= WriteFile(out_dir_ + "/trace_" + std::to_string(count_) + ".json",
                             Tracer::ExportChromeJson());
    ++count_;
    Tracer::Reset();
  }
  int64_t dropped() const { return dropped_; }
  bool written_ok() const { return written_ok_; }

  void AddTo(JsonObject* out) const {
    out->Add("trace_windows", count_);
    out->Add("trace_offsets_ns", offsets_ns_);
    out->Add("trace_dropped", static_cast<double>(dropped_));
  }

 private:
  std::string out_dir_;
  std::vector<double> offsets_ns_;
  int64_t dropped_ = 0;
  int count_ = 0;
  bool written_ok_ = true;
};

// Measurements the traced run makes outside training: Layer::Forward one
// layer at a time on one replica and one thread, the single-worker
// TrainSingleNode baseline at the total batch, and the planner on the
// workload's request (a cold PlanComm search and a warm PlanCache hit).
void MeasureOffline(const Workload& w, const Args& args, const SyntheticDataset& dataset,
                    SpanLog& spans, JsonObject* out) {
  {
    auto net = Factory(w, args.seed)();
    const Batch batch = dataset.TrainBatch(0, w.batch);
    std::string names = "[";
    std::vector<std::vector<double>> samples(static_cast<size_t>(net->num_layers()));
    for (int rep = 0; rep < 15; ++rep) {
      Tensor in = batch.images;
      for (int l = 0; l < net->num_layers(); ++l) {
        Tensor result;
        spans.Begin("bench.layer_forward", l);
        net->layer(l).Forward(in, &result);
        samples[static_cast<size_t>(l)].push_back(spans.End() * 1e3);
        in = std::move(result);
      }
    }
    std::vector<double> fwd_ms;
    for (int l = 0; l < net->num_layers(); ++l) {
      names += (l ? "," : "") + Quote(net->layer(l).name());
      fwd_ms.push_back(Median(samples[static_cast<size_t>(l)]));
    }
    out->Add("layer_names", names + "]");
    out->Add("layer_fwd_ms", fwd_ms);
  }
  {
    auto net = Factory(w, args.seed)();
    SgdOptimizer optimizer(Options(w).sgd);
    const int total_batch = kWorkers * w.batch;
    TrainSingleNode(*net, dataset, optimizer, 3, total_batch);  // warm-up
    int iters = 0;
    const int64_t start = NowNs();
    spans.Begin("bench.train_single_node");
    while (KeepGoing(iters, start, args.seconds * 0.1, 20)) {
      TrainSingleNode(*net, dataset, optimizer, 1, total_batch, 3 + iters);
      ++iters;
    }
    out->Add("single_samples_per_s", iters * total_batch / spans.End());
  }
  {
    auto net = Factory(w, args.seed)();
    const PlanRequest req = PaperRequest(w, *net);
    std::vector<double> cold;
    for (int rep = 0; rep < 21; ++rep) {
      spans.Begin("bench.plan_comm");
      const CommPlan searched = PlanComm(req);
      cold.push_back(spans.End() * 1e6);
      CHECK_NE(searched.hash, 0u);
    }
    PlanCache cache;
    cache.GetOrPlan(req);
    std::vector<double> warm;
    for (int rep = 0; rep < 201; ++rep) {
      spans.Begin("bench.plan_cache_hit");
      cache.GetOrPlan(req);
      warm.push_back(spans.End() * 1e6);
    }
    out->Add("plan_us_cold", Median(cold));
    out->Add("plan_us_warm", Median(warm));
  }
}

void AddBusCounts(const TrainLog& log, double iterations, JsonObject* out) {
  out->Add("wire_bytes_per_iter", static_cast<double>(log.tx_bytes) / iterations);
  out->Add("msgs_per_iter", static_cast<double>(log.tx_msgs) / iterations);
  out->Add("entries_per_iter", static_cast<double>(log.tx_entries) / iterations);
}

// ----------------------------------------------------------- in-process ----

void RunInProcess(const Workload& w, const Args& args, std::shared_ptr<const CommPlan> plan,
                  JsonObject* out, Checks* checks) {
  const SyntheticDataset dataset(DataConfig(w, args.seed));
  SpanLog spans;
  bool plan_ok = true;

  if (args.mode == "e2e") {
    std::vector<double> setup_s;
    std::unique_ptr<PoseidonTrainer> trainer;
    for (int r = 0; r < kSetupRepeats; ++r) {
      trainer.reset();
      setup_s.push_back(0.0);
      trainer = MakeTrainer(w, args.seed, plan, spans, &setup_s.back());
    }
    plan_ok = PlanIsPinned(*trainer, *plan);
    TrainLog log;
    Untimed(*trainer, dataset, kWarmupIters, "bench.warmup", spans, &log);
    TimedTrain(*trainer, dataset, args.seconds, kMinTimedIters, spans, &log);
    checks->Add("plan_hash_pinned", plan_ok);
    checks->Add("replicas_bitwise_equal", ReplicasBitwiseEqual(*trainer));
    checks->Add("losses_finite", AllFinite(log.losses));
    out->Add("setup_s", setup_s);
    out->Add("iter_ms", log.iter_ms);
    const auto first = log.losses.begin();  // warm-up + timed >= kLossIter
    out->Add("loss_final", std::accumulate(first, first + kLossIter, 0.0) / kLossIter);
    AddBusCounts(log, static_cast<double>(log.iter_ms.size()), out);
    out->Add("attempted", static_cast<double>(log.iter_ms.size()));
    out->Add("failed", log.failed);
    return;
  }

  // Trace mode. One trainer alternates traced and untraced windows of
  // kTraceWindow steps, so the tracing overhead compares steps taken under
  // the same machine conditions. A second trainer, never traced, then runs
  // the same iterations: the per-iteration losses must agree bit for bit.
  TrainLog log;
  TraceWindows windows(args.out_dir);
  bool replicas_ok = false;
  {
    spans.Begin("bench.traced_run");
    auto trainer = MakeTrainer(w, args.seed, plan, spans);
    plan_ok = PlanIsPinned(*trainer, *plan);
    Untimed(*trainer, dataset, kWarmupIters, "bench.warmup", spans, &log);
    bool tracing = true;
    spans.Begin("bench.window.traced");
    windows.Start();
    TimedTrain(*trainer, dataset, args.seconds * 0.4, 2 * kMinTracedIters, spans, &log,
               [&](int i) {
                 if ((i + 1) % kTraceWindow != 0) return;
                 spans.End();
                 if (tracing) windows.Finish();
                 tracing = !tracing;
                 if (tracing) windows.Start();
                 spans.Begin(tracing ? "bench.window.traced" : "bench.window.untraced");
               });
    spans.End();
    if (tracing) windows.Finish();
    replicas_ok = ReplicasBitwiseEqual(*trainer);
    spans.End();
  }
  TrainLog reference;
  {
    spans.Begin("bench.untraced_run");
    auto trainer = MakeTrainer(w, args.seed, plan, spans);
    plan_ok = plan_ok && PlanIsPinned(*trainer, *plan);
    Untimed(*trainer, dataset, static_cast<int>(log.losses.size()), "bench.train", spans,
            &reference);
    spans.End();
  }
  MeasureOffline(w, args, dataset, spans, out);

  checks->Add("plan_hash_pinned", plan_ok);
  checks->Add("replicas_bitwise_equal", replicas_ok);
  checks->Add("losses_finite", AllFinite(log.losses));
  checks->Add("traced_losses_bitwise_equal", BitwiseEqual(log.losses, reference.losses));
  checks->Add("no_dropped_trace_events", windows.dropped() == 0 && windows.written_ok());
  out->Add("attempted", static_cast<double>(log.iter_ms.size()));
  out->Add("failed", log.failed);
  AddBusCounts(log, static_cast<double>(log.iter_ms.size()), out);
  out->Add("stall_compute_s", log.stall.compute_s);
  out->Add("stall_comm_wait_s", log.stall.comm_wait_s);
  windows.AddTo(out);
  out->Add("bench_spans", SpansJson(spans.spans()));
}

// ------------------------------------------------------------------- main --

int EmitPlans(const std::string& dir) {
  for (const Workload& w : AllWorkloads()) {
    TrainerOptions options = Options(w);
    options.plan_mode = TrainerPlanMode::kPaper;
    PoseidonTrainer trainer(Factory(w, /*seed=*/1), options);
    const Status saved = trainer.plan()->SaveToFile(PlanPath(dir, w));
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s: plan %s\n", w.name.c_str(), HashHex(trainer.plan()->hash).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--mode") args.mode = value;
    else if (flag == "--out") args.out_dir = value;
    else if (flag == "--plans") args.plans_dir = value;
    else if (flag == "--emit-plans") args.emit_plans = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  SetMinLogSeverity(LogSeverity::kWarning);
  if (!args.emit_plans.empty()) return EmitPlans(args.emit_plans);
  if (args.mode != "e2e" && args.mode != "trace") {
    std::fprintf(stderr, "--mode must be e2e or trace\n");
    return 2;
  }
  const std::vector<Workload> all = AllWorkloads();
  const Workload* workload = nullptr;
  for (const Workload& w : all) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  StatusOr<CommPlan> loaded = CommPlan::LoadFromFile(PlanPath(args.plans_dir, *workload));
  if (!loaded.ok()) {
    std::fprintf(stderr, "pinned plan: %s\n", loaded.status().ToString().c_str());
    return 2;
  }
  auto plan = std::make_shared<const CommPlan>(loaded.value());

  JsonObject out;
  Checks checks;
  out.Add("workload", Quote(workload->name));
  out.Add("seed", static_cast<double>(args.seed));
  out.Add("mode", Quote(args.mode));
  out.Add("plan_hash", Quote(HashHex(plan->hash)));
  out.Add("workers", kWorkers);
  out.Add("samples_per_iter", kWorkers * workload->batch);
  out.Add("predicted_wire_bytes", plan->predicted_wire_bytes);
  RunInProcess(*workload, args, plan, &out, &checks);
  out.Add("checks", checks.Json());
  out.Add("peak_rss_mb", PeakRssMb());
  if (!WriteFile(args.out_dir + "/raw.json", out.Str() + "\n")) {
    std::fprintf(stderr, "cannot write %s/raw.json\n", args.out_dir.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace poseidon

int main(int argc, char** argv) { return poseidon::e2e::Main(argc, argv); }
