// End-to-end benchmark of xpv::Service: seeded closed-loop clients drive one
// Service through its public API and report throughput, latency, set-up
// time and memory; with --trace 1 a second pass replays a prefix of the
// same request stream through each layer's public functions to split the
// time of a call across layers. See README.md for the workloads and
// metrics; run.py builds this program and is the entry point.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/service.h"
#include "corpus.h"
#include "eval/evaluator.h"
#include "eval/reference.h"
#include "histogram.h"
#include "replay.h"
#include "util/hash.h"
#include "workload.h"
#include "xml/xml_parser.h"

namespace xpv::e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  Workload workload = Workload::kHotRead;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans: beside the program, which
  /// lives in the build directory.
  std::string trace_out;
  /// Every in-run check compares a corrupted copy of the answer, so the
  /// run must report mismatches — the proof that the checks can fail.
  bool corrupt_check = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  std::string workload_name;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
      if (!ParseWorkload(workload_name, &o.workload)) {
        Die("unknown workload " + workload_name);
      }
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      if (!(o.seconds > 0.0)) Die("--seconds must be positive");
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--corrupt-check") {
      o.corrupt_check = true;
    } else {
      Die("unknown argument " + std::string(arg));
    }
  }
  if (workload_name.empty()) Die("--workload is required");
  o.trace_out = (std::filesystem::path(argv[0]).parent_path() /
                 ("trace-" + workload_name + "-" + std::to_string(o.seed) + ".csv"))
                    .string();
  return o;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`. Best effort: a refused call
/// only loses the rotation across CPUs, not a measurement.
void RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// How fast each CPU runs right now. On a shared host, interference from
/// outside the process slows single CPUs for seconds at a time: on a
/// shared 4-vCPU KVM guest (Intel Xeon, 2 MiB L2 per core), loading the
/// corpus then took 1.4x as long and a 1-thread hot_read round ran 1.75x
/// slower, while a dependent multiply chain did not slow at all. The probe runs one fixed
/// loop on every CPU at once, each copy pinned: vectors of assorted sizes
/// allocated, filled and freed, which tracked the load time best of the
/// loops tried (correlation 0.85; a 4 MiB pointer chase reached 0.5). It
/// never touches the Service, so rounds picked by its readings are picked
/// by the machine's speed, never by the cost of the code under test.
class SpeedProbe {
 public:
  explicit SpeedProbe(std::vector<int> cpus) : cpus_(std::move(cpus)) {}

  /// Loops per second on each CPU, in the order of `cpus`.
  std::vector<double> Measure() const {
    std::vector<double> speed(cpus_.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < cpus_.size(); ++i) {
      threads.emplace_back([this, i, &speed] {
        RunOn({cpus_[i]});
        const Clock::time_point t0 = Clock::now();
        std::vector<std::vector<uint32_t>> live;
        for (int k = 0; k < kLoops; ++k) {
          live.emplace_back(static_cast<size_t>(1 + (k * 37) % 200),
                            static_cast<uint32_t>(k));
          if (live.size() > 512) live.erase(live.begin(), live.begin() + 256);
        }
        speed[i] = kLoops / SecondsSince(t0);
        volatile size_t sink = live.size();  // Keeps the loop.
        (void)sink;                          // discard: written only to be kept.
      });
    }
    for (std::thread& t : threads) t.join();
    return speed;
  }

 private:
  static constexpr int kLoops = 20000;  // About 2 ms.
  std::vector<int> cpus_;
};

/// A Service loaded with the corpus, and how long loading took.
struct Bed {
  std::unique_ptr<Service> service;
  std::vector<DocumentId> ids;
  double setup_s = 0.0;
  double views_s = 0.0;
};

Bed Load(const Corpus& corpus) {
  Bed bed;
  const Clock::time_point t0 = Clock::now();
  bed.service = std::make_unique<Service>();
  for (const std::string& xml : corpus.doc_xml) {
    ServiceResult<DocumentId> id = bed.service->AddDocument(std::string_view(xml));
    if (!id.ok()) Die("AddDocument: " + id.error().message);
    bed.ids.push_back(id.value());
  }
  const Clock::time_point t1 = Clock::now();
  for (size_t d = 0; d < bed.ids.size(); ++d) {
    for (const ViewSpec& v : corpus.views[d]) {
      ServiceResult<ViewId> view =
          bed.service->AddView(bed.ids[d], v.name, std::string_view(v.xpath));
      if (!view.ok()) Die("AddView: " + view.error().message);
    }
  }
  bed.views_s = SecondsSince(t1);
  bed.setup_s = SecondsSince(t0);
  return bed;
}

/// Every pool query on every document, as one batch per document: the
/// memo then holds all 4,096 popular keys before timing starts.
std::vector<Request> WarmRequests(const Corpus& corpus, const Bed& bed) {
  std::vector<Request> out(kDocs);
  for (int d = 0; d < kDocs; ++d) {
    Request& r = out[static_cast<size_t>(d)];
    r.kind = OpKind::kBatch;
    r.workers = 4;
    for (int q = 0; q < kPoolSize; ++q) {
      r.item_doc.push_back(d);
      r.item_query.push_back(q);
      r.items.push_back({bed.ids[static_cast<size_t>(d)],
                         corpus.pool_query[static_cast<size_t>(q)]});
    }
  }
  return out;
}

/// The Service's reply to one request: its answers (one per read item,
/// none for an update) and the number of items that failed. Kept per
/// client, so a warm reply reuses its buffers.
struct Reply {
  std::vector<const CacheAnswer*> answers;  // Null for a failed item.
  ServiceResult<xpv::Answer> single = ServiceResult<xpv::Answer>::Error({});
  ServiceResult<BatchAnswers> batch = ServiceResult<BatchAnswers>::Error({});
  uint64_t failed = 0;
};

/// Sends one request — the only part of a client's loop that is timed.
void Send(Service& service, const std::vector<DocumentId>& ids,
           const Corpus& corpus, Request& r, DocumentDelta* delta_copy,
           Reply* reply) {
  reply->answers.clear();
  reply->failed = 0;
  switch (r.kind) {
    case OpKind::kAnswer:
      reply->single = service.Answer(ids[static_cast<size_t>(r.doc)],
                                     corpus.pool_query[static_cast<size_t>(r.query)]);
      return;
    case OpKind::kBatch:
      reply->batch = service.AnswerBatch(r.items, r.workers);
      return;
    case OpKind::kUpdate:
      if (!service.UpdateDocument(ids[static_cast<size_t>(r.doc)],
                                  std::move(*delta_copy))
               .ok()) {
        reply->failed = 1;
      }
      return;
  }
}

/// Collects the answers of a sent request (outside the timed span).
void Collect(const Request& r, Reply* reply) {
  if (r.kind == OpKind::kAnswer) {
    if (reply->single.ok()) {
      reply->answers.push_back(&reply->single.value());
    } else {
      reply->answers.push_back(nullptr);
      reply->failed = 1;
    }
  } else if (r.kind == OpKind::kBatch) {
    if (!reply->batch.ok()) {
      reply->answers.assign(r.items.size(), nullptr);
      reply->failed = r.items.size();
      return;
    }
    for (const ServiceResult<xpv::Answer>& a : reply->batch.value().answers) {
      reply->answers.push_back(a.ok() ? &a.value() : nullptr);
      if (!a.ok()) ++reply->failed;
    }
  }
}

/// The read items of a request as (document, pattern) pairs.
void ReadItems(const Request& r, const Corpus& corpus,
               std::vector<std::pair<int, const Pattern*>>* out) {
  out->clear();
  if (r.kind == OpKind::kAnswer) {
    out->push_back({r.doc, &corpus.pool[static_cast<size_t>(r.query)]});
  } else if (r.kind == OpKind::kBatch) {
    for (size_t i = 0; i < r.items.size(); ++i) {
      out->push_back({r.item_doc[i], &ItemPattern(r, i, corpus)});
    }
  }
}

void ApplyToShadow(Tree* shadow, const DocumentDelta& delta) {
  std::string why;
  if (!shadow->ValidateDelta(delta, &why)) Die("invalid generated delta: " + why);
  (void)shadow->ApplyDelta(delta);  // discard: the report is for the views.
}

/// The answer of every pool query on every document as generated: the
/// in-run check of a pool query on a document nobody has updated is then
/// a comparison, cheap enough not to throttle a client whose calls take
/// a microsecond or two.
std::vector<std::vector<NodeId>> ExpectedAnswers(const Corpus& corpus) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(static_cast<size_t>(kDocs) * kPoolSize);
  for (const Tree& doc : corpus.docs) {
    for (const Pattern& q : corpus.pool) out.push_back(Eval(q, doc));
  }
  return out;
}

constexpr uint64_t kCheckEvery = 256;
constexpr int kRounds = 20;
constexpr int kSetupsPerRound = 2;
constexpr double kWarmSeconds = 1.0;
constexpr int kOpKinds = 3;
// Fresh queries whose keys a client remembers for the distinct-key count:
// a fixed number, so the run's memory does not grow with its throughput.
constexpr uint64_t kTrackedFresh = 16384;

/// Call latencies, one histogram per OpKind.
using KindLatency = std::array<LogHistogram, kOpKinds>;

/// What one timed segment (or a whole run) of a fleet measured.
struct Segment {
  uint64_t calls = 0;
  uint64_t items = 0;
  double wall_s = 0.0;
  KindLatency latency;

  double items_per_s() const {
    return Ratio(static_cast<double>(items), wall_s);
  }
  LogHistogram all_latency() const {
    LogHistogram all;
    for (const LogHistogram& h : latency) all.Merge(h);
    return all;
  }
  LogHistogram update_latency() const {
    return latency[static_cast<size_t>(OpKind::kUpdate)];
  }
  void Add(const Segment& s) {
    calls += s.calls;
    items += s.items;
    wall_s += s.wall_s;
    for (int k = 0; k < kOpKinds; ++k) {
      latency[static_cast<size_t>(k)].Merge(s.latency[static_cast<size_t>(k)]);
    }
  }
};

/// The rounds `pick` of a fleet as one measurement: every item over every
/// timed second of them, and every call's latency.
Segment Total(const std::vector<Segment>& rounds, const std::vector<size_t>& pick) {
  Segment total;
  for (size_t i : pick) total.Add(rounds[i]);
  return total;
}

/// How fast the machine ran during each round, from the SpeedProbe
/// readings taken before every round and after the last (`readings[i]`
/// precedes round i): per CPU the slower of the two readings around the
/// round. A 1-thread round counts the CPU it ran on (round i % CPUs), a
/// 4-thread round the mean over all CPUs.
std::vector<double> RoundSpeeds(const std::vector<std::vector<double>>& readings,
                                bool one_cpu) {
  std::vector<double> out;
  for (size_t r = 0; r + 1 < readings.size(); ++r) {
    const std::vector<double>& before = readings[r];
    const std::vector<double>& after = readings[r + 1];
    double speed = 0.0;
    for (size_t c = 0; c < before.size(); ++c) {
      if (one_cpu && c != r % before.size()) continue;
      speed += std::min(before[c], after[c]) /
               static_cast<double>(one_cpu ? 1 : before.size());
    }
    out.push_back(speed);
  }
  return out;
}

/// The rounds to report: the half during which the machine ran fastest.
/// The choice rests on the probe alone, so a cost of the code under test
/// that lands in some rounds (a compacting delta, a view rematerialized)
/// stays in the figures in proportion.
std::vector<size_t> FasterHalf(const std::vector<double>& speeds) {
  std::vector<size_t> order(speeds.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return speeds[a] > speeds[b]; });
  order.resize((order.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

/// Closed-loop clients bound to one loaded Service. Each client's request
/// stream and shadow trees persist across `Run` calls, so the segments of
/// a run continue one stream per client. Client c owns the writes of the
/// documents d with d % clients == c and keeps them current in the shadow
/// trees; it checks one in kCheckEvery of its reads of documents whose
/// content it knows (every document on read-only workloads, its own on
/// mixed_rw) against direct evaluation, outside the timed span.
class Fleet {
 private:
  struct alignas(64) Client {
    Client(Workload w, const Corpus& corpus, const std::vector<DocumentId>& ids,
           uint64_t seed, std::vector<int> owned, bool parallel)
        : stream(w, corpus, ids, seed, std::move(owned), parallel) {}
    Stream stream;
    Request request;
    Reply reply;
    DocumentDelta delta_copy;
    std::vector<std::pair<int, const Pattern*>> reads;
    Segment segment;  // Calls, items and latencies of the current round.
    // Totals over the run.
    uint64_t failed = 0, reads_seen = 0, checks = 0, mismatches = 0,
             fresh_items = 0;
    std::unordered_set<uint64_t> fresh_keys;
  };

 public:
  Fleet(Bed* bed, const Corpus& corpus,
        const std::vector<std::vector<NodeId>>& expected, const Options& opt,
        int clients, bool parallel, uint64_t salt)
      : bed_(bed), corpus_(corpus), expected_(expected), opt_(opt),
        shadows_(corpus.docs), modified_(kDocs, 0) {
    for (int c = 0; c < clients; ++c) {
      std::vector<int> owned;
      for (int d = c; d < kDocs; d += clients) owned.push_back(d);
      clients_.push_back(std::make_unique<Client>(
          opt.workload, corpus, bed->ids,
          HashCombine64(Mix64(opt.seed), salt + static_cast<uint64_t>(c)),
          std::move(owned), parallel));
    }
  }

  /// Runs every client for `seconds`; with `cpu` >= 0 the (single)
  /// client runs on that CPU only.
  Segment Run(double seconds, int cpu = -1) {
    const int n = static_cast<int>(clients_.size());
    for (const auto& c : clients_) c->segment = Segment();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<int64_t> deadline{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        if (cpu >= 0) RunOn({cpu});
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        Loop(*clients_[static_cast<size_t>(i)], i, deadline.load());
      });
    }
    while (ready.load() < n) std::this_thread::yield();
    const Clock::time_point start = Clock::now();
    deadline.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       (start + std::chrono::duration<double>(seconds))
                           .time_since_epoch())
                       .count());
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    Segment seg;
    for (const auto& c : clients_) seg.Add(c->segment);
    seg.wall_s = SecondsSince(start);
    return seg;
  }

  /// Failed items and checked answers over every segment so far.
  struct Totals {
    uint64_t failed = 0;
    uint64_t checks = 0;
    uint64_t mismatches = 0;
  };
  Totals totals() const {
    Totals t;
    for (const auto& c : clients_) {
      t.failed += c->failed;
      t.checks += c->checks;
      t.mismatches += c->mismatches;
    }
    return t;
  }
  /// Distinct (document, fingerprint) keys among the fresh queries sent,
  /// as a share of them; 0 when the workload sends none.
  double FreshDistinctRatio() const {
    std::unordered_set<uint64_t> keys;
    uint64_t sent = 0;
    for (const auto& c : clients_) {
      keys.insert(c->fresh_keys.begin(), c->fresh_keys.end());
      sent += c->fresh_items;
    }
    return Ratio(static_cast<double>(keys.size()), static_cast<double>(sent));
  }
  const std::vector<Tree>& shadows() const { return shadows_; }

 private:
  void Loop(Client& c, int index, int64_t deadline) {
    const int n = static_cast<int>(clients_.size());
    Request& r = c.request;
    for (;;) {
      c.stream.Next(&r, shadows_);
      if (r.kind == OpKind::kUpdate) c.delta_copy = r.delta;
      const Clock::time_point t0 = Clock::now();
      Send(*bed_->service, bed_->ids, corpus_, r, &c.delta_copy, &c.reply);
      const Clock::time_point t1 = Clock::now();
      c.segment.latency[static_cast<size_t>(r.kind)].Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
      ++c.segment.calls;
      c.segment.items += r.num_items();
      Collect(r, &c.reply);
      c.failed += c.reply.failed;
      ReadItems(r, corpus_, &c.reads);
      for (size_t i = 0; i < c.reads.size(); ++i) {
        const auto [doc, pattern] = c.reads[i];
        const int q = r.kind == OpKind::kAnswer ? r.query : r.item_query[i];
        if (q < 0 && c.fresh_items < kTrackedFresh) {
          ++c.fresh_items;
          c.fresh_keys.insert(HashCombine64(Mix64(static_cast<uint64_t>(doc)),
                                            pattern->CanonicalFingerprint()));
        }
        const bool known = opt_.workload != Workload::kMixedRw || doc % n == index;
        if (++c.reads_seen % kCheckEvery != 0 || !known ||
            c.reply.answers[i] == nullptr) {
          continue;
        }
        ++c.checks;
        const size_t d = static_cast<size_t>(doc);
        std::vector<NodeId> computed;
        const std::vector<NodeId>* want = &computed;
        if (q >= 0 && modified_[d] == 0) {
          want = &expected_[d * kPoolSize + static_cast<size_t>(q)];
        } else {
          computed = Eval(*pattern, shadows_[d]);
        }
        const std::vector<NodeId>& got = c.reply.answers[i]->outputs;
        bool match = got == *want;
        if (opt_.corrupt_check) {
          std::vector<NodeId> corrupted = got;
          corrupted.push_back(kNoNode);
          match = corrupted == *want;
        }
        if (!match) ++c.mismatches;
      }
      if (r.kind == OpKind::kUpdate && c.reply.failed == 0) {
        ApplyToShadow(&shadows_[static_cast<size_t>(r.doc)], r.delta);
        modified_[static_cast<size_t>(r.doc)] = 1;
      }
      if (std::chrono::duration_cast<std::chrono::nanoseconds>(
              t1.time_since_epoch())
              .count() >= deadline) {
        return;
      }
    }
  }

  Bed* bed_;
  const Corpus& corpus_;
  const std::vector<std::vector<NodeId>>& expected_;
  const Options& opt_;
  // Shadow trees and "updated" flags: entry d is only touched by the
  // client that owns document d's writes.
  std::vector<Tree> shadows_;
  std::vector<char> modified_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// Post-run check: the 32 most popular queries on every document, answered
/// by the Service, against the naive reference evaluator over the shadow.
void CheckAgainstReference(Bed& bed, const Corpus& corpus,
                           const std::vector<Tree>& current, uint64_t* checks,
                           uint64_t* mismatches) {
  for (int d = 0; d < kDocs; ++d) {
    for (int q = 0; q < kPopular; ++q) {
      ServiceResult<xpv::Answer> a = bed.service->Answer(
          bed.ids[static_cast<size_t>(d)], corpus.pool_query[static_cast<size_t>(q)]);
      ++*checks;
      if (!a.ok() ||
          a.value().outputs != reference::Eval(corpus.pool[static_cast<size_t>(q)],
                                               current[static_cast<size_t>(d)])) {
        ++*mismatches;
      }
    }
  }
}

void Warm(Bed& bed, const Corpus& corpus) {
  for (Request& r : WarmRequests(corpus, bed)) {
    ServiceResult<BatchAnswers> batch = bed.service->AnswerBatch(r.items, r.workers);
    if (!batch.ok()) Die("warm-up batch failed: " + batch.error().message);
    for (const auto& a : batch.value().answers) {
      if (!a.ok()) Die("warm-up item failed: " + a.error().message);
    }
  }
}

// ------------------------------------------------------------- traced run

struct TraceResult {
  uint64_t requests = 0;
  uint64_t mismatches = 0;  // Replayed answer != Service answer.
  bool memo_agrees = true;  // Replay memo hits/misses == Service memo's.
  LogHistogram call;        // Traced api.call durations.
  LogHistogram self;        // Per request: call minus replay children.
  std::array<LogHistogram, kNumLayers> layer;
  std::array<double, kNumLayers> layer_ns{};
  double call_ns = 0.0;
  double children_ns = 0.0;
  ReplayCounts counts;
  size_t spans = 0;
};

size_t MaxTracedRequests(Workload w) {
  // Few enough memo inserts that the memo never reaches capacity: below
  // capacity the replica's memo sees exactly the Service's hits and misses
  // (eviction order depends on each table's hash layout).
  switch (w) {
    case Workload::kHotRead:
      return 100000;
    case Workload::kColdBatch:
      return 48;
    case Workload::kMixedRw:
      return 20000;
    case Workload::kWideBatch:
      return 12;
  }
  return 0;
}

TraceResult RunTraced(const Corpus& corpus, const Options& opt, double seconds) {
  Bed bed = Load(corpus);
  Tracer tracer(1 << 20);
  Replay replay(corpus, &tracer);
  // Warm both sides identically; only the prefix below is traced.
  tracer.set_enabled(false);
  for (Request& r : WarmRequests(corpus, bed)) {
    ServiceResult<BatchAnswers> batch = bed.service->AnswerBatch(r.items, r.workers);
    if (!batch.ok()) Die("warm-up batch failed");
    replay.Run(r, corpus);
  }
  tracer.set_enabled(true);
  replay.ClearCounts();

  TraceResult out;
  const AnswerCache::Stats svc0 = bed.service->answer_cache().stats();
  const AnswerCache::Stats rep0 = replay.memo().stats();
  std::vector<int> all_docs;
  for (int d = 0; d < kDocs; ++d) all_docs.push_back(d);
  Stream stream(opt.workload, corpus, bed.ids,
                HashCombine64(Mix64(opt.seed), 0x7ace), all_docs,
                /*parallel=*/false);
  Request r;
  Reply reply;
  DocumentDelta delta_copy;
  const Clock::time_point start = Clock::now();
  const size_t max_requests = MaxTracedRequests(opt.workload);
  while (out.requests < max_requests && !tracer.full() &&
         SecondsSince(start) < seconds) {
    stream.Next(&r, replay.trees());
    if (r.kind == OpKind::kUpdate) delta_copy = r.delta;
    tracer.set_request(static_cast<uint32_t>(out.requests));
    const int64_t t0 = Tracer::Now();
    Send(*bed.service, bed.ids, corpus, r, &delta_copy, &reply);
    const int64_t t1 = Tracer::Now();
    tracer.Add(kCall, t0, t1, static_cast<uint32_t>(r.num_items()));
    Collect(r, &reply);
    const std::vector<CacheAnswer> replayed = replay.Run(r, corpus);
    for (size_t i = 0; i < replayed.size(); ++i) {
      const CacheAnswer* a = reply.answers[i];
      if (a == nullptr || a->outputs != replayed[i].outputs ||
          a->hit != replayed[i].hit) {
        ++out.mismatches;
      }
    }
    ++out.requests;
  }
  const AnswerCache::Stats svc1 = bed.service->answer_cache().stats();
  const AnswerCache::Stats rep1 = replay.memo().stats();
  out.memo_agrees = svc1.hits - svc0.hits == rep1.hits - rep0.hits &&
                    svc1.misses - svc0.misses == rep1.misses - rep0.misses;

  // Fold the spans: each request's replay steps are the children of its
  // api.call span, so the call's self time is its duration minus theirs.
  const std::vector<Span>& spans = tracer.spans();
  out.spans = spans.size();
  for (size_t i = 0; i < spans.size();) {
    const Span& call = spans[i];
    const double call_ns = static_cast<double>(call.end_ns - call.start_ns);
    double children = 0.0;
    size_t j = i + 1;
    for (; j < spans.size() && spans[j].request == call.request; ++j) {
      const double ns = static_cast<double>(spans[j].end_ns - spans[j].start_ns);
      children += ns;
      out.layer_ns[spans[j].layer] += ns;
      out.layer[spans[j].layer].Record(static_cast<uint64_t>(ns));
    }
    out.call.Record(static_cast<uint64_t>(call_ns));
    out.self.Record(static_cast<uint64_t>(std::max(0.0, call_ns - children)));
    out.call_ns += call_ns;
    out.children_ns += children;
    i = j;
  }
  out.counts = replay.counts();
  if (!tracer.WriteCsv(opt.trace_out)) {
    Die("cannot write " + opt.trace_out);
  }
  return out;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double Us(double ns) { return ns / 1000.0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Corpus corpus = BuildCorpus(kCorpusSeed);
  size_t nodes = 0;
  for (const Tree& t : corpus.docs) nodes += static_cast<size_t>(t.size());
  std::fprintf(stderr, "corpus: %d documents, %zu nodes, %d pool queries\n",
               kDocs, nodes, kPoolSize);

  // The 4-thread invocation (four clients, or for wide_batch one client
  // whose batches use four workers) and the 1-thread one each get their
  // own warm Service. They run in alternating rounds, so a slow stretch of
  // the machine lands on both; each fleet reports the half of its rounds
  // during which the speed probe read the machine fastest.
  const bool wide = opt.workload == Workload::kWideBatch;
  const std::vector<std::vector<NodeId>> expected = ExpectedAnswers(corpus);
  uint64_t checks = 0, mismatches = 0, failed = 0, attempted = 0;
  std::vector<double> setup_s, views_s;
  const auto sample_setup = [&] {
    const Bed bed = Load(corpus);
    setup_s.push_back(bed.setup_s);
    views_s.push_back(bed.views_s);
  };
  std::vector<Segment> rounds4, rounds1;
  std::vector<std::vector<double>> speeds;  // SpeedProbe, around each round.
  ServiceStats stats4;
  AnswerCache::FillStats fills4;
  double fresh_distinct = 0.0;
  {
    Bed bed4 = Load(corpus);
    Warm(bed4, corpus);
    Bed bed1 = Load(corpus);
    Warm(bed1, corpus);
    Fleet f4(&bed4, corpus, expected, opt, wide ? 1 : 4, /*parallel=*/true, 4);
    Fleet f1(&bed1, corpus, expected, opt, 1, /*parallel=*/false, 1);
    // First an untimed stretch of each fleet's own traffic: the warm-up
    // batches leave unasked the containment tests the single-query path
    // makes after a write drops a memo entry, and the oracle fills with
    // fresh queries' entries. Without it the first half second of mixed_rw
    // and cold_batch could run at a third of their speed.
    attempted += f4.Run(kWarmSeconds).items + f1.Run(kWarmSeconds).items;
    // Set-up time is sampled before every round, so its samples span the
    // run as the rounds do. The single-threaded measurements (set-up and
    // the 1-thread fleet) move to the next CPU each round: on a shared host
    // one CPU can run slow for seconds while the others do not, and a run
    // should see every CPU rather than whichever it started on. The speed
    // probe reads every CPU before the first round and after each one.
    const std::vector<int> cpus = AllowedCpus();
    const SpeedProbe probe(cpus);
    speeds.push_back(probe.Measure());
    for (int round = 0; round < kRounds; ++round) {
      const int cpu = cpus.empty() ? -1 : cpus[static_cast<size_t>(round) % cpus.size()];
      if (cpu >= 0) RunOn({cpu});
      for (int i = 0; i < kSetupsPerRound; ++i) sample_setup();
      RunOn(cpus);
      rounds4.push_back(f4.Run(0.7 * opt.seconds / kRounds));
      rounds1.push_back(f1.Run(0.3 * opt.seconds / kRounds, cpu));
      attempted += rounds4.back().items + rounds1.back().items;
      speeds.push_back(probe.Measure());
    }
    stats4 = bed4.service->stats();
    fills4 = bed4.service->answer_cache().fill_stats();
    fresh_distinct = f4.FreshDistinctRatio();
    size_t end_nodes = 0;
    for (const Tree& t : f4.shadows()) end_nodes += static_cast<size_t>(t.size());
    std::fprintf(stderr, "documents: %zu nodes at the start, %zu at the end\n",
                 nodes, end_nodes);
    for (const Fleet* f : {&f4, &f1}) {
      const Fleet::Totals t = f->totals();
      failed += t.failed;
      checks += t.checks;
      mismatches += t.mismatches;
    }
    CheckAgainstReference(bed4, corpus, f4.shadows(), &checks, &mismatches);
    CheckAgainstReference(bed1, corpus, f1.shadows(), &checks, &mismatches);
  }
  const std::vector<double> speed4 = RoundSpeeds(speeds, /*one_cpu=*/false);
  const std::vector<double> speed1 = RoundSpeeds(speeds, /*one_cpu=*/true);
  const std::vector<size_t> pick4 = FasterHalf(speed4);
  const std::vector<size_t> pick1 = FasterHalf(speed1);
  const Segment fast4 = Total(rounds4, pick4);
  const Segment fast1 = Total(rounds1, pick1);
  // A round's set-up samples ran on the 1-thread round's CPU just before it.
  std::vector<double> setup_picked, views_picked;
  for (size_t r : pick1) {
    for (size_t i = r * kSetupsPerRound; i < (r + 1) * kSetupsPerRound; ++i) {
      setup_picked.push_back(setup_s[i]);
      views_picked.push_back(views_s[i]);
    }
  }
  const LogHistogram latency4 = fast4.all_latency();
  const LogHistogram updates4 = fast4.update_latency();
  const double p50_4 = latency4.Quantile(0.5);
  const double p50_1 = fast1.all_latency().Quantile(0.5);
  const double items_per_s = fast4.items_per_s();
  const double items_per_s_1t = fast1.items_per_s();
  // The tail is the highest percentile the sample supports: p99 has
  // hundreds of calls beyond it on hot_read and mixed_rw, but the batch
  // workloads' calls take milliseconds and number in the hundreds, p90 then.
  const double tail_q = wide || opt.workload == Workload::kColdBatch ? 0.90 : 0.99;
  std::fprintf(stderr,
               "4-thread: %.0f items/s, %llu calls in %zu of %d rounds, p50 %.1fus, "
               "p%g %.1fus (%llu calls beyond)\n",
               items_per_s, static_cast<unsigned long long>(fast4.calls),
               pick4.size(), kRounds, Us(p50_4), tail_q * 100,
               Us(latency4.Quantile(tail_q)),
               static_cast<unsigned long long>(latency4.CountBeyond(tail_q)));
  std::fprintf(stderr, "1-thread: %.0f items/s, p50 %.1fus\n", items_per_s_1t,
               Us(p50_1));
  // Every round, with * on those reported (4-thread, 1-thread).
  std::fprintf(stderr, "rounds (4-thread/1-thread items/s, set-up ms):");
  for (size_t round = 0; round < rounds4.size(); ++round) {
    const auto mark = [round](const std::vector<size_t>& pick) {
      return std::binary_search(pick.begin(), pick.end(), round) ? "*" : "";
    };
    std::fprintf(stderr, " %.0f%s/%.0f%s/%.1f", rounds4[round].items_per_s(),
                 mark(pick4), rounds1[round].items_per_s(), mark(pick1),
                 1e3 * setup_s[round * kSetupsPerRound]);
  }
  std::fprintf(stderr, "\n");
  if (latency4.CountBeyond(tail_q) < 10) {
    std::fprintf(stderr, "warning: fewer than 10 calls beyond the tail\n");
  }
  // Updates are a fifth of mixed_rw's calls, too few to move the workload's
  // latency quantiles; they get their own (0 where there are none, and a
  // p99 only with at least 10 calls beyond it).
  const double update_p99 =
      updates4.CountBeyond(0.99) >= 10 ? updates4.Quantile(0.99) : 0.0;
  if (updates4.count() > 0) {
    std::fprintf(stderr, "4-thread updates: p50 %.1fus, p99 %.1fus (%llu calls beyond)\n",
                 Us(updates4.Quantile(0.5)), Us(update_p99),
                 static_cast<unsigned long long>(updates4.CountBeyond(0.99)));
  }
  std::fprintf(stderr, "checks: %llu answers compared, %llu mismatches\n",
               static_cast<unsigned long long>(checks),
               static_cast<unsigned long long>(mismatches));

  std::vector<Metric> metrics;
  bool correct = mismatches == 0;
  if (!opt.trace) {
    metrics = {
        {"items_per_s", items_per_s, "items/s"},
        {"items_per_s_1t", items_per_s_1t, "items/s"},
        {"latency_p50_us", Us(p50_4), "us"},
        {"latency_tail_us", Us(latency4.Quantile(tail_q)), "us"},
        {"setup_s", Median(setup_picked), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    std::vector<double> parse_s;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const std::string& xml : corpus.doc_xml) {
        if (!ParseXml(xml).ok()) Die("ParseXml failed");
      }
      parse_s.push_back(SecondsSince(t0));
    }
    const TraceResult t = RunTraced(corpus, opt, 0.4 * opt.seconds);
    correct = correct && t.mismatches == 0 && t.memo_agrees;
    const double call = t.call_ns;
    const auto share = [&](std::initializer_list<Layer> layers) {
      double ns = 0.0;
      for (Layer l : layers) ns += t.layer_ns[l];
      return Ratio(ns, call);
    };
    // The replay re-executes each request instead of observing it, so the
    // api layer is a remainder, not a measurement: call time minus replay
    // time, negative when the replay ran longer than the call.
    const double api_self = call - t.children_ns;
    const double computed = static_cast<double>(t.counts.computed);
    const ServiceStats& s = stats4;
    const double untraced_p50 = p50_1;
    std::fprintf(stderr,
                 "trace: %llu requests, %zu spans, %llu replay mismatches, "
                 "memo %s; replay covers %.1f%% of api.call time\n",
                 static_cast<unsigned long long>(t.requests), t.spans,
                 static_cast<unsigned long long>(t.mismatches),
                 t.memo_agrees ? "agrees" : "DISAGREES",
                 100.0 * Ratio(t.children_ns, call));
    metrics = {
        {"api.self_us_p50", Us(t.self.Quantile(0.5)), "us"},
        {"api.share", Ratio(api_self, call), "share"},
        {"api.wait_us_p50", Us(p50_4 - untraced_p50), "us"},
        {"pattern.parse_us_p50", Us(t.layer[kParse].Quantile(0.5)), "us"},
        {"pattern.fingerprint_us_p50", Us(t.layer[kFingerprint].Quantile(0.5)), "us"},
        {"pattern.share", share({kParse, kFingerprint}), "share"},
        {"memo.op_us_p50", Us(t.layer[kMemo].Quantile(0.5)), "us"},
        {"memo.hit_ratio",
         Ratio(static_cast<double>(s.answer_cache_hits),
               static_cast<double>(s.answer_cache_hits + s.answer_cache_misses)),
         "ratio"},
        {"memo.fill_joins", static_cast<double>(fills4.joins), "count"},
        {"memo.evictions", static_cast<double>(s.answer_cache_evictions), "count"},
        {"memo.doorkeeper_rejects",
         static_cast<double>(s.answer_cache_doorkeeper_rejects), "count"},
        {"memo.share", share({kMemo}), "share"},
        {"index.share", share({kIndex}), "share"},
        {"index.admissible_per_query",
         Ratio(static_cast<double>(t.counts.admissible), computed), "ratio"},
        {"rewrite.share", share({kBundle, kDecide}), "share"},
        {"rewrite.bundle_share", share({kBundle}), "share"},
        {"rewrite.decide_share", share({kDecide}), "share"},
        {"rewrite.decisions_per_query",
         Ratio(static_cast<double>(t.counts.decisions), computed), "ratio"},
        {"rewrite.view_hit_ratio",
         Ratio(static_cast<double>(t.counts.view_hits), computed), "ratio"},
        {"rewrite.unknown_ratio",
         Ratio(static_cast<double>(t.counts.unknown),
               static_cast<double>(t.counts.decisions)),
         "ratio"},
        {"oracle.hit_ratio",
         Ratio(static_cast<double>(s.oracle_hits),
               static_cast<double>(s.oracle_hits + s.oracle_misses)),
         "ratio"},
        {"containment.share", share({kProbe, kKernel}), "share"},
        {"containment.kernel_share", share({kKernel}), "share"},
        {"containment.kernel_calls_per_query",
         Ratio(static_cast<double>(t.counts.kernel_calls), computed), "ratio"},
        {"eval.share", share({kApply, kFallback}), "share"},
        {"eval.apply_share", share({kApply}), "share"},
        {"eval.fallback_share", share({kFallback}), "share"},
        {"eval.fallback_per_query",
         Ratio(static_cast<double>(t.counts.fallbacks), computed), "ratio"},
        {"xml.parse_s", Median(parse_s), "s"},
        {"xml.delta_share", share({kXml}), "share"},
        {"update.share", share({kUpdate}), "share"},
        {"update.untouched_ratio",
         Ratio(static_cast<double>(s.update_views_untouched),
               static_cast<double>(s.update_views_patched +
                                   s.update_views_rematerialized +
                                   s.update_views_untouched)),
         "ratio"},
        {"update.fallbacks", static_cast<double>(s.update_fallbacks), "count"},
        {"update.latency_us_p50", Us(updates4.Quantile(0.5)), "us"},
        {"update.latency_us_p99", Us(update_p99), "us"},
        {"views.materialize_s", Median(views_picked), "s"},
        {"pool.speedup", Ratio(items_per_s, items_per_s_1t), "ratio"},
        {"pool.queue_rejections", static_cast<double>(s.pool_queue_rejections),
         "count"},
        {"memory.used_mb", static_cast<double>(s.memory_used_bytes) / 1e6, "MB"},
        {"trace.overhead_ratio",
         Ratio(t.call.Quantile(0.5), untraced_p50) - 1.0, "ratio"},
        {"trace.requests", static_cast<double>(t.requests), "count"},
        {"stream.fresh_distinct_ratio", fresh_distinct, "ratio"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xpv::e2e

int main(int argc, char** argv) { return xpv::e2e::Main(argc, argv); }
