#ifndef XPV_E2EBENCH_REPLAY_H_
#define XPV_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "containment/oracle.h"
#include "corpus.h"
#include "eval/evaluator.h"
#include "rewrite/candidates.h"
#include "views/answer_cache.h"
#include "views/view_cache.h"
#include "views/view_index.h"
#include "workload.h"

namespace xpv::e2e {

/// Span kinds. `kCall` is the timed `Service` call; every other kind is a
/// step of its replay through one layer's public functions and counts as
/// a child of that call.
enum Layer : uint8_t {
  kCall,
  kParse,        // pattern: ParseXPathDetailed
  kFingerprint,  // pattern: CanonicalFingerprint
  kMemo,         // views/answer_cache: lookup, insert, scope scans
  kIndex,        // views/view_index: SummarizeSelection, Admissible
  kBundle,       // rewrite: MakeCandidateBundleInto
  kProbe,        // containment: oracle call answered from the table
  kKernel,       // containment: oracle call that ran the containment test
  kDecide,       // rewrite: DecideRewrite
  kApply,        // eval: MaterializedView::ApplyMany
  kFallback,     // eval: MultiEvaluator over the whole document
  kXml,          // xml: Tree::ValidateDelta + ApplyDelta
  kUpdate,       // views/view_cache: ViewCache::ApplyUpdate
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t request = 0;
  Layer layer = kCall;
  /// Items of a call; queries of an apply or fallback group; views left
  /// untouched by an update; memo entries an update preserved; else 1.
  uint32_t count = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log, written out once when the run ends.
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  static int64_t Now();

  bool full() const { return spans_.size() >= spans_.capacity(); }
  void set_request(uint32_t request) { request_ = request; }
  void Add(Layer layer, int64_t start, int64_t end, uint32_t count = 1) {
    if (enabled_) spans_.push_back({request_, layer, count, start, end});
  }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as CSV (request, layer, count, start_ns, end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t request_ = 0;
  bool enabled_ = true;
};

/// Counts gathered where the replayed work happens.
struct ReplayCounts {
  uint64_t computed = 0;    // Queries that missed the memo.
  uint64_t admissible = 0;  // Views that survived index pruning.
  uint64_t decisions = 0;   // DecideRewrite calls.
  uint64_t view_hits = 0;   // Computed queries answered through a view.
  uint64_t unknown = 0;     // Decisions that ended kUnknown.
  uint64_t kernel_calls = 0;  // Oracle calls that ran the containment test.
  uint64_t fallbacks = 0;
};

/// A replica of the Service's state built from the same public pieces —
/// one `ViewCache` per document over its own copy of the tree, one
/// `ContainmentOracle` and one `AnswerCache` with the Service's capacities
/// — through which each request is re-executed step by step, each step
/// timed as a span. The replica's answers must equal the Service's, and
/// its memo must see the same hits and misses.
class Replay {
 public:
  Replay(const Corpus& corpus, Tracer* tracer);
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Re-executes `r` (already sent to the Service) and returns the
  /// answers: one for kAnswer, one per item for kBatch, none for kUpdate
  /// (which applies the delta to the replica's tree and views).
  std::vector<CacheAnswer> Run(const Request& r, const Corpus& corpus);

  /// The replica's current trees (they double as the client's shadows).
  const std::vector<Tree>& trees() const { return trees_; }
  const ReplayCounts& counts() const { return counts_; }
  void ClearCounts() { counts_ = ReplayCounts(); }
  const AnswerCache& memo() const { return memo_; }

 private:
  uint64_t Validity(int doc, const CacheAnswer& answer) const;
  Pattern Parse(const std::string& xpath);
  uint64_t Fingerprint(const Pattern& p);
  /// Memo lookup with the Service's revalidation; true on a fresh hit.
  bool Lookup(int doc, uint64_t fp, CacheAnswer* out);
  void Insert(int doc, uint64_t fp, const CacheAnswer& answer);
  /// The rewrite decision for a memo miss: index pruning, then per
  /// admissible view the candidate bundle, its containment tests and
  /// `DecideRewrite`, stopping at the first view that answers. Leaves
  /// `outputs` empty.
  CacheAnswer Decide(int doc, const Pattern& p,
                     const SelectionSummary& summary);
  /// Fills the outputs of decided answers; `queries[i]` is the query of
  /// `(*answers)[i]`.
  void Produce(int doc, const std::vector<const Pattern*>& queries,
               std::vector<CacheAnswer*>* answers);
  CacheAnswer Answer(int doc, const std::string& xpath);
  std::vector<CacheAnswer> Batch(const Request& r);
  void Update(int doc, const DocumentDelta& delta);

  Tracer* tracer_;
  std::vector<Tree> trees_;
  std::vector<std::unique_ptr<ViewCache>> caches_;  // Point into trees_.
  ContainmentOracle oracle_;
  AnswerCache memo_;
  RewriteOptions rewrite_;
  ReplayCounts counts_;
  // Recycled scratch, as the serving path keeps it.
  CandidateBundle bundle_;
  std::vector<NodeId> bundle_map_;
  std::vector<std::pair<const Pattern*, const Pattern*>> pairs_;
  EvalScratch fallback_scratch_;
};

}  // namespace xpv::e2e

#endif  // XPV_E2EBENCH_REPLAY_H_
