#ifndef XPV_E2EBENCH_WORKLOAD_H_
#define XPV_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "api/service.h"
#include "corpus.h"

namespace xpv::e2e {

/// The four traffic mixes. All are closed loop: a client sends its next
/// request only after the previous reply arrived, with no think time.
enum class Workload { kHotRead, kColdBatch, kMixedRw, kWideBatch };

bool ParseWorkload(std::string_view name, Workload* out);

enum class OpKind : uint8_t { kAnswer, kBatch, kUpdate };

/// One request of a client's stream, plus what the checks and the replay
/// need to know about it. Reused across requests so generating one does
/// not allocate once the buffers are warm.
struct Request {
  OpKind kind = OpKind::kAnswer;
  int doc = 0;    // kAnswer, kUpdate.
  int query = 0;  // kAnswer: pool rank.
  /// kBatch: one entry per item. `item_query[i] >= 0` is a pool rank,
  /// otherwise the item is `fresh[-1 - item_query[i]]`.
  std::vector<int> item_doc;
  std::vector<int> item_query;
  std::vector<Pattern> fresh;
  std::vector<BatchItem> items;
  int workers = 1;      // kBatch: `AnswerBatch` worker count.
  DocumentDelta delta;  // kUpdate.

  /// Items the request answers or applies (a batch counts each item).
  size_t num_items() const {
    return kind == OpKind::kBatch ? items.size() : 1;
  }
};

/// The pattern behind batch item `i` (a pool query or a fresh one).
const Pattern& ItemPattern(const Request& r, size_t i, const Corpus& corpus);

/// One client's seeded request stream. `owned` lists the documents whose
/// writes this client sends (mixed_rw); `parallel` selects the batch
/// worker count of the 4-thread invocation (wide_batch uses 4 workers
/// there and 1 in the 1-thread invocation).
class Stream {
 public:
  Stream(Workload workload, const Corpus& corpus,
         const std::vector<DocumentId>& ids, uint64_t seed,
         std::vector<int> owned, bool parallel);

  /// Draws the next request. `current[d]` is the client's view of
  /// document d as it stands now (used to draw valid deltas for owned
  /// documents).
  void Next(Request* r, const std::vector<Tree>& current);

 private:
  void AddPoolItem(Request* r, int doc, int rank) const;
  void AddFreshItem(Request* r, int doc);

  Workload workload_;
  const Corpus& corpus_;
  const std::vector<DocumentId>& ids_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<int> owned_;
  bool parallel_;
};

}  // namespace xpv::e2e

#endif  // XPV_E2EBENCH_WORKLOAD_H_
