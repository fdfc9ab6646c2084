#include "workload.h"

#include <utility>

#include "pattern/serializer.h"

namespace xpv::e2e {

namespace {
constexpr int kColdBatchItems = 64;
constexpr int kMixedBatchItems = 16;
constexpr int kWideBatchItems = 256;
constexpr int kWideWorkers = 4;
}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "hot_read") {
    *out = Workload::kHotRead;
  } else if (name == "cold_batch") {
    *out = Workload::kColdBatch;
  } else if (name == "mixed_rw") {
    *out = Workload::kMixedRw;
  } else if (name == "wide_batch") {
    *out = Workload::kWideBatch;
  } else {
    return false;
  }
  return true;
}

const Pattern& ItemPattern(const Request& r, size_t i, const Corpus& corpus) {
  const int q = r.item_query[i];
  return q >= 0 ? corpus.pool[static_cast<size_t>(q)]
                : r.fresh[static_cast<size_t>(-1 - q)];
}

Stream::Stream(Workload workload, const Corpus& corpus,
               const std::vector<DocumentId>& ids, uint64_t seed,
               std::vector<int> owned, bool parallel)
    : workload_(workload),
      corpus_(corpus),
      ids_(ids),
      rng_(seed),
      zipf_(kPoolSize, kZipfS),
      owned_(std::move(owned)),
      parallel_(parallel) {}

void Stream::AddPoolItem(Request* r, int doc, int rank) const {
  r->item_doc.push_back(doc);
  r->item_query.push_back(rank);
  r->items.push_back({ids_[static_cast<size_t>(doc)],
                      corpus_.pool_query[static_cast<size_t>(rank)]});
}

void Stream::AddFreshItem(Request* r, int doc) {
  // The base is drawn uniformly, not by popularity: the edits make every
  // item new anyway, and a uniform base keeps one costly pool query from
  // dominating the run.
  const int base = static_cast<int>(rng_.Below(kPoolSize));
  r->fresh.push_back(FreshQuery(rng_, corpus_.pool[static_cast<size_t>(base)]));
  r->item_doc.push_back(doc);
  r->item_query.push_back(-static_cast<int>(r->fresh.size()));
  r->items.push_back({ids_[static_cast<size_t>(doc)], ToXPath(r->fresh.back())});
}

void Stream::Next(Request* r, const std::vector<Tree>& current) {
  r->item_doc.clear();
  r->item_query.clear();
  r->fresh.clear();
  r->items.clear();
  r->delta.ops.clear();
  r->workers = 1;
  const auto random_doc = [this] {
    return static_cast<int>(rng_.Below(kDocs));
  };
  switch (workload_) {
    case Workload::kHotRead:
      r->kind = OpKind::kAnswer;
      r->query = zipf_.Sample(rng_);
      r->doc = random_doc();
      return;
    case Workload::kColdBatch:
      r->kind = OpKind::kBatch;
      for (int i = 0; i < kColdBatchItems; ++i) AddFreshItem(r, random_doc());
      return;
    case Workload::kMixedRw: {
      const uint64_t roll = rng_.Below(100);
      if (roll < 70) {
        r->kind = OpKind::kAnswer;
        r->query = zipf_.Sample(rng_);
        r->doc = random_doc();
      } else if (roll < 80) {
        r->kind = OpKind::kBatch;
        for (int i = 0; i < kMixedBatchItems; ++i) {
          AddPoolItem(r, random_doc(), zipf_.Sample(rng_));
        }
      } else {
        r->kind = OpKind::kUpdate;
        r->doc = owned_[rng_.Below(owned_.size())];
        const size_t d = static_cast<size_t>(r->doc);
        r->delta = BoundedDelta(rng_, current[d], corpus_.docs[d].size());
      }
      return;
    }
    case Workload::kWideBatch:
      r->kind = OpKind::kBatch;
      r->workers = parallel_ ? kWideWorkers : 1;
      for (int i = 0; i < kWideBatchItems; ++i) {
        if (i % 2 == 0) {
          AddPoolItem(r, random_doc(), zipf_.Sample(rng_));
        } else {
          AddFreshItem(r, random_doc());
        }
      }
      return;
  }
}

}  // namespace xpv::e2e
