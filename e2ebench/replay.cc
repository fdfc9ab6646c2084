#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "pattern/xpath_parser.h"
#include "rewrite/engine.h"

namespace xpv::e2e {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "api.call",    "pattern.parse",      "pattern.fingerprint",
      "memo",        "index",              "rewrite.bundle",
      "containment.probe", "containment.kernel", "rewrite.decide",
      "eval.apply",  "eval.fallback",      "xml.delta",
      "update.apply"};
  return kNames[layer];
}

int64_t Tracer::Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,layer,count,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%s,%u,%lld,%lld\n", s.request, LayerName(s.layer),
                 s.count, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Replay::Replay(const Corpus& corpus, Tracer* tracer)
    : tracer_(tracer),
      trees_(corpus.docs),
      oracle_(ServiceOptions{}.oracle_capacity),
      memo_(ServiceOptions{}.answer_cache_capacity,
            ServiceOptions{}.answer_cache_doorkeeper) {
  rewrite_.oracle = &oracle_;
  for (size_t d = 0; d < trees_.size(); ++d) {
    caches_.push_back(
        std::make_unique<ViewCache>(trees_[d], RewriteOptions{}, &oracle_));
    for (const ViewSpec& v : corpus.views[d]) {
      caches_.back()->AddView({v.name, MustParseXPath(v.xpath)});
    }
  }
}

uint64_t Replay::Validity(int doc, const CacheAnswer& answer) const {
  const ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  return answer.view_slot >= 0 ? cache.view_epoch(answer.view_slot)
                               : cache.doc_epoch();
}

Pattern Replay::Parse(const std::string& xpath) {
  const int64_t t0 = Tracer::Now();
  Result<Pattern, XPathParseError> parsed = ParseXPathDetailed(xpath);
  Pattern p = parsed.ok() ? parsed.take() : Pattern::Empty();
  tracer_->Add(kParse, t0, Tracer::Now());
  return p;
}

uint64_t Replay::Fingerprint(const Pattern& p) {
  const int64_t t0 = Tracer::Now();
  const uint64_t fp = p.CanonicalFingerprint();
  tracer_->Add(kFingerprint, t0, Tracer::Now());
  return fp;
}

bool Replay::Lookup(int doc, uint64_t fp, CacheAnswer* out) {
  const int64_t t0 = Tracer::Now();
  const ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  std::shared_ptr<const AnswerCache::Entry> entry =
      memo_.Lookup({static_cast<uint64_t>(doc), cache.epoch(), fp});
  const bool fresh =
      entry != nullptr && entry->validity == Validity(doc, entry->answer);
  if (fresh) *out = entry->answer;
  tracer_->Add(kMemo, t0, Tracer::Now());
  return fresh;
}

void Replay::Insert(int doc, uint64_t fp, const CacheAnswer& answer) {
  const int64_t t0 = Tracer::Now();
  const ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  memo_.Insert({static_cast<uint64_t>(doc), cache.epoch(), fp},
               {answer, CacheStats{}, Validity(doc, answer)});
  tracer_->Add(kMemo, t0, Tracer::Now());
}

CacheAnswer Replay::Decide(int doc, const Pattern& p,
                           const SelectionSummary& summary) {
  const ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  ++counts_.computed;
  int64_t t0 = Tracer::Now();
  std::vector<int> admissible;
  for (int vi = 0; vi < cache.index().size(); ++vi) {
    if (cache.index().Admissible(summary, vi)) admissible.push_back(vi);
  }
  tracer_->Add(kIndex, t0, Tracer::Now());
  counts_.admissible += admissible.size();

  CacheAnswer answer;
  for (int vi : admissible) {
    const Pattern& vp =
        cache.views()[static_cast<size_t>(vi)].definition().pattern;
    t0 = Tracer::Now();
    MakeCandidateBundleInto(p, vp, cache.index().view_summary(vi).depth,
                            &bundle_, &bundle_map_);
    tracer_->Add(kBundle, t0, Tracer::Now());
    // The forward containment tests of the bundle, one oracle call each —
    // what the batch pipeline's warm-up asks. A call that raised the
    // miss counter ran the containment test itself.
    pairs_.clear();
    AppendBundlePairs(bundle_, p, &pairs_);
    for (const auto& [sub, sup] : pairs_) {
      const uint64_t misses = oracle_.misses();
      t0 = Tracer::Now();
      // discard: the verdict is re-read from the oracle by DecideRewrite.
      (void)oracle_.Contained(*sub, *sup);
      const int64_t t1 = Tracer::Now();
      const bool kernel = oracle_.misses() > misses;
      tracer_->Add(kernel ? kKernel : kProbe, t0, t1);
      if (kernel) ++counts_.kernel_calls;
    }
    t0 = Tracer::Now();
    RewriteResult result = DecideRewrite(p, vp, rewrite_, &bundle_);
    tracer_->Add(kDecide, t0, Tracer::Now());
    ++counts_.decisions;
    if (result.status == RewriteStatus::kFound) {
      ++counts_.view_hits;
      answer.hit = true;
      answer.view_slot = vi;
      answer.view_name =
          cache.views()[static_cast<size_t>(vi)].definition().name;
      answer.rewriting = std::move(result.rewriting);
      return answer;
    }
    if (result.status == RewriteStatus::kUnknown) ++counts_.unknown;
  }
  ++counts_.fallbacks;
  return answer;
}

void Replay::Produce(int doc, const std::vector<const Pattern*>& queries,
                     std::vector<CacheAnswer*>* answers) {
  // The batch pipeline's answer production: rewritings are applied per
  // view in one anchored pass (`ApplyMany`), and queries no view answers
  // share packed whole-document passes (`MultiEvaluator`) of at most
  // kMaxPackedBits pattern nodes. A single query is the one-item case.
  constexpr int kMaxPackedBits = 256;
  const ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  std::vector<std::pair<int, size_t>> hits;  // (view slot, query index).
  std::vector<size_t> misses;
  for (size_t i = 0; i < answers->size(); ++i) {
    const CacheAnswer& a = *(*answers)[i];
    if (a.hit) {
      hits.emplace_back(a.view_slot, i);
    } else {
      misses.push_back(i);
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<const Pattern*> group;
  std::vector<size_t> group_items;
  for (size_t h = 0; h < hits.size();) {
    const int vi = hits[h].first;
    group.clear();
    group_items.clear();
    for (; h < hits.size() && hits[h].first == vi; ++h) {
      group_items.push_back(hits[h].second);
      group.push_back(&(*answers)[hits[h].second]->rewriting);
    }
    const int64_t t0 = Tracer::Now();
    std::vector<std::vector<NodeId>> outs =
        cache.views()[static_cast<size_t>(vi)].ApplyMany(group);
    tracer_->Add(kApply, t0, Tracer::Now(), static_cast<uint32_t>(group.size()));
    for (size_t k = 0; k < group_items.size(); ++k) {
      (*answers)[group_items[k]]->outputs = std::move(outs[k]);
    }
  }
  for (size_t m = 0; m < misses.size();) {
    group.clear();
    group_items.clear();
    int bits = 0;
    for (; m < misses.size(); ++m) {
      const Pattern* p = queries[misses[m]];
      if (!group.empty() && bits + p->size() > kMaxPackedBits) break;
      bits += p->size();
      group.push_back(p);
      group_items.push_back(misses[m]);
    }
    const int64_t t0 = Tracer::Now();
    MultiEvaluator evaluator(group, trees_[static_cast<size_t>(doc)],
                             &fallback_scratch_);
    for (size_t k = 0; k < group_items.size(); ++k) {
      (*answers)[group_items[k]]->outputs = evaluator.Outputs(k);
    }
    tracer_->Add(kFallback, t0, Tracer::Now(), static_cast<uint32_t>(group.size()));
  }
}

CacheAnswer Replay::Answer(int doc, const std::string& xpath) {
  const Pattern p = Parse(xpath);
  const uint64_t fp = Fingerprint(p);
  CacheAnswer answer;
  if (Lookup(doc, fp, &answer)) return answer;
  // The single-query path summarizes only after a memo miss.
  const int64_t t0 = Tracer::Now();
  const SelectionSummary summary = SummarizeSelection(p);
  tracer_->Add(kIndex, t0, Tracer::Now());
  answer = Decide(doc, p, summary);
  std::vector<CacheAnswer*> one = {&answer};
  Produce(doc, {&p}, &one);
  Insert(doc, fp, answer);
  return answer;
}

std::vector<CacheAnswer> Replay::Batch(const Request& r) {
  // Mirrors the batch planner: every item is parsed and fingerprinted,
  // each distinct query is summarized once for the whole batch, and each
  // document's slice probes the memo once per distinct query.
  struct Plan {
    Pattern pattern;
    uint64_t fp;
    SelectionSummary summary;
  };
  std::vector<Plan> plan;
  std::unordered_map<uint64_t, size_t> plan_by_fp;
  std::vector<size_t> plan_of(r.items.size());
  for (size_t i = 0; i < r.items.size(); ++i) {
    Pattern p = Parse(r.items[i].query.xpath());
    const uint64_t fp = Fingerprint(p);
    auto [it, inserted] = plan_by_fp.try_emplace(fp, plan.size());
    if (inserted) {
      const int64_t t0 = Tracer::Now();
      SelectionSummary summary = SummarizeSelection(p);
      tracer_->Add(kIndex, t0, Tracer::Now());
      plan.push_back({std::move(p), fp, std::move(summary)});
    }
    plan_of[i] = it->second;
  }

  std::vector<int> doc_order;
  std::unordered_map<int, std::vector<size_t>> by_doc;
  for (size_t i = 0; i < r.items.size(); ++i) {
    auto [it, inserted] = by_doc.try_emplace(r.item_doc[i]);
    if (inserted) doc_order.push_back(r.item_doc[i]);
    it->second.push_back(i);
  }
  std::vector<CacheAnswer> answers(r.items.size());
  for (int doc : doc_order) {
    // Distinct plan entries of the slice in first-appearance order; the
    // memo misses among them are decided first, then answered together.
    std::vector<size_t> slice_plan;
    std::unordered_map<size_t, size_t> slice_pos;
    for (size_t i : by_doc[doc]) {
      if (slice_pos.try_emplace(plan_of[i], slice_plan.size()).second) {
        slice_plan.push_back(plan_of[i]);
      }
    }
    std::vector<CacheAnswer> slice(slice_plan.size());
    std::vector<size_t> missed;
    for (size_t k = 0; k < slice_plan.size(); ++k) {
      if (!Lookup(doc, plan[slice_plan[k]].fp, &slice[k])) missed.push_back(k);
    }
    std::vector<const Pattern*> queries;
    std::vector<CacheAnswer*> computed;
    for (size_t k : missed) {
      const Plan& entry = plan[slice_plan[k]];
      slice[k] = Decide(doc, entry.pattern, entry.summary);
      queries.push_back(&entry.pattern);
      computed.push_back(&slice[k]);
    }
    Produce(doc, queries, &computed);
    for (size_t k : missed) Insert(doc, plan[slice_plan[k]].fp, slice[k]);
    for (size_t i : by_doc[doc]) answers[i] = slice[slice_pos[plan_of[i]]];
  }
  return answers;
}

void Replay::Update(int doc, const DocumentDelta& delta) {
  Tree& tree = trees_[static_cast<size_t>(doc)];
  ViewCache& cache = *caches_[static_cast<size_t>(doc)];
  int64_t t0 = Tracer::Now();
  std::string why;
  TreeDeltaReport report;
  if (tree.ValidateDelta(delta, &why)) report = tree.ApplyDelta(delta);
  tracer_->Add(kXml, t0, Tracer::Now());

  t0 = Tracer::Now();
  const ViewUpdateStats stats =
      cache.ApplyUpdate(report, ServiceOptions{}.update_fallback_fraction);
  tracer_->Add(kUpdate, t0, Tracer::Now(), static_cast<uint32_t>(stats.views_untouched));

  // The memo bookkeeping the Service does after an update: a compacting
  // delta drops the document's entries, any other one counts survivors.
  t0 = Tracer::Now();
  const uint64_t scope = static_cast<uint64_t>(doc);
  if (report.compacted) {
    memo_.EraseScope(scope);
  } else if (report.touched_nodes > 0) {
    const uint64_t epoch = cache.epoch();
    const size_t preserved = memo_.CountScope(
        scope, [this, doc, epoch](const AnswerCache::Key& k,
                                  const AnswerCache::Entry& e) {
          return k.epoch == epoch && e.validity == Validity(doc, e.answer);
        });
    tracer_->Add(kMemo, t0, Tracer::Now(), static_cast<uint32_t>(preserved));
    return;
  }
  tracer_->Add(kMemo, t0, Tracer::Now());
}

std::vector<CacheAnswer> Replay::Run(const Request& r, const Corpus& corpus) {
  switch (r.kind) {
    case OpKind::kAnswer:
      return {Answer(r.doc,
                     corpus.pool_query[static_cast<size_t>(r.query)].xpath())};
    case OpKind::kBatch:
      return Batch(r);
    case OpKind::kUpdate:
      Update(r.doc, r.delta);
      return {};
  }
  return {};
}

}  // namespace xpv::e2e
