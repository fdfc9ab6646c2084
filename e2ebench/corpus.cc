#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "pattern/serializer.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xpv::e2e {

namespace {

// Every document is rooted at the same element and every query is
// anchored there, as queries over one schema are; with random roots most
// queries would select nothing and cost nothing.
LabelId RootLabel() { return GenLabel(0); }

LabelId DrawLabel(Rng& rng) {
  if (rng.Chance(0.2)) return LabelStore::kWildcard;
  return GenLabel(rng.IntIn(0, kAlphabet - 1));
}

EdgeType DrawEdge(Rng& rng) {
  return rng.Chance(0.35) ? EdgeType::kDescendant : EdgeType::kChild;
}

// Containment tests enumerate canonical models: about (w + 2)^d of them
// for a query with d descendant edges whose longest chain of child-linked
// wildcards has w nodes. The pool is fixed by kCorpusSeed, so its costly
// queries, and the fresh queries derived from them, are the same share of
// every run's traffic. The edits of a fresh query are drawn at random,
// though, and unbounded they would now and then multiply a query's model
// count and let one query decide a run's throughput; so an edit may not
// raise the bound above the larger of its base's and 81 (e.g. d = 4, w = 1).
constexpr double kMaxModels = 81;

double ModelBound(const Pattern& p) {
  int descendant = 0;
  int chain = 0;
  std::vector<int> wild(static_cast<size_t>(p.size()), 0);
  for (NodeId v = 0; v < p.size(); ++v) {
    if (v > 0 && p.edge(v) == EdgeType::kDescendant) ++descendant;
    if (p.label(v) != LabelStore::kWildcard) continue;
    const bool linked = v > 0 && p.edge(v) == EdgeType::kChild;
    wild[static_cast<size_t>(v)] =
        1 + (linked ? wild[static_cast<size_t>(p.parent(v))] : 0);
    chain = std::max(chain, wild[static_cast<size_t>(v)]);
  }
  return std::pow(chain + 2, descendant);
}

}  // namespace

Corpus BuildCorpus(uint64_t seed) {
  Corpus c;
  Rng rng(seed);

  PatternGenOptions qopt;
  qopt.min_depth = 2;
  qopt.max_depth = 5;
  qopt.max_branches = 2;
  qopt.max_branch_size = 2;
  qopt.alphabet_size = kAlphabet;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(c.pool.size()) < kPoolSize) {
    Pattern p = RandomPattern(rng, qopt);
    p.set_label(p.root(), RootLabel());
    if (!seen.insert(p.CanonicalFingerprint()).second) continue;
    c.pool_query.emplace_back(ToXPath(p));
    c.pool.push_back(std::move(p));
  }

  for (int d = 0; d < kDocs; ++d) {
    TreeGenOptions topt;
    topt.max_nodes = rng.IntIn(3000, 5500);
    topt.max_depth = 10;
    topt.max_fanout = 5;
    topt.alphabet_size = kAlphabet;
    Tree doc = DocumentWithMatches(
        rng, c.pool[static_cast<size_t>(d % kPopular)], topt, 24);
    doc.set_label(doc.root(), RootLabel());
    c.doc_xml.push_back(WriteXml(doc));
    // The Service numbers nodes in document order as it parses; the
    // shadow copies and the reference checks must use the same ids.
    c.docs.push_back(ParseXml(c.doc_xml.back()).take());

    // Eight distinct popular queries per document, each cached as a
    // prefix view of depth >= 1 (a depth-0 prefix is the whole document).
    std::vector<int> popular(kPopular);
    std::iota(popular.begin(), popular.end(), 0);
    std::vector<ViewSpec> views;
    for (int v = 0; v < kViewsPerDoc; ++v) {
      const size_t pick = static_cast<size_t>(v) +
                          rng.Below(static_cast<uint64_t>(kPopular - v));
      std::swap(popular[static_cast<size_t>(v)], popular[pick]);
      const int q = popular[static_cast<size_t>(v)];
      Pattern view = Pattern::Empty();
      int k = 0;
      for (int attempt = 0; attempt < 16 && k == 0; ++attempt) {
        view = PrefixView(rng, c.pool[static_cast<size_t>(q)], &k);
      }
      std::string name = "v";
      name += std::to_string(q);
      views.push_back({std::move(name), ToXPath(view)});
    }
    c.views.push_back(std::move(views));
  }
  return c;
}

ZipfSampler::ZipfSampler(int n, double s) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& x : cdf_) x /= total;
}

int ZipfSampler::Sample(Rng& rng) const {
  const double u =
      static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

Pattern FreshQuery(Rng& rng, const Pattern& base) {
  const double max_models = std::max(kMaxModels, ModelBound(base));
  for (;;) {
    Pattern p = base;
    for (int edit = 0; edit < 2; ++edit) {
      if (rng.Chance(0.5)) {
        NodeId at =
            static_cast<NodeId>(rng.Below(static_cast<uint64_t>(p.size())));
        const int len = rng.IntIn(1, 2);
        for (int i = 0; i < len; ++i) {
          at = p.AddChild(at, DrawLabel(rng), DrawEdge(rng));
        }
      } else {
        p.set_output(p.AddChild(p.output(), DrawLabel(rng), DrawEdge(rng)));
      }
    }
    if (ModelBound(p) <= max_models) return p;
  }
}

DocumentDelta BoundedDelta(Rng& rng, const Tree& doc, int target_size) {
  const bool grow = doc.size() < target_size;
  DeltaGenOptions opt;
  opt.max_ops = 2;
  opt.insert_prob = grow ? 0.45 : 0.30;
  opt.delete_prob = grow ? 0.17 : 0.32;
  opt.alphabet_size = kAlphabet;
  constexpr size_t kMaxDeleted = 32;
  for (;;) {
    DocumentDelta delta = RandomDelta(rng, doc, opt);
    bool bounded = true;
    for (const DeltaOp& op : delta.ops) {
      if (op.kind == DeltaOp::Kind::kDeleteSubtree && op.node < doc.size() &&
          doc.SubtreeNodes(op.node).size() > kMaxDeleted) {
        bounded = false;
      }
    }
    if (bounded) return delta;
  }
}

}  // namespace xpv::e2e
