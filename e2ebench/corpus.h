#ifndef XPV_E2EBENCH_CORPUS_H_
#define XPV_E2EBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.h"
#include "pattern/pattern.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "xml/tree.h"

namespace xpv::e2e {

/// Sizes of the seeded corpus every workload shares.
inline constexpr int kDocs = 16;
inline constexpr int kPoolSize = 256;
inline constexpr int kPopular = 32;  // Views are prefixes of these.
inline constexpr int kViewsPerDoc = 8;
inline constexpr int kAlphabet = 6;
inline constexpr double kZipfS = 1.1;

struct ViewSpec {
  std::string name;
  std::string xpath;
};

/// The dataset every run serves: the query pool in popularity order
/// (pool[0] is the most requested), the documents as trees and as the XML
/// the Service ingests, and each document's view definitions. It is built
/// from `kCorpusSeed`, not from `--seed`: a run's cost depends strongly on
/// which 256 queries and 16 documents it serves (across corpus seeds the
/// throughput of one workload differs by up to 2x), which would drown any
/// change worth measuring. `--seed` draws the request streams instead.
struct Corpus {
  std::vector<Pattern> pool;
  std::vector<Query> pool_query;  // XPath of each; prebuilt so Answer copies nothing.
  std::vector<Tree> docs;
  std::vector<std::string> doc_xml;
  std::vector<std::vector<ViewSpec>> views;  // Per document.
};

inline constexpr uint64_t kCorpusSeed = 1;

Corpus BuildCorpus(uint64_t seed);

/// Zipf(s) popularity over ranks [0, n): rank r is drawn with weight
/// 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  int Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A query never seen before with high probability: `base` plus two
/// random edits, each either a predicate chain of one or two nodes hung on
/// a random node, or one more step below the output node. The edits keep
/// its canonical-model bound within the larger of the base's and a small
/// cap (see corpus.cc).
Pattern FreshQuery(Rng& rng, const Pattern& base);

/// `RandomDelta` with the mixed read-write settings (at most 2 ops),
/// redrawn until no delete removes more than a few dozen nodes: one delete
/// near the root would otherwise shrink the document for the rest of the
/// run. Inserts are favoured while `doc` is smaller than `target_size` and
/// deletes while it is larger, so documents stay near their generated
/// size and a run's cost does not drift with how many updates it made.
DocumentDelta BoundedDelta(Rng& rng, const Tree& doc, int target_size);

}  // namespace xpv::e2e

#endif  // XPV_E2EBENCH_CORPUS_H_
