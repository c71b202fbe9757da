// The benchmark's independent reference for query answers. It shares only
// parsing and automaton construction (PrepareConjunct) with the program:
// each conjunct is evaluated by a plain Dijkstra over the product of graph
// and automaton (no tuple dictionary, batching, visited set, index or
// planner), the per-conjunct answers are materialised and joined naively,
// distances summed, the head projected and the minimum kept.
#ifndef OMEGABENCH_ORACLE_H_
#define OMEGABENCH_ORACLE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/conjunct_evaluator.h"
#include "eval/query_engine.h"
#include "rpq/query.h"

namespace omegabench {

using omega::Cost;
using omega::NodeId;
using omega::QueryAnswer;

/// One answer of one conjunct: v binds eval_source, n binds eval_target.
struct RefRow {
  NodeId v;
  NodeId n;
  Cost d;
};

/// Every answer of `prepared` with distance <= `max_distance`. With
/// `only_source`, a variable source is seeded with that node alone: the
/// answers whose source binding is that node.
std::vector<RefRow> ReferenceConjunct(
    const omega::GraphStore& graph, const omega::BoundOntology* ontology,
    const omega::PreparedConjunct& prepared, Cost max_distance,
    Cost relax_beta, std::optional<NodeId> only_source = std::nullopt);

/// Reference answers of whole queries over one dataset, with the
/// per-conjunct materialisations memoised across queries.
class QueryOracle {
 public:
  QueryOracle(const omega::GraphStore* graph,
              const omega::BoundOntology* ontology,
              omega::EvaluatorOptions options)
      : graph_(graph), ontology_(ontology), options_(std::move(options)) {}

  /// Every answer of `query` with distance <= `max_distance`, sorted by
  /// (distance, bindings). False (with `error`) when a conjunct does not
  /// compile.
  bool Answers(const omega::Query& query, Cost max_distance,
               std::vector<QueryAnswer>* out, std::string* error);

  /// For a one-conjunct query whose source is a variable: the answers
  /// whose source binding is one of `sources` — enough to check that each
  /// answer of a top-k result is a true answer at its distance, without
  /// evaluating from every node.
  bool AnswersFrom(const omega::Query& query,
                   const std::vector<NodeId>& sources, Cost max_distance,
                   std::vector<QueryAnswer>* out, std::string* error);

 private:
  struct Memo {
    Cost bound = -1;
    std::vector<RefRow> rows;
  };
  const std::vector<RefRow>* ConjunctRows(const omega::Conjunct& conjunct,
                                          const omega::PreparedConjunct& p,
                                          Cost max_distance);

  const omega::GraphStore* graph_;
  const omega::BoundOntology* ontology_;
  omega::EvaluatorOptions options_;
  std::map<std::string, Memo> memo_;
};

/// Checks a ranked top-k result against the reference: answers below the
/// k-th answer's distance must match exactly, answers at that distance must
/// be a subset, and an exhausted result (fewer than k) must match the whole
/// reference up to one past its last distance. `reference` must hold every
/// answer up to ReferenceBound(got, k). Empty string when it passes.
std::string CheckTopK(const std::vector<QueryAnswer>& got, size_t k,
                      const std::vector<QueryAnswer>& reference);

/// The distance bound CheckTopK needs the reference computed to.
Cost ReferenceBound(const std::vector<QueryAnswer>& got, size_t k);

/// Corrupts one answer so no reference can contain it: its first binding
/// becomes the bitwise complement of a node id, far past any graph's node
/// count. (Moving it to a neighbouring id could land on another true answer
/// tied at the same distance.)
inline void CorruptAnswer(QueryAnswer* answer) {
  answer->bindings[0] = ~answer->bindings[0];
}

/// Orders whole responses, for sets of distinct responses.
struct AnswersLess {
  bool operator()(const std::vector<QueryAnswer>& a,
                  const std::vector<QueryAnswer>& b) const;
};

/// Per-response properties: distances never decrease and no head binding
/// repeats. Empty string when they hold.
std::string CheckRanked(const std::vector<QueryAnswer>& got);

}  // namespace omegabench

#endif  // OMEGABENCH_ORACLE_H_
