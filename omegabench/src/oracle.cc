#include "oracle.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "automata/nfa.h"

namespace omegabench {
namespace {

using omega::BoundOntology;
using omega::Direction;
using omega::GraphStore;
using omega::NfaTransition;
using omega::TransitionKind;

/// Neighbour semantics of §3.4, kept deliberately naive: the same rules as
/// the reference matcher of the unit tests, written without the engine's
/// grouping or span borrowing.
std::vector<NodeId> Neighbors(const GraphStore& g, const BoundOntology* onto,
                              bool entailment, NodeId n,
                              const NfaTransition& t) {
  std::vector<NodeId> out;
  auto add = [&out](std::span<const NodeId> ids) {
    out.insert(out.end(), ids.begin(), ids.end());
  };
  switch (t.kind) {
    case TransitionKind::kEpsilon:
      break;
    case TransitionKind::kLabel:
      if (t.label == omega::kInvalidLabel) break;
      if (entailment && onto != nullptr &&
          t.label != omega::LabelDictionary::kTypeLabel) {
        for (omega::LabelId down : onto->LabelDownSet(t.label)) {
          add(g.Neighbors(n, down, t.dir));
        }
      } else if (entailment && onto != nullptr) {
        if (t.dir == Direction::kOutgoing) {
          for (NodeId c : g.TypeNeighbors(n, Direction::kOutgoing)) {
            out.push_back(c);
            for (const auto& [ancestor, steps] : onto->NodeAncestors(c)) {
              out.push_back(ancestor);
            }
          }
        } else {
          const omega::OidSet& down = onto->NodeDownSet(n);
          if (down.empty()) {
            add(g.TypeNeighbors(n, Direction::kIncoming));
          } else {
            for (NodeId c : down) add(g.TypeNeighbors(c, Direction::kIncoming));
          }
        }
      } else {
        add(g.Neighbors(n, t.label, t.dir));
      }
      break;
    case TransitionKind::kAnyLabel:
      add(g.SigmaNeighbors(n, t.dir));
      add(g.TypeNeighbors(n, t.dir));
      break;
    case TransitionKind::kAnyLabelBothDirs:
      add(g.SigmaNeighbors(n, Direction::kOutgoing));
      add(g.SigmaNeighbors(n, Direction::kIncoming));
      add(g.TypeNeighbors(n, Direction::kOutgoing));
      add(g.TypeNeighbors(n, Direction::kIncoming));
      break;
    case TransitionKind::kConstrainedType:
      if (onto != nullptr) {
        for (NodeId c : g.TypeNeighbors(n, Direction::kOutgoing)) {
          if (onto->NodeDownSet(t.class_node).Contains(c)) out.push_back(c);
        }
      }
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct Key {
  NodeId v;
  NodeId n;
  omega::StateId s;
  bool operator==(const Key&) const = default;
};
struct KeyHash {
  size_t operator()(const Key& k) const {
    uint64_t h = (static_cast<uint64_t>(k.v) << 32) ^ k.n;
    h ^= static_cast<uint64_t>(k.s) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

std::string RowText(const QueryAnswer& a) {
  std::string s = "(";
  for (size_t i = 0; i < a.bindings.size(); ++i) {
    s += (i ? "," : "") + std::to_string(a.bindings[i]);
  }
  return s + ")@" + std::to_string(a.distance);
}

bool AnswerLess(const QueryAnswer& a, const QueryAnswer& b) {
  return std::tie(a.distance, a.bindings) < std::tie(b.distance, b.bindings);
}

/// Projects rows (values over `slots` of `vars`) onto the query head,
/// keeping the cheapest distance per head binding, sorted.
void Project(const omega::Query& query, const std::vector<std::string>& vars,
             const std::vector<size_t>& slots,
             const std::vector<std::pair<std::vector<NodeId>, Cost>>& rows,
             std::vector<QueryAnswer>* out) {
  std::vector<size_t> pick;  // index into a row's values, per head variable
  for (const std::string& h : query.head) {
    const size_t slot = static_cast<size_t>(
        std::find(vars.begin(), vars.end(), h) - vars.begin());
    pick.push_back(static_cast<size_t>(
        std::find(slots.begin(), slots.end(), slot) - slots.begin()));
  }
  std::map<std::vector<NodeId>, Cost> projected;
  std::vector<NodeId> head(pick.size());
  for (const auto& [values, d] : rows) {
    for (size_t i = 0; i < pick.size(); ++i) head[i] = values[pick[i]];
    auto [pos, inserted] = projected.try_emplace(head, d);
    if (!inserted && d < pos->second) pos->second = d;
  }
  out->clear();
  out->reserve(projected.size());
  for (const auto& [h, d] : projected) out->push_back({h, d});
  std::sort(out->begin(), out->end(), AnswerLess);
}

}  // namespace

std::vector<RefRow> ReferenceConjunct(const GraphStore& graph,
                                      const BoundOntology* ontology,
                                      const omega::PreparedConjunct& prepared,
                                      Cost max_distance, Cost relax_beta,
                                      std::optional<NodeId> only_source) {
  const omega::Nfa& nfa = prepared.nfa;
  std::unordered_map<Key, Cost, KeyHash> dist;
  // Bucket queue: costs are small non-negative integers.
  std::vector<std::vector<Key>> buckets(static_cast<size_t>(max_distance) + 1);
  auto push = [&](NodeId v, NodeId n, omega::StateId s, Cost d) {
    if (d > max_distance) return;
    const Key key{v, n, s};
    auto [it, inserted] = dist.try_emplace(key, d);
    if (!inserted) {
      if (it->second <= d) return;
      it->second = d;
    }
    buckets[static_cast<size_t>(d)].push_back(key);
  };

  if (!prepared.eval_source.is_variable) {
    const auto c = graph.FindNode(prepared.eval_source.name);
    if (!c) return {};
    push(*c, *c, nfa.initial(), 0);
    if (prepared.mode == omega::ConjunctMode::kRelax && ontology != nullptr) {
      for (const auto& [ancestor, steps] : ontology->NodeAncestors(*c)) {
        push(ancestor, ancestor, nfa.initial(),
             static_cast<Cost>(steps) * relax_beta);
      }
    }
  } else if (only_source) {
    push(*only_source, *only_source, nfa.initial(), 0);
  } else {
    for (NodeId n = 0; n < graph.NumNodes(); ++n) push(n, n, nfa.initial(), 0);
  }

  std::optional<NodeId> target;
  if (!prepared.eval_target.is_variable) {
    target = graph.FindNode(prepared.eval_target.name);
    if (!target) return {};
  }
  const bool entail = nfa.entailment_matching();
  std::unordered_map<uint64_t, Cost> best;
  for (size_t d = 0; d < buckets.size(); ++d) {
    // Index loop: expansions push into the current bucket (zero-cost moves).
    for (size_t i = 0; i < buckets[d].size(); ++i) {
      const Key key = buckets[d][i];
      if (dist[key] != static_cast<Cost>(d)) continue;
      if (nfa.IsFinal(key.s)) {
        const Cost answer_d = static_cast<Cost>(d) + nfa.FinalWeight(key.s);
        if (answer_d <= max_distance && (!target || *target == key.n)) {
          const uint64_t vn = (static_cast<uint64_t>(key.v) << 32) | key.n;
          auto [it, inserted] = best.try_emplace(vn, answer_d);
          if (!inserted && answer_d < it->second) it->second = answer_d;
        }
      }
      for (const NfaTransition& t : nfa.Out(key.s)) {
        for (NodeId m : Neighbors(graph, ontology, entail, key.n, t)) {
          push(key.v, m, t.to, static_cast<Cost>(d) + t.cost);
        }
      }
    }
  }

  std::vector<RefRow> rows;
  rows.reserve(best.size());
  for (const auto& [vn, d] : best) {
    rows.push_back({static_cast<NodeId>(vn >> 32),
                    static_cast<NodeId>(vn & 0xffffffffu), d});
  }
  return rows;
}

const std::vector<RefRow>* QueryOracle::ConjunctRows(
    const omega::Conjunct& conjunct, const omega::PreparedConjunct& prepared,
    Cost max_distance) {
  Memo& memo = memo_[omega::ToString(conjunct)];
  if (memo.bound < max_distance) {
    memo.rows = ReferenceConjunct(*graph_, ontology_, prepared, max_distance,
                                  options_.relax.beta);
    memo.bound = max_distance;
  }
  return &memo.rows;
}

bool QueryOracle::Answers(const omega::Query& query, Cost max_distance,
                          std::vector<QueryAnswer>* out, std::string* error) {
  const std::vector<std::string> vars = query.BodyVariables();
  auto slot_of = [&vars](const std::string& name) {
    return static_cast<size_t>(
        std::find(vars.begin(), vars.end(), name) - vars.begin());
  };

  // Materialise every conjunct as rows over the query's variable slots.
  struct Table {
    std::vector<size_t> slots;  // variable slots this conjunct binds
    std::vector<std::pair<std::vector<NodeId>, Cost>> rows;
  };
  std::vector<Table> tables;
  for (const omega::Conjunct& conjunct : query.conjuncts) {
    auto prepared =
        omega::PrepareConjunct(conjunct, *graph_, ontology_, options_);
    if (!prepared.ok()) {
      *error = prepared.status().ToString();
      return false;
    }
    const omega::PreparedConjunct& p = *prepared;
    Table table;
    const bool src_var = p.eval_source.is_variable;
    const bool dst_var = p.eval_target.is_variable;
    const bool same_var =
        src_var && dst_var && p.eval_source.name == p.eval_target.name;
    if (src_var) table.slots.push_back(slot_of(p.eval_source.name));
    if (dst_var && !same_var) table.slots.push_back(slot_of(p.eval_target.name));
    for (const RefRow& r : *ConjunctRows(conjunct, p, max_distance)) {
      if (same_var && r.v != r.n) continue;
      std::vector<NodeId> values;
      if (src_var) values.push_back(r.v);
      if (dst_var && !same_var) values.push_back(r.n);
      table.rows.emplace_back(std::move(values), r.d);
    }
    tables.push_back(std::move(table));
  }

  if (tables.size() == 1) {
    Project(query, vars, tables[0].slots, tables[0].rows, out);
    return true;
  }

  // Naive join in a connected order (smallest table first), keeping the
  // cheapest distance per full assignment.
  std::vector<bool> used(tables.size(), false);
  std::vector<bool> bound(vars.size(), false);
  std::vector<std::pair<std::vector<NodeId>, Cost>> partial = {
      {std::vector<NodeId>(vars.size(), omega::kInvalidNode), 0}};
  for (size_t step = 0; step < tables.size(); ++step) {
    size_t pick = tables.size();
    bool pick_connected = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (size_t s : tables[i].slots) connected = connected || bound[s];
      if (pick == tables.size() || (connected && !pick_connected) ||
          (connected == pick_connected &&
           tables[i].rows.size() < tables[pick].rows.size())) {
        pick = i;
        pick_connected = connected;
      }
    }
    used[pick] = true;
    const Table& t = tables[pick];
    std::vector<size_t> shared;
    for (size_t i = 0; i < t.slots.size(); ++i) {
      if (bound[t.slots[i]]) shared.push_back(i);
    }
    std::unordered_multimap<uint64_t, size_t> by_key;
    auto key_of = [&shared](auto value_at) {
      uint64_t k = 0;
      for (size_t i : shared) k = k * 0x100000001b3ULL + value_at(i);
      return k;
    };
    for (size_t r = 0; r < t.rows.size(); ++r) {
      by_key.emplace(key_of([&](size_t i) { return t.rows[r].first[i]; }), r);
    }
    std::map<std::vector<NodeId>, Cost> next;
    for (const auto& [assignment, d] : partial) {
      const uint64_t k =
          key_of([&](size_t i) { return assignment[t.slots[i]]; });
      auto [lo, hi] = by_key.equal_range(k);
      for (auto it = lo; it != hi; ++it) {
        const auto& [values, rd] = t.rows[it->second];
        std::vector<NodeId> merged = assignment;
        bool consistent = true;
        for (size_t i = 0; i < t.slots.size(); ++i) {
          NodeId& slot = merged[t.slots[i]];
          if (slot != omega::kInvalidNode && slot != values[i]) {
            consistent = false;
            break;
          }
          slot = values[i];
        }
        if (!consistent || d + rd > max_distance) continue;
        auto [pos, inserted] = next.try_emplace(std::move(merged), d + rd);
        if (!inserted && d + rd < pos->second) pos->second = d + rd;
      }
    }
    partial.assign(next.begin(), next.end());
    for (size_t s : t.slots) bound[s] = true;
  }

  std::vector<size_t> all_slots(vars.size());
  for (size_t i = 0; i < all_slots.size(); ++i) all_slots[i] = i;
  Project(query, vars, all_slots, partial, out);
  return true;
}

bool QueryOracle::AnswersFrom(const omega::Query& query,
                              const std::vector<NodeId>& sources,
                              Cost max_distance, std::vector<QueryAnswer>* out,
                              std::string* error) {
  auto prepared = omega::PrepareConjunct(query.conjuncts.at(0), *graph_,
                                         ontology_, options_);
  if (!prepared.ok()) {
    *error = prepared.status().ToString();
    return false;
  }
  const omega::PreparedConjunct& p = *prepared;
  if (query.conjuncts.size() != 1 || !p.eval_source.is_variable) {
    *error = "AnswersFrom needs one conjunct with a variable source";
    return false;
  }
  const std::vector<std::string> vars = query.BodyVariables();
  std::vector<size_t> slots;
  for (const omega::Endpoint* e : {&p.eval_source, &p.eval_target}) {
    if (!e->is_variable) continue;
    const size_t slot = static_cast<size_t>(
        std::find(vars.begin(), vars.end(), e->name) - vars.begin());
    if (slots.empty() || slots[0] != slot) slots.push_back(slot);
  }
  std::vector<std::pair<std::vector<NodeId>, Cost>> rows;
  for (NodeId source : sources) {
    if (source >= graph_->NumNodes()) continue;  // no such node: no answers
    for (const RefRow& r : ReferenceConjunct(*graph_, ontology_, p,
                                             max_distance, options_.relax.beta,
                                             source)) {
      if (slots.size() == 1) {
        if (r.v == r.n) rows.push_back({{r.v}, r.d});
      } else {
        rows.push_back({{r.v, r.n}, r.d});
      }
    }
  }
  Project(query, vars, slots, rows, out);
  return true;
}

Cost ReferenceBound(const std::vector<QueryAnswer>& got, size_t k) {
  const Cost last = got.empty() ? 0 : got.back().distance;
  const bool exhausted = k == 0 || got.size() < k;
  return exhausted ? last + 1 : last;
}

std::string CheckTopK(const std::vector<QueryAnswer>& got, size_t k,
                      const std::vector<QueryAnswer>& reference) {
  const bool exhausted = k == 0 || got.size() < k;
  const Cost bound = ReferenceBound(got, k);
  // Answers that must match exactly: all when exhausted, else those below
  // the k-th answer's distance; the rest of `got` must be a subset.
  const Cost exact_below = exhausted ? bound + 1 : bound;
  std::vector<QueryAnswer> mine = got;
  std::sort(mine.begin(), mine.end(), AnswerLess);
  std::vector<QueryAnswer> want_exact, got_exact, got_tie;
  for (const QueryAnswer& a : reference) {
    if (a.distance < exact_below) want_exact.push_back(a);
  }
  for (const QueryAnswer& a : mine) {
    (a.distance < exact_below ? got_exact : got_tie).push_back(a);
  }
  if (got_exact != want_exact) {
    std::vector<QueryAnswer> missing, extra;
    std::set_difference(want_exact.begin(), want_exact.end(),
                        got_exact.begin(), got_exact.end(),
                        std::back_inserter(missing), AnswerLess);
    std::set_difference(got_exact.begin(), got_exact.end(),
                        want_exact.begin(), want_exact.end(),
                        std::back_inserter(extra), AnswerLess);
    return "answers below distance " + std::to_string(exact_below) +
           " differ from the reference: " + std::to_string(missing.size()) +
           " missing" + (missing.empty() ? "" : " e.g. " + RowText(missing[0])) +
           ", " + std::to_string(extra.size()) + " unexpected" +
           (extra.empty() ? "" : " e.g. " + RowText(extra[0]));
  }
  for (const QueryAnswer& a : got_tie) {
    if (!std::binary_search(reference.begin(), reference.end(), a,
                            AnswerLess)) {
      return "answer " + RowText(a) + " at the k-th distance is not in the "
             "reference";
    }
  }
  return "";
}

bool AnswersLess::operator()(const std::vector<QueryAnswer>& a,
                             const std::vector<QueryAnswer>& b) const {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      AnswerLess);
}

std::string CheckRanked(const std::vector<QueryAnswer>& got) {
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i].distance < got[i - 1].distance) {
      return "distance decreased at answer " + std::to_string(i);
    }
    std::string key(reinterpret_cast<const char*>(got[i].bindings.data()),
                    got[i].bindings.size() * sizeof(NodeId));
    if (!seen.insert(std::move(key)).second) {
      return "head binding repeated at answer " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace omegabench
