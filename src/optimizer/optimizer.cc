#include "optimizer/optimizer.h"

#include "obs/span.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace scrpqo {

namespace {

using TableSet = uint32_t;

inline bool IsSingleton(TableSet s) { return s != 0 && (s & (s - 1)) == 0; }
inline int SingletonIndex(TableSet s) {
  int i = 0;
  while ((s & 1u) == 0) {
    s >>= 1;
    ++i;
  }
  return i;
}

/// Per-optimization search context: one per Optimize call, holding the memo.
class SearchContext {
 public:
  SearchContext(const Database& db, const OptimizerOptions& options,
                const CostModel& cost_model, const QueryInstance& instance,
                const SVector& sv)
      : db_(db),
        options_(options),
        cost_model_(cost_model),
        tmpl_(instance.query_template()),
        instance_(instance),
        sv_(sv) {
    BuildLeafInfos();
    BuildEdges();
  }

  OptimizationResult Run() {
    int n = tmpl_.num_tables();
    TableSet full = static_cast<TableSet>((1u << n) - 1);
    const Winner& w = BestPlan(full, std::nullopt);
    SCRPQO_CHECK(w.plan != nullptr, "optimizer failed to find a plan");

    PlanPtr root = w.plan;
    double cost = w.cost;
    if (tmpl_.aggregate().enabled) {
      auto agg = BuildAggregate(full);
      root = agg.plan;
      cost = agg.cost;
    }

    OptimizationResult result;
    result.plan = root;
    result.cost = cost;
    result.svector = sv_;
    result.stats = stats_;
    result.stats.num_groups = static_cast<int>(groups_.size());
    result.stats.plan_nodes = root->NodeCount();
    return result;
  }

 private:
  struct Winner {
    PlanPtr plan;
    double cost = std::numeric_limits<double>::infinity();
  };

  using PropKey = std::optional<SortKey>;

  struct Group {
    double card = 0.0;
    bool card_done = false;
    std::map<PropKey, Winner> winners;
  };

  void BuildLeafInfos() {
    int n = tmpl_.num_tables();
    leaf_infos_.resize(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      LeafInfo& li = leaf_infos_[static_cast<size_t>(t)];
      li.table_index = t;
      li.table = tmpl_.tables()[static_cast<size_t>(t)];
      const TableDef& def = db_.catalog().GetTable(li.table);
      li.base_rows = static_cast<double>(def.row_count);
      for (int pi : tmpl_.PredicatesOnTable(t)) {
        const PredicateTemplate& p =
            tmpl_.predicates()[static_cast<size_t>(pi)];
        PredSpec spec;
        spec.column = p.column;
        spec.op = p.op;
        spec.param_slot = p.param_slot;
        if (!p.parameterized()) {
          spec.literal = p.literal;
          const ColumnStats& stats =
              db_.catalog().GetColumnStats(li.table, p.column);
          spec.literal_sel = stats.Selectivity(p.op, p.literal);
        }
        li.preds.push_back(std::move(spec));
      }
    }
  }

  void BuildEdges() {
    for (const auto& e : tmpl_.joins()) {
      EdgeInfo info;
      info.edge = e;
      const std::string& lt =
          tmpl_.tables()[static_cast<size_t>(e.left_table)];
      const std::string& rt =
          tmpl_.tables()[static_cast<size_t>(e.right_table)];
      double dl = static_cast<double>(std::max<int64_t>(
          db_.catalog().GetColumnStats(lt, e.left_column).distinct_count, 1));
      double dr = static_cast<double>(std::max<int64_t>(
          db_.catalog().GetColumnStats(rt, e.right_column).distinct_count,
          1));
      info.sel = 1.0 / std::max(dl, dr);
      info.left_distinct = dl;
      info.right_distinct = dr;
      edges_.push_back(info);
    }
  }

  double GroupCard(TableSet s) {
    Group& g = groups_[s];
    if (g.card_done) return g.card;
    double card = 1.0;
    for (int t = 0; t < tmpl_.num_tables(); ++t) {
      if ((s >> t) & 1u) {
        const LeafInfo& li = leaf_infos_[static_cast<size_t>(t)];
        card *= li.base_rows * cost_model_.LeafSelectivity(li, sv_);
      }
    }
    for (const auto& e : edges_) {
      if (EdgeInside(e, s)) card *= e.sel;
    }
    g.card = card;
    g.card_done = true;
    return card;
  }

  struct EdgeInfo {
    JoinEdge edge;
    double sel = 1.0;
    double left_distinct = 1.0;
    double right_distinct = 1.0;
  };

  static bool EdgeInside(const EdgeInfo& e, TableSet s) {
    return ((s >> e.edge.left_table) & 1u) && ((s >> e.edge.right_table) & 1u);
  }

  /// Edges with one endpoint in `a` and the other in `b`, normalized so the
  /// left side of the returned edge is in `a`.
  std::vector<EdgeInfo> ConnectingEdges(TableSet a, TableSet b) const {
    std::vector<EdgeInfo> out;
    for (const auto& e : edges_) {
      bool l_in_a = (a >> e.edge.left_table) & 1u;
      bool r_in_a = (a >> e.edge.right_table) & 1u;
      bool l_in_b = (b >> e.edge.left_table) & 1u;
      bool r_in_b = (b >> e.edge.right_table) & 1u;
      if (l_in_a && r_in_b) {
        out.push_back(e);
      } else if (r_in_a && l_in_b) {
        EdgeInfo flipped = e;
        std::swap(flipped.edge.left_table, flipped.edge.right_table);
        std::swap(flipped.edge.left_column, flipped.edge.right_column);
        std::swap(flipped.left_distinct, flipped.right_distinct);
        out.push_back(flipped);
      }
    }
    return out;
  }

  bool IsConnected(TableSet s) const {
    if (s == 0) return false;
    TableSet reached = s & static_cast<TableSet>(-static_cast<int32_t>(s));
    // BFS over join edges restricted to s.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& e : edges_) {
        TableSet l = 1u << e.edge.left_table;
        TableSet r = 1u << e.edge.right_table;
        if ((l & s) && (r & s)) {
          if ((reached & l) && !(reached & r)) {
            reached |= r;
            changed = true;
          } else if ((reached & r) && !(reached & l)) {
            reached |= l;
            changed = true;
          }
        }
      }
    }
    return reached == s;
  }

  /// Whether `order` (if set) is satisfied by a plan whose output order is
  /// `actual`.
  static bool Satisfies(const std::optional<SortKey>& actual,
                        const PropKey& required) {
    if (!required.has_value()) return true;
    return actual.has_value() && *actual == *required;
  }

  std::shared_ptr<PhysicalPlanNode> MakeNode(PhysicalOpKind kind) {
    auto node = std::make_shared<PhysicalPlanNode>();
    node->kind = kind;
    return node;
  }

  /// Derives costs for the candidate and keeps it if it beats the incumbent
  /// for `req` (adding a Sort enforcer when the natural order is wrong).
  void Offer(Group* group, const PropKey& req,
             std::shared_ptr<PhysicalPlanNode> node) {
    ++stats_.num_physical_exprs;
    cost_model_.DeriveNode(node.get(), sv_);
    std::shared_ptr<PhysicalPlanNode> candidate = node;
    if (!Satisfies(node->output_order, req)) {
      auto sort = MakeNode(PhysicalOpKind::kSort);
      sort->sort_key = *req;
      sort->output_order = *req;
      sort->children.push_back(node);
      cost_model_.DeriveNode(sort.get(), sv_);
      candidate = sort;
      ++stats_.num_physical_exprs;
    }
    Winner& w = group->winners[req];
    if (candidate->est_cost < w.cost) {
      w.cost = candidate->est_cost;
      w.plan = candidate;
    }
  }

  /// The set of sort keys that can matter for `s`: join columns of edges
  /// leaving `s` plus the aggregate's group column — "interesting orders".
  std::vector<PropKey> InterestingOrders(TableSet s) const {
    std::vector<PropKey> keys;
    keys.emplace_back(std::nullopt);
    auto add = [&keys](const SortKey& k) {
      for (const auto& existing : keys) {
        if (existing.has_value() && *existing == k) return;
      }
      keys.emplace_back(k);
    };
    for (const auto& e : edges_) {
      if ((s >> e.edge.left_table) & 1u) {
        add(SortKey{e.edge.left_table, e.edge.left_column});
      }
      if ((s >> e.edge.right_table) & 1u) {
        add(SortKey{e.edge.right_table, e.edge.right_column});
      }
    }
    const AggregateSpec& agg = tmpl_.aggregate();
    if (agg.enabled && ((s >> agg.group_table) & 1u)) {
      add(SortKey{agg.group_table, agg.group_column});
    }
    return keys;
  }

  const Winner& BestPlan(TableSet s, const PropKey& req) {
    Group& g = groups_[s];
    auto it = g.winners.find(req);
    if (it != g.winners.end() && it->second.plan != nullptr) {
      return it->second;
    }
    g.winners[req];  // reserve the slot (also breaks accidental cycles)
    if (IsSingleton(s)) {
      ExploreLeaf(s, req);
    } else {
      ExploreJoins(s, req);
    }
    Winner& w = groups_[s].winners[req];
    SCRPQO_CHECK(w.plan != nullptr, "group has no feasible plan");
    return w;
  }

  void ExploreLeaf(TableSet s, const PropKey& req) {
    Group& g = groups_[s];
    int t = SingletonIndex(s);
    const LeafInfo& li = leaf_infos_[static_cast<size_t>(t)];
    const TableDef& def = db_.catalog().GetTable(li.table);
    ++stats_.num_logical_exprs;

    // Alternative 1: full table scan (heap order).
    {
      auto scan = MakeNode(PhysicalOpKind::kTableScan);
      scan->leaf = li;
      Offer(&g, req, scan);
    }

    // Alternative 2: index seek per (index, sargable predicate) pair.
    if (options_.enable_index_seek) {
      for (const auto& idx : def.indexes) {
        for (size_t pi = 0; pi < li.preds.size(); ++pi) {
          if (li.preds[pi].column != idx.column) continue;
          auto seek = MakeNode(PhysicalOpKind::kIndexSeek);
          seek->leaf = li;
          seek->leaf.index_column = idx.column;
          seek->leaf.seek_pred = static_cast<int>(pi);
          seek->output_order = SortKey{t, idx.column};
          Offer(&g, req, seek);
        }
        // Alternative 3: ordered full index scan (delivers order without a
        // predicate; occasionally wins when an order is required).
        auto iscan = MakeNode(PhysicalOpKind::kIndexScanOrdered);
        iscan->leaf = li;
        iscan->leaf.index_column = idx.column;
        iscan->output_order = SortKey{t, idx.column};
        Offer(&g, req, iscan);
      }
    }
  }

  void ExploreJoins(TableSet s, const PropKey& req) {
    Group& g = groups_[s];
    // Enumerate proper subsets; both (sub, rest) and (rest, sub) appear in
    // the iteration, covering both operand orders.
    for (TableSet sub = (s - 1) & s; sub != 0; sub = (sub - 1) & s) {
      TableSet rest = s & ~sub;
      if (!IsConnected(sub) || !IsConnected(rest)) continue;
      std::vector<EdgeInfo> conn = ConnectingEdges(sub, rest);
      if (conn.empty()) continue;  // no cross products
      ++stats_.num_logical_exprs;

      double join_sel = 1.0;
      std::vector<JoinEdge> edge_list;
      for (const auto& e : conn) {
        join_sel *= e.sel;
        edge_list.push_back(e.edge);
      }

      // Hash join: probe = sub side, build = rest side.
      {
        const Winner& probe = BestPlan(sub, std::nullopt);
        const Winner& build = BestPlan(rest, std::nullopt);
        auto hj = MakeNode(PhysicalOpKind::kHashJoin);
        hj->children = {probe.plan, build.plan};
        hj->join.edges = edge_list;
        hj->join.join_sel = join_sel;
        Offer(&g, req, hj);
      }

      // Merge join on each connecting edge.
      if (options_.enable_merge_join) {
        for (const auto& e : conn) {
          SortKey lk{e.edge.left_table, e.edge.left_column};
          SortKey rk{e.edge.right_table, e.edge.right_column};
          const Winner& lw = BestPlan(sub, lk);
          const Winner& rw = BestPlan(rest, rk);
          auto mj = MakeNode(PhysicalOpKind::kMergeJoin);
          mj->children = {lw.plan, rw.plan};
          mj->join.edges = edge_list;
          // Put the merge edge first.
          for (size_t i = 0; i < mj->join.edges.size(); ++i) {
            if (mj->join.edges[i].left_table == e.edge.left_table &&
                mj->join.edges[i].left_column == e.edge.left_column &&
                mj->join.edges[i].right_table == e.edge.right_table &&
                mj->join.edges[i].right_column == e.edge.right_column) {
              std::swap(mj->join.edges[0], mj->join.edges[i]);
              break;
            }
          }
          mj->join.join_sel = join_sel;
          mj->output_order = lk;
          Offer(&g, req, mj);
        }
      }

      // Nested-loops joins preserve outer order, so the required order can
      // be pushed to the outer child — but only when the order's table
      // actually lives in the outer subtree; otherwise the enforcer must go
      // above the join (Offer adds it).
      PropKey outer_req = std::nullopt;
      if (req.has_value() && ((sub >> req->table) & 1u)) outer_req = req;

      // Indexed nested loops: inner must be a single table with an index on
      // its side of some connecting edge.
      if (options_.enable_indexed_nlj && IsSingleton(rest)) {
        int t = SingletonIndex(rest);
        const LeafInfo& inner_li = leaf_infos_[static_cast<size_t>(t)];
        const TableDef& def = db_.catalog().GetTable(inner_li.table);
        for (const auto& e : conn) {
          SCRPQO_CHECK(e.edge.right_table == t,
                       "connecting edge not normalized");
          if (def.FindIndexOn(e.edge.right_column) == nullptr) continue;
          const Winner& outer = BestPlan(sub, outer_req);
          auto inner = MakeNode(PhysicalOpKind::kIndexSeek);
          inner->leaf = inner_li;
          inner->leaf.index_column = e.edge.right_column;
          inner->leaf.seek_pred = -1;  // seek key comes from the join
          cost_model_.DeriveNode(inner.get(), sv_);
          auto nlj = MakeNode(PhysicalOpKind::kIndexedNestedLoopsJoin);
          nlj->children = {outer.plan, inner};
          nlj->join.edges = edge_list;
          // Put the seek edge first.
          for (size_t i = 0; i < nlj->join.edges.size(); ++i) {
            if (nlj->join.edges[i].right_column == e.edge.right_column &&
                nlj->join.edges[i].right_table == t) {
              std::swap(nlj->join.edges[0], nlj->join.edges[i]);
              break;
            }
          }
          nlj->join.join_sel = join_sel;
          nlj->join.per_probe_sel = 1.0 / std::max(e.right_distinct, 1.0);
          nlj->output_order = outer.plan->output_order;
          Offer(&g, req, nlj);
        }
      }

      // Naive nested loops (inner subplan re-evaluated per outer row).
      // Almost always dominated, but part of the space.
      if (options_.enable_naive_nlj) {
        const Winner& outer = BestPlan(sub, outer_req);
        const Winner& inner = BestPlan(rest, std::nullopt);
        auto nlj = MakeNode(PhysicalOpKind::kNaiveNestedLoopsJoin);
        nlj->children = {outer.plan, inner.plan};
        nlj->join.edges = edge_list;
        nlj->join.join_sel = join_sel;
        nlj->output_order = outer.plan->output_order;
        Offer(&g, req, nlj);
      }
    }
  }

  Winner BuildAggregate(TableSet full) {
    const AggregateSpec& spec = tmpl_.aggregate();
    const std::string& table =
        tmpl_.tables()[static_cast<size_t>(spec.group_table)];
    const ColumnStats& stats =
        db_.catalog().GetColumnStats(table, spec.group_column);
    AggInfo info;
    info.group_table = spec.group_table;
    info.group_column = spec.group_column;
    info.group_distinct =
        static_cast<double>(std::max<int64_t>(stats.distinct_count, 1));

    Winner best;
    {
      const Winner& child = BestPlan(full, std::nullopt);
      auto ha = MakeNode(PhysicalOpKind::kHashAggregate);
      ha->children = {child.plan};
      ha->agg = info;
      cost_model_.DeriveNode(ha.get(), sv_);
      ++stats_.num_physical_exprs;
      if (ha->est_cost < best.cost) {
        best = {ha, ha->est_cost};
      }
    }
    {
      SortKey key{spec.group_table, spec.group_column};
      const Winner& child = BestPlan(full, key);
      auto sa = MakeNode(PhysicalOpKind::kStreamAggregate);
      sa->children = {child.plan};
      sa->agg = info;
      sa->output_order = key;
      cost_model_.DeriveNode(sa.get(), sv_);
      ++stats_.num_physical_exprs;
      if (sa->est_cost < best.cost) {
        best = {sa, sa->est_cost};
      }
    }
    return best;
  }

  const Database& db_;
  const OptimizerOptions& options_;
  const CostModel& cost_model_;
  const QueryTemplate& tmpl_;
  const QueryInstance& instance_;
  const SVector& sv_;

  std::vector<LeafInfo> leaf_infos_;
  std::vector<EdgeInfo> edges_;
  std::map<TableSet, Group> groups_;
  MemoStats stats_;
};

}  // namespace

OptimizationResult Optimizer::Optimize(const QueryInstance& instance) const {
  // Attributed to the ambient getPlan span (if one is open): serve-time
  // callers reach this overload when no precomputed sVector exists, and
  // the selectivity derivation is real per-query work worth seeing in
  // the stage breakdown.
  StageTimer svector_timer(Stage::kSVector, nullptr);
  SVector sv = ComputeSelectivityVector(*db_, instance);
  svector_timer.Stop();
  return OptimizeWithSVector(instance, sv);
}

OptimizationResult Optimizer::OptimizeWithSVector(
    const QueryInstance& instance, const SVector& sv) const {
  const QueryTemplate& tmpl = instance.query_template();
  SCRPQO_CHECK(tmpl.num_tables() >= 1, "query must reference a table");
  SCRPQO_CHECK(tmpl.num_tables() <= kMaxPlanTables,
               "too many tables for bitset memo");
  SCRPQO_CHECK(tmpl.IsJoinGraphConnected(),
               "join graph must be connected (no cross products)");
  SearchContext ctx(*db_, options_, cost_model_, instance, sv);
  return ctx.Run();
}

}  // namespace scrpqo
