#include "engine/exec/planner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/exec/bytecode.h"
#include "engine/exec/columnar_scan_node.h"
#include "engine/exec/cross_join_node.h"
#include "engine/exec/filter_node.h"
#include "engine/exec/gather_node.h"
#include "engine/exec/hash_aggregate_node.h"
#include "engine/exec/limit_node.h"
#include "engine/exec/project_node.h"
#include "engine/exec/scan_node.h"
#include "engine/exec/sort_node.h"
#include "engine/exec/vector_filter_node.h"
#include "engine/exec/vector_hash_aggregate_node.h"
#include "engine/exec/vector_project_node.h"
#include "engine/exec/view_registry.h"
#include "engine/expr.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::PartitionedTable;
using storage::Row;
using storage::Schema;

/// FROM-clause resolution: the first table drives the parallel scan;
/// the remaining (small model) tables are materialized for the cross
/// product.
struct FromInputs {
  PartitionedTable* driver = nullptr;
  std::vector<std::vector<Row>> small_tables;
  std::vector<const Schema*> small_schemas;
  std::vector<std::string> small_aliases;
  BindingScope scope;
  BoundExprPtr residual_where;  // WHERE after pushdown (may be null)

  std::vector<std::vector<std::string>> pushed_texts;  // per small table
  std::vector<std::string> residual_texts;
};

StatusOr<FromInputs> PrepareFrom(const SelectStatement& select,
                                 storage::Catalog& catalog) {
  FromInputs inputs;
  for (size_t t = 0; t < select.from.size(); ++t) {
    NLQ_ASSIGN_OR_RETURN(PartitionedTable * table,
                         catalog.GetTable(select.from[t].table_name));
    inputs.scope.AddTable(select.from[t].alias, &table->schema());
    if (t == 0) {
      inputs.driver = table;
    } else {
      NLQ_ASSIGN_OR_RETURN(std::vector<Row> rows, table->ReadAllRows());
      inputs.small_tables.push_back(std::move(rows));
      inputs.small_schemas.push_back(&table->schema());
      inputs.small_aliases.push_back(select.from[t].alias);
    }
  }
  inputs.pushed_texts.resize(inputs.small_tables.size());
  return inputs;
}

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

/// Pushes WHERE conjuncts that reference only one materialized small
/// table down to that table (pre-filtering its rows before the cross
/// product). Without this, the paper's scoring pattern — X
/// cross-joined with a k-row model table k times under `Lj.j = j`
/// predicates — would enumerate k^k combinations per X row. This is
/// the cross-join analogue of the paper's Section 3.6 join
/// optimizations. The remaining conjuncts are bound against the full
/// scope into `inputs->residual_where`.
Status ApplyWherePushdown(const SelectStatement& select,
                          const udf::UdfRegistry* registry,
                          FromInputs* inputs) {
  if (!select.where) return Status::OK();
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);

  std::vector<const Expr*> residual;
  for (const Expr* conjunct : conjuncts) {
    if (ContainsAggregate(*conjunct, registry)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    bool pushed = false;
    for (size_t s = 0; s < inputs->small_tables.size() && !pushed; ++s) {
      BindingScope single;
      single.AddTable(inputs->small_aliases[s], inputs->small_schemas[s]);
      StatusOr<BoundExprPtr> bound = BindRowExpr(*conjunct, single, registry);
      if (!bound.ok()) continue;  // references other tables; try next
      // Pre-filter the materialized rows.
      std::vector<Row> kept;
      Status error;
      EvalContext ctx;
      ctx.error = &error;
      for (Row& row : inputs->small_tables[s]) {
        ctx.input = &row;
        const Datum cond = bound.value()->Eval(ctx);
        if (!cond.is_null() && cond.AsDouble() != 0.0) {
          kept.push_back(std::move(row));
        }
      }
      NLQ_RETURN_IF_ERROR(error);
      inputs->small_tables[s] = std::move(kept);
      inputs->pushed_texts[s].push_back(conjunct->ToString());
      pushed = true;
    }
    if (!pushed) {
      residual.push_back(conjunct);
      inputs->residual_texts.push_back(conjunct->ToString());
    }
  }

  if (!residual.empty()) {
    // Re-AND the residual conjuncts and bind against the full scope.
    ExprPtr combined = residual[0]->Clone();
    for (size_t i = 1; i < residual.size(); ++i) {
      combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                            residual[i]->Clone());
    }
    NLQ_ASSIGN_OR_RETURN(inputs->residual_where,
                         BindRowExpr(*combined, inputs->scope, registry));
  }
  return Status::OK();
}

std::string ResultColumnName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    std::string name = item.expr->ToString();
    if (name.size() <= 64) return name;
  }
  return "col" + std::to_string(index + 1);
}

bool IsAggregateSelect(const SelectStatement& select,
                       const udf::UdfRegistry* registry) {
  if (!select.group_by.empty() || select.having != nullptr) return true;
  for (const auto& item : select.items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr, registry)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Columnar pipeline (compiled bytecode over span batches)
// ---------------------------------------------------------------------------

/// Projection index of `slot`, appending it on first use.
size_t ProjectSlot(std::vector<size_t>* slots, size_t slot) {
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i] == slot) return i;
  }
  slots->push_back(slot);
  return slots->size() - 1;
}

/// Maps `lit <op> col` to the equivalent `col <op'> lit`; false for
/// non-comparison operators. The identity case doubles as the
/// is-a-comparison check.
bool MirrorComparison(BinaryOp op, bool swapped, BinaryOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = BinaryOp::kEq; return true;
    case BinaryOp::kNe: *out = BinaryOp::kNe; return true;
    case BinaryOp::kLt: *out = swapped ? BinaryOp::kGt : BinaryOp::kLt;
      return true;
    case BinaryOp::kLe: *out = swapped ? BinaryOp::kGe : BinaryOp::kLe;
      return true;
    case BinaryOp::kGt: *out = swapped ? BinaryOp::kLt : BinaryOp::kGt;
      return true;
    case BinaryOp::kGe: *out = swapped ? BinaryOp::kLe : BinaryOp::kGe;
      return true;
    default: return false;
  }
}

/// Extracts a non-NULL numeric literal, folding a leading unary minus
/// (the parser produces `-2` as kUnary(kNegate, kLiteral)).
bool NumericLiteral(const Expr& e, double* v) {
  if (e.kind == ExprKind::kUnary && e.unary_op == UnaryOp::kNegate &&
      e.left != nullptr) {
    if (!NumericLiteral(*e.left, v)) return false;
    *v = -*v;
    return true;
  }
  if (e.kind != ExprKind::kLiteral || e.literal.is_null() ||
      e.literal.type() == DataType::kVarchar) {
    return false;
  }
  *v = e.literal.AsDouble();
  return true;
}

/// Extracts one WHERE conjunct as a scan-pushable simple comparison
/// (`column <op> numeric-literal`, either operand order) against the
/// projected slot list. No slot is appended on failure.
bool TrySimpleSpanFilter(const Expr& conj, const BindingScope& scope,
                         std::vector<size_t>* slots, ColumnFilter* f) {
  if (conj.kind != ExprKind::kBinary) return false;
  const Expr* colref = conj.left.get();
  const Expr* lit = conj.right.get();
  bool swapped = false;
  if (colref->kind != ExprKind::kColumnRef) {
    std::swap(colref, lit);
    swapped = true;
  }
  if (colref->kind != ExprKind::kColumnRef ||
      !NumericLiteral(*lit, &f->value) ||
      !MirrorComparison(conj.binary_op, swapped, &f->op)) {
    return false;
  }
  StatusOr<std::pair<size_t, DataType>> resolved =
      scope.Resolve(colref->table, colref->column);
  if (!resolved.ok() || resolved.value().second == DataType::kVarchar) {
    return false;
  }
  f->col = ProjectSlot(slots, resolved.value().first);
  f->text = conj.ToString();
  return true;
}

/// Plan fragment for the general columnar pipeline, assembled by
/// TryVectorAggregate / TryVectorProjection. `slots` lists the driver
/// schema slots the scan decodes; `slot_to_col` is its inverse
/// (schema slot -> span column, -1 for unprojected slots), shared by
/// every program in the fragment.
struct VectorPipeline {
  bool eligible = false;
  std::vector<size_t> slots;
  std::vector<ColumnFilter> scan_filters;  // cols index into `slots`
  CompiledExprPtr where_prog;  // non-pushable conjuncts, ANDed; or null
  std::vector<std::string> where_texts;
  std::vector<int> slot_to_col;
  // Aggregate form.
  std::vector<CompiledExprPtr> key_progs;
  std::vector<VectorAggSpec> spec_args;
  // Projection form.
  std::vector<CompiledExprPtr> proj_progs;
};

/// Splits the WHERE clause for the pipeline: simple comparisons become
/// scan-pushed span filters, everything else is re-ANDed, bound and
/// compiled into one VectorFilter program. Returns false when a
/// residual conjunct does not compile (pipeline ineligible).
bool SplitWhereForPipeline(const SelectStatement& select,
                           const FromInputs& inputs,
                           const udf::UdfRegistry* registry,
                           BytecodeCache* cache, VectorPipeline* p) {
  if (select.where == nullptr) return true;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);
  std::vector<const Expr*> residual;
  for (const Expr* conj : conjuncts) {
    ColumnFilter f;
    if (TrySimpleSpanFilter(*conj, inputs.scope, &p->slots, &f)) {
      p->scan_filters.push_back(std::move(f));
    } else {
      residual.push_back(conj);
    }
  }
  if (residual.empty()) return true;
  ExprPtr combined = residual[0]->Clone();
  p->where_texts.push_back(residual[0]->ToString());
  for (size_t i = 1; i < residual.size(); ++i) {
    combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                          residual[i]->Clone());
    p->where_texts.push_back(residual[i]->ToString());
  }
  StatusOr<BoundExprPtr> bound =
      BindRowExpr(*combined, inputs.scope, registry);
  if (!bound.ok()) return false;
  p->where_prog = CompileExpr(*bound.value(), cache);
  return p->where_prog != nullptr;
}

/// Seals the fragment: collects every program's referenced slots into
/// the scan projection and builds the slot -> span-column map. A
/// fragment that touches no columns at all (pure COUNT(*), constant
/// projections) stays on the row path, which decodes nothing either.
bool FinishPipeline(const FromInputs& inputs, VectorPipeline* p) {
  auto collect = [&](const CompiledExprPtr& prog) {
    if (prog == nullptr) return;
    for (const size_t slot : prog->referenced_slots()) {
      ProjectSlot(&p->slots, slot);
    }
  };
  collect(p->where_prog);
  for (const auto& prog : p->key_progs) collect(prog);
  for (const auto& spec : p->spec_args) {
    for (const auto& prog : spec.progs) collect(prog);
  }
  for (const auto& prog : p->proj_progs) collect(prog);
  if (p->slots.empty()) return false;
  p->slot_to_col.assign(inputs.scope.total_slots(), -1);
  for (size_t i = 0; i < p->slots.size(); ++i) {
    p->slot_to_col[p->slots[i]] = static_cast<int>(i);
  }
  p->eligible = true;
  return true;
}

/// Columnar plan for aggregates: GROUP BY keys and aggregate arguments
/// compile to bytecode and run over span batches (aggregate UDFs keep
/// leading literal arguments as constants). HAVING and the SELECT
/// projections operate per group on (keys, aggs) rows and stay
/// interpreted.
VectorPipeline TryVectorAggregate(const SelectStatement& select,
                                  const FromInputs& inputs,
                                  const BoundAggregation& agg,
                                  const udf::UdfRegistry* registry,
                                  BytecodeCache* cache) {
  VectorPipeline p;
  if (inputs.driver == nullptr || !inputs.small_tables.empty()) return p;
  if (!SplitWhereForPipeline(select, inputs, registry, cache, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& key : agg.key_exprs) {
    CompiledExprPtr prog = CompileExpr(*key, cache);
    if (prog == nullptr) return VectorPipeline{};
    p.key_progs.push_back(std::move(prog));
  }
  for (const AggregateSpec& spec : agg.specs) {
    VectorAggSpec vs;
    size_t a = 0;
    if (spec.kind == AggregateSpec::Kind::kUdf) {
      storage::Datum lit;
      while (a < spec.args.size() && spec.args[a]->AsLiteralValue(&lit)) {
        vs.const_args.push_back(std::move(lit));
        ++a;
      }
    } else if (spec.kind != AggregateSpec::Kind::kCountStar &&
               spec.args.size() != 1) {
      return VectorPipeline{};
    }
    for (; a < spec.args.size(); ++a) {
      CompiledExprPtr prog = CompileExpr(*spec.args[a], cache);
      if (prog == nullptr) return VectorPipeline{};
      vs.progs.push_back(std::move(prog));
    }
    p.spec_args.push_back(std::move(vs));
  }
  if (!FinishPipeline(inputs, &p)) return VectorPipeline{};
  return p;
}

/// True for the global n,L,Q shape a maintained view serves: no GROUP
/// BY, HAVING or residual WHERE program (every conjunct was pushed into
/// the scan), and every aggregate argument a bare column after an
/// aggregate UDF's literal prefix, with UDFs that take spans.
bool ViewShaped(const BoundAggregation& agg, bool has_having,
                const VectorPipeline& p) {
  if (!agg.key_exprs.empty() || has_having || p.where_prog != nullptr) {
    return false;
  }
  for (size_t i = 0; i < agg.specs.size(); ++i) {
    const AggregateSpec& spec = agg.specs[i];
    const VectorAggSpec& args = p.spec_args[i];
    if (spec.kind == AggregateSpec::Kind::kUdf &&
        (!spec.udaf->SupportsColumnarSpans() || args.progs.empty())) {
      return false;
    }
    for (size_t a = args.const_args.size(); a < spec.args.size(); ++a) {
      size_t slot = 0;
      if (!spec.args[a]->AsInputRef(&slot)) return false;
    }
  }
  return true;
}

/// Pipeline form for plain projections: every SELECT item's bound
/// expression must compile.
VectorPipeline TryVectorProjection(const SelectStatement& select,
                                   const FromInputs& inputs,
                                   const std::vector<BoundExprPtr>& bound,
                                   const udf::UdfRegistry* registry,
                                   BytecodeCache* cache) {
  VectorPipeline p;
  if (inputs.driver == nullptr || !inputs.small_tables.empty()) return p;
  if (!SplitWhereForPipeline(select, inputs, registry, cache, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& expr : bound) {
    CompiledExprPtr prog = CompileExpr(*expr, cache);
    if (prog == nullptr) return VectorPipeline{};
    p.proj_progs.push_back(std::move(prog));
  }
  if (!FinishPipeline(inputs, &p)) return VectorPipeline{};
  return p;
}

}  // namespace

Planner::Planner(storage::Catalog* catalog, const udf::UdfRegistry* registry,
                 ThreadPool* pool, size_t batch_capacity, uint64_t morsel_rows,
                 const QueryContext* ctx, bool enable_expr_compile,
                 BytecodeCache* bytecode_cache, ViewRegistry* views)
    : catalog_(catalog),
      registry_(registry),
      pool_(pool),
      batch_capacity_(batch_capacity),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      enable_expr_compile_(enable_expr_compile),
      bytecode_cache_(bytecode_cache),
      views_(views) {}

StatusOr<PhysicalPlan> Planner::Plan(const SelectStatement& select) const {
  NLQ_ASSIGN_OR_RETURN(FromInputs inputs, PrepareFrom(select, *catalog_));
  NLQ_RETURN_IF_ERROR(ApplyWherePushdown(select, registry_, &inputs));
  const bool is_aggregate = IsAggregateSelect(select, registry_);
  const bool vectorize = enable_expr_compile_;

  // Leaf: parallel partition scan, or the constant input of a
  // FROM-less query (one empty row; none under aggregation, where an
  // empty input still finalizes one global group).
  PlanNodePtr node;
  if (inputs.driver != nullptr) {
    node = std::make_unique<ParallelScanNode>(
        inputs.driver, select.from[0].table_name, batch_capacity_,
        morsel_rows_, ctx_);
  } else {
    node = std::make_unique<ConstantInputNode>(is_aggregate ? 0 : 1);
  }

  // Cross joins against the materialized (pushdown-filtered) small
  // tables, in FROM order.
  for (size_t s = 0; s < inputs.small_tables.size(); ++s) {
    const std::string display =
        select.from[s + 1].table_name + " AS " + inputs.small_aliases[s];
    node = std::make_unique<CrossJoinNode>(
        std::move(node), std::move(inputs.small_tables[s]),
        inputs.small_schemas[s]->num_columns(), display,
        std::move(inputs.pushed_texts[s]));
  }

  // Residual WHERE. The predicate gets a compiled program when its
  // tree supports it; the interpreted tree stays as the fallback (and
  // as EXPLAIN's source text).
  if (inputs.residual_where != nullptr) {
    CompiledExprPtr pred;
    if (vectorize) {
      pred = CompileExpr(*inputs.residual_where, bytecode_cache_);
    }
    node = std::make_unique<FilterNode>(
        std::move(node), std::move(inputs.residual_where),
        std::move(inputs.residual_texts), std::move(pred), ctx_);
  }

  std::vector<storage::Column> out_cols;
  if (is_aggregate) {
    std::vector<const Expr*> select_exprs;
    for (const auto& item : select.items) {
      if (item.expr == nullptr) {
        return Status::InvalidArgument("'*' requires COUNT(*) in aggregates");
      }
      select_exprs.push_back(item.expr.get());
    }
    // HAVING is bound like one more (hidden) select item so it can mix
    // aggregates and group keys; its value filters groups.
    const bool has_having = select.having != nullptr;
    if (has_having) select_exprs.push_back(select.having.get());
    std::vector<const Expr*> group_by;
    for (const auto& g : select.group_by) group_by.push_back(g.get());

    NLQ_ASSIGN_OR_RETURN(
        BoundAggregation agg,
        BindAggregation(select_exprs, group_by, inputs.scope, registry_));
    for (size_t i = 0; i < select.items.size(); ++i) {
      out_cols.push_back({ResultColumnName(select.items[i], i),
                          agg.projections[i]->result_type()});
    }
    VectorPipeline vp;
    if (vectorize) {
      vp = TryVectorAggregate(select, inputs, agg, registry_,
                              bytecode_cache_);
    }
    if (vp.eligible) {
      // Columnar aggregate: GROUP BY keys and aggregate arguments run
      // compiled over span batches; simple comparisons filter inside
      // the scan, the remaining WHERE conjuncts run as one compiled
      // VectorFilter program.
      //
      // Maintained-view decision (DESIGN.md §13): a global n,L,Q
      // aggregate over a resident table with relocatable states is
      // served from registered per-morsel partials. Grouped n,L,Q
      // aggregates stay unmaintained: hash-table output ordering is not
      // replayable bit-identically.
      std::string view_note;
      ViewDescriptor view;
      if (views_ != nullptr && ViewShaped(agg, has_having, vp)) {
        if (inputs.driver->is_spilled()) {
          view_note = "view=ineligible (spilled)";
        } else if (!RelocatableSpecs(agg.specs)) {
          view_note = "view=ineligible (non-relocatable aggregate state)";
        } else {
          view.table = inputs.driver;
          view.table_name = select.from[0].table_name;
          view.slots = vp.slots;
          view.filters = vp.scan_filters;
          view.morsel_rows = morsel_rows_;
          view.batch_capacity = batch_capacity_;
        }
      } else if (views_ != nullptr && !agg.key_exprs.empty()) {
        for (const AggregateSpec& spec : agg.specs) {
          if (spec.kind == AggregateSpec::Kind::kUdf) {
            view_note = "view=ineligible (group-by)";
          }
        }
      }
      PlanNodePtr chain = std::make_unique<ColumnarScanNode>(
          inputs.driver, select.from[0].table_name, std::move(vp.slots),
          std::move(vp.scan_filters), batch_capacity_, morsel_rows_, ctx_);
      if (vp.where_prog != nullptr) {
        chain = std::make_unique<VectorFilterNode>(
            std::move(chain), std::move(vp.where_prog), vp.slot_to_col,
            std::move(vp.where_texts), ctx_);
      }
      auto vagg = std::make_unique<VectorHashAggregateNode>(
          std::move(chain), std::move(agg),
          std::move(vp.key_progs), std::move(vp.spec_args),
          std::move(vp.slot_to_col), has_having,
          has_having ? select.having->ToString() : std::string(),
          select.items.size(), pool_, ctx_);
      vagg->set_view_note(std::move(view_note));
      if (view.table != nullptr) vagg->UseView(views_, std::move(view));
      node = std::move(vagg);
    } else {
      node = std::make_unique<HashAggregateNode>(
          std::move(node), std::move(agg), has_having,
          has_having ? select.having->ToString() : std::string(),
          select.items.size(), pool_, batch_capacity_, ctx_);
    }
  } else {
    // Expand the select list (handling bare `*`).
    std::vector<BoundExprPtr> projections;
    bool has_star = false;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.expr == nullptr) {  // bare *
        has_star = true;
        for (const auto& col : inputs.scope.AllColumns()) {
          out_cols.push_back(col);
        }
        continue;
      }
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindRowExpr(*item.expr, inputs.scope, registry_));
      out_cols.push_back({ResultColumnName(item, i), bound->result_type()});
      projections.push_back(std::move(bound));
    }
    VectorPipeline vp;
    if (vectorize && !has_star) {
      vp = TryVectorProjection(select, inputs, projections, registry_,
                               bytecode_cache_);
    }
    if (vp.eligible) {
      // General columnar pipeline: projections (and non-pushable WHERE
      // conjuncts) run compiled over span batches.
      node = std::make_unique<ColumnarScanNode>(
          inputs.driver, select.from[0].table_name, std::move(vp.slots),
          std::move(vp.scan_filters), batch_capacity_, morsel_rows_, ctx_);
      if (vp.where_prog != nullptr) {
        node = std::make_unique<VectorFilterNode>(
            std::move(node), std::move(vp.where_prog), vp.slot_to_col,
            std::move(vp.where_texts), ctx_);
      }
      node = std::make_unique<VectorProjectNode>(std::move(node),
                                                 std::move(vp.proj_progs),
                                                 std::move(vp.slot_to_col),
                                                 ctx_);
    } else if (has_star) {
      // SELECT * forwards the joined row (star mixed with expressions
      // is not supported: star copies the joined row).
      node = std::make_unique<ProjectNode>(std::move(node));
    } else {
      // Row path: each projection still gets a compiled program where
      // its tree supports one; nullptr entries run interpreted.
      std::vector<CompiledExprPtr> compiled;
      if (vectorize) {
        compiled.reserve(projections.size());
        for (const BoundExprPtr& expr : projections) {
          compiled.push_back(CompileExpr(*expr, bytecode_cache_));
        }
      }
      node = std::make_unique<ProjectNode>(std::move(node),
                                           std::move(projections),
                                           std::move(compiled), ctx_);
    }
    if (node->num_streams() > 1) {
      node = std::make_unique<GatherNode>(std::move(node), pool_,
                                          batch_capacity_, ctx_);
    }
  }

  Schema output_schema{std::move(out_cols)};

  // ORDER BY binds against the result schema (so aliases and
  // positions resolve), exactly like the previous post-materialization
  // sort.
  if (!select.order_by.empty()) {
    BindingScope result_scope;
    result_scope.AddTable("", &output_schema);
    std::vector<BoundExprPtr> key_exprs;
    std::vector<bool> descending;
    for (const auto& item : select.order_by) {
      descending.push_back(item.descending);
      // Positional form: ORDER BY 2.
      if (item.expr->kind == ExprKind::kLiteral &&
          item.expr->literal.type() == DataType::kInt64 &&
          !item.expr->literal.is_null()) {
        const int64_t pos = item.expr->literal.int_value();
        if (pos < 1 || pos > static_cast<int64_t>(output_schema.num_columns())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        const auto& col = output_schema.column(static_cast<size_t>(pos - 1));
        key_exprs.push_back(
            MakeBoundInputRef(static_cast<size_t>(pos - 1), col.type));
        continue;
      }
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindRowExpr(*item.expr, result_scope, registry_));
      key_exprs.push_back(std::move(bound));
    }
    node = std::make_unique<SortNode>(std::move(node), std::move(key_exprs),
                                      std::move(descending), select.limit,
                                      ctx_);
  }

  if (select.limit >= 0) {
    node = std::make_unique<LimitNode>(std::move(node), select.limit);
  }

  PhysicalPlan plan;
  plan.root = std::move(node);
  plan.output_schema = std::move(output_schema);
  return plan;
}

}  // namespace nlq::engine::exec
