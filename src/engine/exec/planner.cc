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
/// product, or broadcast as constants.
struct FromInputs {
  PartitionedTable* driver = nullptr;
  std::vector<std::vector<Row>> small_tables;
  std::vector<const Schema*> small_schemas;
  std::vector<std::string> small_aliases;
  BindingScope scope;  // the joined row: driver, then each small table
  std::vector<const Expr*> residual_conjuncts;  // WHERE after pushdown

  std::vector<std::vector<std::string>> pushed_texts;  // per small table
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
/// optimizations. The remaining conjuncts are left, unbound, in
/// `inputs->residual_conjuncts`.
Status ApplyWherePushdown(const SelectStatement& select,
                          const udf::UdfRegistry* registry,
                          FromInputs* inputs) {
  if (!select.where) return Status::OK();
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);

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
    if (!pushed) inputs->residual_conjuncts.push_back(conjunct);
  }
  return Status::OK();
}

/// Re-ANDs `conjuncts` in order and binds them against `scope`; null
/// when there are none.
StatusOr<BoundExprPtr> BindConjuncts(const std::vector<const Expr*>& conjuncts,
                                     const BindingScope& scope,
                                     const udf::UdfRegistry* registry) {
  if (conjuncts.empty()) return BoundExprPtr();
  ExprPtr combined = conjuncts[0]->Clone();
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                          conjuncts[i]->Clone());
  }
  return BindRowExpr(*combined, scope, registry);
}

/// EXPLAIN text of each conjunct, for Filter and VectorFilter.
std::vector<std::string> ConjunctTexts(
    const std::vector<const Expr*>& conjuncts) {
  std::vector<std::string> texts;
  for (const Expr* conjunct : conjuncts) texts.push_back(conjunct->ToString());
  return texts;
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
/// (`driver-column <op> numeric-literal`, either operand order) against
/// the projected slot list. No slot is appended on failure.
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
  if (!resolved.ok() || resolved.value().second == DataType::kVarchar ||
      scope.ConstantAt(resolved.value().first) != nullptr) {
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

/// Splits the WHERE conjuncts left after small-table pushdown for the
/// pipeline: simple comparisons become scan-pushed span filters,
/// everything else is re-ANDed, bound and compiled into one
/// VectorFilter program. Returns false when a residual conjunct does
/// not compile (pipeline ineligible).
///
/// The interpreter runs a conjunct on every row no earlier conjunct
/// made FALSE, NULL rows included, while a scan filter drops NULL rows
/// too. A scalar UDF call may fail, so it must see the same rows on
/// both paths: a call is allowed in the first conjunct only, and then
/// no conjunct is pushed into the scan ahead of it.
bool SplitWhereForPipeline(const std::vector<const Expr*>& conjuncts,
                           const BindingScope& scope,
                           const udf::UdfRegistry* registry,
                           VectorPipeline* p) {
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    if (ContainsScalarUdfCall(*conjuncts[i], registry)) return false;
  }
  const bool call_first =
      !conjuncts.empty() && ContainsScalarUdfCall(*conjuncts[0], registry);
  std::vector<const Expr*> residual;
  for (const Expr* conj : conjuncts) {
    ColumnFilter f;
    if (!call_first && TrySimpleSpanFilter(*conj, scope, &p->slots, &f)) {
      p->scan_filters.push_back(std::move(f));
    } else {
      residual.push_back(conj);
    }
  }
  if (residual.empty()) return true;
  p->where_texts = ConjunctTexts(residual);
  StatusOr<BoundExprPtr> bound = BindConjuncts(residual, scope, registry);
  if (!bound.ok()) return false;
  p->where_prog = CompileExpr(*bound.value());
  return p->where_prog != nullptr;
}

/// Seals the fragment: collects every program's referenced slots into
/// the scan projection and builds the slot -> span-column map. A
/// fragment that references no column (COUNT(*), constants) scans no
/// column: its batches carry only row counts.
void FinishPipeline(const BindingScope& scope, VectorPipeline* p) {
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
  p->slot_to_col.assign(scope.total_slots(), -1);
  for (size_t i = 0; i < p->slots.size(); ++i) {
    p->slot_to_col[p->slots[i]] = static_cast<int>(i);
  }
  p->eligible = true;
}

/// Columnar plan for aggregates: GROUP BY keys and aggregate arguments
/// compile to bytecode and run over span batches (aggregate UDFs keep
/// leading literal arguments as constants). HAVING and the SELECT
/// projections operate per group on (keys, aggs) rows and stay
/// interpreted.
VectorPipeline TryVectorAggregate(const FromInputs& inputs,
                                  const BindingScope& scope,
                                  const BoundAggregation& agg,
                                  const udf::UdfRegistry* registry) {
  VectorPipeline p;
  if (!SplitWhereForPipeline(inputs.residual_conjuncts, scope, registry, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& key : agg.key_exprs) {
    CompiledExprPtr prog = CompileExpr(*key);
    if (prog == nullptr) return VectorPipeline{};
    p.key_progs.push_back(std::move(prog));
  }
  for (const AggregateSpec& spec : agg.specs) {
    VectorAggSpec vs;
    size_t a = 0;
    if (spec.kind == AggregateSpec::Kind::kUdf) {
      // A span-taking UDF's span arguments are numeric: its constant
      // prefix stops at the first non-VARCHAR literal, which compiles
      // to a constant lane like any other argument.
      const bool spans = spec.udaf->SupportsColumnarSpans();
      storage::Datum lit;
      while (a < spec.args.size() && spec.args[a]->AsLiteralValue(&lit) &&
             (!spans || lit.type() == storage::DataType::kVarchar)) {
        vs.const_args.push_back(std::move(lit));
        ++a;
      }
    } else if (spec.kind != AggregateSpec::Kind::kCountStar &&
               spec.args.size() != 1) {
      return VectorPipeline{};
    }
    for (; a < spec.args.size(); ++a) {
      CompiledExprPtr prog = CompileExpr(*spec.args[a]);
      if (prog == nullptr) return VectorPipeline{};
      vs.columns.push_back(ArgColumnsOf(*prog));
      vs.progs.push_back(std::move(prog));
    }
    p.spec_args.push_back(std::move(vs));
  }
  FinishPipeline(scope, &p);
  return p;
}

/// True for the global n,L,Q shape a maintained view serves: no GROUP
/// BY, HAVING or residual WHERE program (every conjunct was pushed into
/// the scan), and every aggregate argument a bare column after an
/// aggregate UDF's literal prefix, with UDFs that take spans. A view is
/// served by the node's own scan, so this is policy only: a residual
/// WHERE or expression arguments would be served right too, but each
/// new literal (an iterative client's centroids) would then seed an
/// entry and evict the others; widening it needs an admission rule.
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
VectorPipeline TryVectorProjection(const FromInputs& inputs,
                                   const BindingScope& scope,
                                   const std::vector<BoundExprPtr>& bound,
                                   const udf::UdfRegistry* registry) {
  VectorPipeline p;
  if (!SplitWhereForPipeline(inputs.residual_conjuncts, scope, registry, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& expr : bound) {
    CompiledExprPtr prog = CompileExpr(*expr);
    if (prog == nullptr) return VectorPipeline{};
    p.proj_progs.push_back(std::move(prog));
  }
  FinishPipeline(scope, &p);
  return p;
}

/// Broadcast decision: when every small table holds exactly one row
/// after pushdown, fills `scope` with the driver's input slots and each
/// small table's row as constants, so the statement plans as a
/// single-table pipeline. False (scope untouched) otherwise.
bool BroadcastScope(const SelectStatement& select, const FromInputs& inputs,
                    BindingScope* scope) {
  for (const std::vector<Row>& rows : inputs.small_tables) {
    if (rows.size() != 1) return false;
  }
  scope->AddTable(select.from[0].alias, &inputs.driver->schema());
  for (size_t s = 0; s < inputs.small_tables.size(); ++s) {
    scope->AddConstantTable(inputs.small_aliases[s], inputs.small_schemas[s],
                            &inputs.small_tables[s][0]);
  }
  return true;
}

/// EXPLAIN text naming each broadcast table and its pushed predicates,
/// e.g. "M AS m1 (1 row after pushdown: (m1.j = 1))".
std::string BroadcastNote(const SelectStatement& select,
                          const FromInputs& inputs) {
  std::string out;
  for (size_t s = 0; s < inputs.small_tables.size(); ++s) {
    if (s > 0) out += ", ";
    out += select.from[s + 1].table_name + " AS " + inputs.small_aliases[s] +
           " (1 row";
    const std::vector<std::string>& pushed = inputs.pushed_texts[s];
    for (size_t i = 0; i < pushed.size(); ++i) {
      out += i == 0 ? " after pushdown: " : " AND ";
      out += pushed[i];
    }
    out += ")";
  }
  return out;
}

}  // namespace

Planner::Planner(storage::Catalog* catalog, const udf::UdfRegistry* registry,
                 ThreadPool* pool, size_t batch_capacity, uint64_t morsel_rows,
                 const QueryContext* ctx, bool enable_expr_compile,
                 ViewRegistry* views)
    : catalog_(catalog),
      registry_(registry),
      pool_(pool),
      batch_capacity_(batch_capacity),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      enable_expr_compile_(enable_expr_compile),
      views_(views) {}

StatusOr<PhysicalPlan> Planner::Plan(const SelectStatement& select) const {
  NLQ_ASSIGN_OR_RETURN(FromInputs inputs, PrepareFrom(select, *catalog_));
  NLQ_RETURN_IF_ERROR(ApplyWherePushdown(select, registry_, &inputs));
  const bool is_aggregate = IsAggregateSelect(select, registry_);
  bool has_star = false;
  for (const SelectItem& item : select.items) {
    has_star = has_star || item.expr == nullptr;
  }

  // Small FROM tables that each hold exactly one row after pushdown
  // are broadcast: their columns bind as constants, so the statement
  // reads the driver table alone — on the compiled pipeline when its
  // expressions compile, on the row path without a CrossJoin when they
  // do not. Any other small table, `SELECT *` (which copies the joined
  // row) and force_interpreted (the row path is the oracle) bind
  // against the joined row and keep the CrossJoin.
  BindingScope broadcast_scope;
  const bool broadcast =
      enable_expr_compile_ && inputs.driver != nullptr && !has_star &&
      !inputs.small_tables.empty() &&
      BroadcastScope(select, inputs, &broadcast_scope);
  const BindingScope& scope = broadcast ? broadcast_scope : inputs.scope;
  const bool pipeline = enable_expr_compile_ && inputs.driver != nullptr &&
                        !has_star &&
                        (inputs.small_tables.empty() || broadcast);
  NLQ_ASSIGN_OR_RETURN(
      BoundExprPtr residual_where,
      BindConjuncts(inputs.residual_conjuncts, scope, registry_));

  // Row-path input: parallel partition scan (or the constant input of
  // a FROM-less query: one empty row; none under aggregation, where an
  // empty input still finalizes one global group), cross joins against
  // the materialized small tables in FROM order unless they are
  // broadcast, the residual WHERE.
  auto row_input = [&]() -> PlanNodePtr {
    PlanNodePtr node;
    if (inputs.driver != nullptr) {
      auto scan = std::make_unique<ParallelScanNode>(
          inputs.driver, select.from[0].table_name, batch_capacity_,
          morsel_rows_, ctx_);
      if (broadcast) scan->set_broadcast_note(BroadcastNote(select, inputs));
      node = std::move(scan);
    } else {
      node = std::make_unique<ConstantInputNode>(is_aggregate ? 0 : 1);
    }
    for (size_t s = 0; !broadcast && s < inputs.small_tables.size(); ++s) {
      const std::string display =
          select.from[s + 1].table_name + " AS " + inputs.small_aliases[s];
      node = std::make_unique<CrossJoinNode>(
          std::move(node), std::move(inputs.small_tables[s]),
          inputs.small_schemas[s]->num_columns(), display,
          std::move(inputs.pushed_texts[s]));
    }
    if (residual_where != nullptr) {
      node = std::make_unique<FilterNode>(
          std::move(node), std::move(residual_where),
          ConjunctTexts(inputs.residual_conjuncts), ctx_);
    }
    return node;
  };

  // Columnar input: ColumnarScan (simple comparisons pushed into it,
  // broadcast tables named on it), then the remaining WHERE conjuncts
  // as one compiled VectorFilter program.
  ColumnarScanNode* columnar_scan = nullptr;
  auto columnar_input = [&](VectorPipeline* vp) -> PlanNodePtr {
    auto scan = std::make_unique<ColumnarScanNode>(
        inputs.driver, select.from[0].table_name, std::move(vp->slots),
        std::move(vp->scan_filters), batch_capacity_, morsel_rows_, ctx_);
    if (broadcast) scan->set_broadcast_note(BroadcastNote(select, inputs));
    columnar_scan = scan.get();
    PlanNodePtr node = std::move(scan);
    if (vp->where_prog != nullptr) {
      node = std::make_unique<VectorFilterNode>(
          std::move(node), std::move(vp->where_prog), vp->slot_to_col,
          std::move(vp->where_texts), ctx_);
    }
    return node;
  };

  PlanNodePtr node;
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
        BindAggregation(select_exprs, group_by, scope, registry_));
    VectorPipeline vp;
    if (pipeline) {
      vp = TryVectorAggregate(inputs, scope, agg, registry_);
    }
    for (size_t i = 0; i < select.items.size(); ++i) {
      out_cols.push_back({ResultColumnName(select.items[i], i),
                          agg.projections[i]->result_type()});
    }
    if (vp.eligible) {
      // Columnar aggregate: GROUP BY keys and aggregate arguments run
      // compiled over span batches.
      //
      // Maintained-view decision (DESIGN.md §13): a global n,L,Q
      // aggregate with relocatable states resumes its scan from stored
      // per-morsel partials, whether its partitions are resident,
      // spilled or spilled with a resident tail. Grouped n,L,Q
      // aggregates stay unmaintained: hash-table output ordering is not
      // replayable bit-identically.
      std::string view_note;
      ViewDescriptor view;
      if (views_ != nullptr && ViewShaped(agg, has_having, vp)) {
        if (!RelocatableSpecs(agg.specs)) {
          view_note = "view=ineligible (non-relocatable aggregate state)";
        } else {
          view.table = inputs.driver;
          view.table_name = select.from[0].table_name;
          view.key = ViewKey(view.table_name, vp.slots, vp.scan_filters,
                             agg.specs, vp.spec_args, morsel_rows_);
        }
      } else if (views_ != nullptr && !agg.key_exprs.empty()) {
        for (const AggregateSpec& spec : agg.specs) {
          if (spec.kind == AggregateSpec::Kind::kUdf) {
            view_note = "view=ineligible (group-by)";
          }
        }
      }
      PlanNodePtr chain = columnar_input(&vp);
      auto vagg = std::make_unique<VectorHashAggregateNode>(
          std::move(chain), std::move(agg), std::move(vp.key_progs),
          std::move(vp.spec_args), std::move(vp.slot_to_col), has_having,
          has_having ? select.having->ToString() : std::string(),
          select.items.size(), pool_, ctx_);
      vagg->set_view_note(std::move(view_note));
      if (view.table != nullptr) {
        // A view-shaped statement has no VectorFilter: the scan is the
        // aggregate's child.
        vagg->UseView(views_, std::move(view), columnar_scan);
      }
      node = std::move(vagg);
    } else {
      node = std::make_unique<HashAggregateNode>(
          row_input(), std::move(agg), has_having,
          has_having ? select.having->ToString() : std::string(),
          select.items.size(), pool_, batch_capacity_, ctx_);
    }
  } else {
    // Expand the select list (bare `*` copies the joined row, so it
    // always plans the row path).
    std::vector<BoundExprPtr> projections;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.expr == nullptr) {
        for (const auto& col : scope.AllColumns()) out_cols.push_back(col);
        continue;
      }
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindRowExpr(*item.expr, scope, registry_));
      out_cols.push_back({ResultColumnName(item, i), bound->result_type()});
      projections.push_back(std::move(bound));
    }
    VectorPipeline vp;
    if (pipeline) {
      vp = TryVectorProjection(inputs, scope, projections, registry_);
    }
    if (vp.eligible) {
      // General columnar pipeline: projections (and non-pushable WHERE
      // conjuncts) run compiled over span batches.
      PlanNodePtr chain = columnar_input(&vp);
      node = std::make_unique<VectorProjectNode>(std::move(chain),
                                                 std::move(vp.proj_progs),
                                                 std::move(vp.slot_to_col),
                                                 ctx_);
    } else if (has_star) {
      node = std::make_unique<ProjectNode>(row_input());
    } else {
      node = std::make_unique<ProjectNode>(row_input(), std::move(projections),
                                           ctx_);
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
