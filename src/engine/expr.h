#ifndef NLQ_ENGINE_EXPR_H_
#define NLQ_ENGINE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/ast.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "udf/udf.h"

namespace nlq::engine {

namespace exec {
class BytecodeBuilder;
}  // namespace exec

/// Row context a bound expression evaluates against.
///
/// Row-level expressions read `input` (the joined input row).
/// Post-aggregation projections read `keys` (GROUP BY values) and
/// `aggs` (aggregate results). `error` collects the first evaluation
/// error (e.g. a scalar UDF failure); expression evaluation itself
/// returns NULL on SQL-level soft errors such as division by zero.
struct EvalContext {
  const storage::Row* input = nullptr;
  const storage::Row* keys = nullptr;
  const storage::Row* aggs = nullptr;
  Status* error = nullptr;
};

/// A bound, directly evaluable expression tree. Evaluation is
/// deliberately *interpreted* (virtual dispatch per node per row):
/// this models the paper's observation that "SQL arithmetic
/// expressions are interpreted at run-time, whereas UDF arithmetic
/// expressions are compiled".
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// Evaluates against `ctx`; returns NULL on soft errors and reports
  /// hard errors through ctx.error.
  virtual storage::Datum Eval(const EvalContext& ctx) const = 0;

  /// Batch evaluation entry point for the morsel executor: evaluates
  /// this expression against `rows[0..count)` writing one Datum per
  /// row into `out` (which must hold at least `count` slots). The
  /// first hard error is reported through `error`; evaluation of the
  /// remaining rows may still run (results past an error are
  /// discarded by the caller).
  ///
  /// The base implementation loops `Eval` row-by-row; hot nodes
  /// (column refs, literals, arithmetic/comparison) override it to
  /// hoist the virtual dispatch and operator switch out of the
  /// per-row path — the batched analogue of the paper's "compiled UDF
  /// vs interpreted SQL" gap.
  virtual void EvalBatch(const storage::Row* rows, size_t count,
                         Status* error, storage::Datum* out) const;

  /// Static result type of this expression.
  virtual storage::DataType result_type() const = 0;

  /// Fast-path introspection for the columnar planner: if this node is
  /// a bare input column reference, stores its slot and returns true.
  virtual bool AsInputRef(size_t* slot) const {
    (void)slot;
    return false;
  }

  /// If this node is a literal, stores its value and returns true.
  virtual bool AsLiteralValue(storage::Datum* value) const {
    (void)value;
    return false;
  }

  /// Emits this subtree into `builder` for the vectorized bytecode
  /// path (engine/exec/bytecode.h), returning the builder ValueId of
  /// the result or a negative value when the construct cannot compile
  /// (the default: key/agg refs stay interpreted, and so do VARCHAR
  /// operands and UDF results).
  virtual int EmitBytecode(exec::BytecodeBuilder* builder) const {
    (void)builder;
    return -1;
  }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Resolves unqualified/qualified column references against the
/// concatenated row of one or more FROM tables.
class BindingScope {
 public:
  /// Adds a table with alias; its columns occupy the next
  /// `schema.num_columns()` slots of the joined row.
  void AddTable(std::string alias, const storage::Schema* schema);

  /// Adds a broadcast table: its slots are numbered like AddTable's,
  /// but its column references bind to the values of `row` (which must
  /// outlive binding) as constants instead of input references.
  void AddConstantTable(std::string alias, const storage::Schema* schema,
                        const storage::Row* row);

  /// The broadcast value bound to `slot`, or nullptr for an input slot.
  const storage::Datum* ConstantAt(size_t slot) const;

  /// Resolves `[table.]column`; InvalidArgument if ambiguous,
  /// NotFound if missing. Returns {slot, type}.
  StatusOr<std::pair<size_t, storage::DataType>> Resolve(
      const std::string& table, const std::string& column) const;

  /// Total number of slots in the joined row.
  size_t total_slots() const { return total_slots_; }

  /// All (qualified) columns in slot order, for SELECT *.
  std::vector<storage::Column> AllColumns() const;

 private:
  struct TableEntry {
    std::string alias;
    const storage::Schema* schema;
    size_t offset;
    const storage::Row* row;  // broadcast values, or nullptr
  };
  std::vector<TableEntry> tables_;
  size_t total_slots_ = 0;
};

/// One aggregate call extracted from a SELECT list during binding.
struct AggregateSpec {
  enum class Kind { kSum, kCount, kCountStar, kMin, kMax, kAvg, kUdf };
  Kind kind = Kind::kSum;
  const udf::AggregateUdf* udaf = nullptr;  // for kUdf
  std::vector<BoundExprPtr> args;           // row-level argument exprs
  storage::DataType result_type = storage::DataType::kDouble;
};

/// Output of binding a SELECT item in an aggregation query: the
/// expression reads KeyRef/AggRef slots instead of input columns.
struct BoundAggregation {
  std::vector<BoundExprPtr> key_exprs;   // row-level GROUP BY exprs
  std::vector<AggregateSpec> specs;      // aggregate calls, in slot order
  std::vector<BoundExprPtr> projections; // per SELECT item (keys/aggs ctx)
};

/// Binds a row-level expression (aggregates are rejected).
StatusOr<BoundExprPtr> BindRowExpr(const Expr& expr, const BindingScope& scope,
                                   const udf::UdfRegistry* registry);

/// Creates a bound reference to input slot `slot` directly (used for
/// positional ORDER BY over materialized results).
BoundExprPtr MakeBoundInputRef(size_t slot, storage::DataType type);

/// Returns true if `expr` contains an aggregate function call
/// (builtin or registered aggregate UDF).
bool ContainsAggregate(const Expr& expr, const udf::UdfRegistry* registry);

/// Returns true if `expr` calls a registered scalar UDF (builtins such
/// as sqrt() excluded).
bool ContainsScalarUdfCall(const Expr& expr, const udf::UdfRegistry* registry);

/// Binds the SELECT list of an aggregation query: group_by expressions
/// become key slots, aggregate calls become AggregateSpecs, and each
/// select item becomes a projection over (keys, aggs). Non-aggregated
/// column references must match a GROUP BY expression textually.
StatusOr<BoundAggregation> BindAggregation(
    const std::vector<const Expr*>& select_exprs,
    const std::vector<const Expr*>& group_by, const BindingScope& scope,
    const udf::UdfRegistry* registry);

}  // namespace nlq::engine

#endif  // NLQ_ENGINE_EXPR_H_
