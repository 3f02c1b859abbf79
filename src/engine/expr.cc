#include "engine/expr.h"

#include <cmath>

#include "common/strings.h"
#include "engine/exec/bytecode.h"

namespace nlq::engine {

using storage::DataType;
using storage::Datum;

namespace {

// ---------------------------------------------------------------------------
// Bound node implementations
// ---------------------------------------------------------------------------

/// A constant: a SQL literal, or a column of a broadcast table
/// (BindingScope::AddConstantTable), which evaluates and compiles like
/// one but is no literal to AsLiteralValue — an aggregate UDF's literal
/// configuration prefix is decided by the SQL text alone.
class LiteralNode : public BoundExpr {
 public:
  explicit LiteralNode(Datum value, bool in_sql_text = true)
      : value_(std::move(value)), in_sql_text_(in_sql_text) {}
  Datum Eval(const EvalContext&) const override { return value_; }
  void EvalBatch(const storage::Row*, size_t count, Status*,
                 Datum* out) const override {
    for (size_t i = 0; i < count; ++i) out[i] = value_;
  }
  DataType result_type() const override { return value_.type(); }
  bool AsLiteralValue(Datum* value) const override {
    if (!in_sql_text_) return false;
    *value = value_;
    return true;
  }
  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    return b->Constant(value_);
  }

 private:
  Datum value_;
  bool in_sql_text_;
};

class InputRefNode : public BoundExpr {
 public:
  InputRefNode(size_t slot, DataType type) : slot_(slot), type_(type) {}
  Datum Eval(const EvalContext& ctx) const override {
    return (*ctx.input)[slot_];
  }
  void EvalBatch(const storage::Row* rows, size_t count, Status*,
                 Datum* out) const override {
    for (size_t i = 0; i < count; ++i) out[i] = rows[i][slot_];
  }
  DataType result_type() const override { return type_; }
  bool AsInputRef(size_t* slot) const override {
    *slot = slot_;
    return true;
  }
  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    return b->LoadColumn(slot_, type_);
  }

 private:
  size_t slot_;
  DataType type_;
};

class KeyRefNode : public BoundExpr {
 public:
  KeyRefNode(size_t idx, DataType type) : idx_(idx), type_(type) {}
  Datum Eval(const EvalContext& ctx) const override {
    return (*ctx.keys)[idx_];
  }
  DataType result_type() const override { return type_; }

 private:
  size_t idx_;
  DataType type_;
};

class AggRefNode : public BoundExpr {
 public:
  AggRefNode(size_t idx, DataType type) : idx_(idx), type_(type) {}
  Datum Eval(const EvalContext& ctx) const override {
    return (*ctx.aggs)[idx_];
  }
  DataType result_type() const override { return type_; }

 private:
  size_t idx_;
  DataType type_;
};

// SQL boolean helpers: we represent booleans as BIGINT 0/1 with NULL
// for "unknown" (three-valued logic).
Datum BoolDatum(bool b) { return Datum::Int64(b ? 1 : 0); }

bool IsTrue(const Datum& d) { return !d.is_null() && d.AsDouble() != 0.0; }
bool IsFalse(const Datum& d) { return !d.is_null() && d.AsDouble() == 0.0; }

class UnaryNode : public BoundExpr {
 public:
  UnaryNode(UnaryOp op, BoundExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}

  Datum Eval(const EvalContext& ctx) const override {
    return Apply(operand_->Eval(ctx));
  }

  void EvalBatch(const storage::Row* rows, size_t count, Status* error,
                 Datum* out) const override {
    operand_->EvalBatch(rows, count, error, out);
    for (size_t i = 0; i < count; ++i) out[i] = Apply(std::move(out[i]));
  }

  DataType result_type() const override {
    if (op_ == UnaryOp::kNot) return DataType::kInt64;
    return operand_->result_type();
  }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    const int v = operand_->EmitBytecode(b);
    if (v < 0) return -1;
    return b->Unary(op_, v);
  }

 private:
  Datum Apply(Datum v) const {
    if (v.is_null()) return Datum::Null(result_type());
    if (op_ == UnaryOp::kNegate) {
      if (v.type() == DataType::kInt64) return Datum::Int64(-v.int_value());
      return Datum::Double(-v.AsDouble());
    }
    return BoolDatum(!IsTrue(v));
  }

  UnaryOp op_;
  BoundExprPtr operand_;
};

class BinaryNode : public BoundExpr {
 public:
  BinaryNode(BinaryOp op, BoundExprPtr left, BoundExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {
    both_int_ = left_->result_type() == DataType::kInt64 &&
                right_->result_type() == DataType::kInt64;
  }

  Datum Eval(const EvalContext& ctx) const override {
    // AND/OR need three-valued logic with short-circuiting.
    if (op_ == BinaryOp::kAnd) {
      const Datum l = left_->Eval(ctx);
      if (IsFalse(l)) return BoolDatum(false);
      const Datum r = right_->Eval(ctx);
      if (IsFalse(r)) return BoolDatum(false);
      if (l.is_null() || r.is_null()) return Datum::Null(DataType::kInt64);
      return BoolDatum(true);
    }
    if (op_ == BinaryOp::kOr) {
      const Datum l = left_->Eval(ctx);
      if (IsTrue(l)) return BoolDatum(true);
      const Datum r = right_->Eval(ctx);
      if (IsTrue(r)) return BoolDatum(true);
      if (l.is_null() || r.is_null()) return Datum::Null(DataType::kInt64);
      return BoolDatum(false);
    }

    return Combine(left_->Eval(ctx), right_->Eval(ctx));
  }

  void EvalBatch(const storage::Row* rows, size_t count, Status* error,
                 Datum* out) const override {
    // AND/OR keep the row-at-a-time path: their short-circuit order
    // decides which operand errors surface.
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      BoundExpr::EvalBatch(rows, count, error, out);
      return;
    }
    // Children evaluate whole columns (one virtual dispatch per batch
    // instead of two per row); the operator fold runs as a tight loop.
    std::vector<Datum> lhs(count);
    left_->EvalBatch(rows, count, error, lhs.data());
    right_->EvalBatch(rows, count, error, out);
    for (size_t i = 0; i < count; ++i) {
      out[i] = Combine(lhs[i], out[i]);
    }
  }

  DataType result_type() const override {
    switch (op_) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kMod:
        return both_int_ ? DataType::kInt64 : DataType::kDouble;
      case BinaryOp::kDiv:
        return DataType::kDouble;
      default:
        return DataType::kInt64;  // booleans
    }
  }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    const int l = left_->EmitBytecode(b);
    if (l < 0) return -1;
    const int r = right_->EmitBytecode(b);
    if (r < 0) return -1;
    return b->Binary(op_, l, r);
  }

 private:
  Datum Combine(const Datum& l, const Datum& r) const {
    if (l.is_null() || r.is_null()) return Datum::Null(result_type());
    switch (op_) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kMod:
        if (both_int_) return EvalIntArithmetic(l.int_value(), r.int_value());
        return EvalDoubleArithmetic(l.AsDouble(), r.AsDouble());
      case BinaryOp::kDiv: {
        const double denom = r.AsDouble();
        if (denom == 0.0) return Datum::Null(DataType::kDouble);
        return Datum::Double(l.AsDouble() / denom);
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return EvalComparison(l, r);
      default:
        return Datum::Null(DataType::kDouble);
    }
  }

  Datum EvalIntArithmetic(int64_t a, int64_t b) const {
    switch (op_) {
      case BinaryOp::kAdd: return Datum::Int64(a + b);
      case BinaryOp::kSub: return Datum::Int64(a - b);
      case BinaryOp::kMul: return Datum::Int64(a * b);
      case BinaryOp::kMod:
        if (b == 0) return Datum::Null(DataType::kInt64);
        return Datum::Int64(a % b);
      default: return Datum::Null(DataType::kInt64);
    }
  }

  Datum EvalDoubleArithmetic(double a, double b) const {
    switch (op_) {
      case BinaryOp::kAdd: return Datum::Double(a + b);
      case BinaryOp::kSub: return Datum::Double(a - b);
      case BinaryOp::kMul: return Datum::Double(a * b);
      case BinaryOp::kMod:
        if (b == 0.0) return Datum::Null(DataType::kDouble);
        return Datum::Double(std::fmod(a, b));
      default: return Datum::Null(DataType::kDouble);
    }
  }

  Datum EvalComparison(const Datum& l, const Datum& r) const {
    int cmp;
    if (l.type() == DataType::kVarchar && r.type() == DataType::kVarchar) {
      cmp = l.string_value().compare(r.string_value());
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    } else if (l.type() == DataType::kVarchar ||
               r.type() == DataType::kVarchar) {
      return Datum::Null(DataType::kInt64);  // incomparable types
    } else {
      const double a = l.AsDouble();
      const double b = r.AsDouble();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    }
    switch (op_) {
      case BinaryOp::kEq: return BoolDatum(cmp == 0);
      case BinaryOp::kNe: return BoolDatum(cmp != 0);
      case BinaryOp::kLt: return BoolDatum(cmp < 0);
      case BinaryOp::kLe: return BoolDatum(cmp <= 0);
      case BinaryOp::kGt: return BoolDatum(cmp > 0);
      case BinaryOp::kGe: return BoolDatum(cmp >= 0);
      default: return Datum::Null(DataType::kInt64);
    }
  }

  BinaryOp op_;
  BoundExprPtr left_;
  BoundExprPtr right_;
  bool both_int_;
};

class IsNullNode : public BoundExpr {
 public:
  IsNullNode(BoundExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}
  Datum Eval(const EvalContext& ctx) const override {
    const bool is_null = operand_->Eval(ctx).is_null();
    return BoolDatum(negated_ ? !is_null : is_null);
  }
  void EvalBatch(const storage::Row* rows, size_t count, Status* error,
                 Datum* out) const override {
    operand_->EvalBatch(rows, count, error, out);
    for (size_t i = 0; i < count; ++i) {
      const bool is_null = out[i].is_null();
      out[i] = BoolDatum(negated_ ? !is_null : is_null);
    }
  }
  DataType result_type() const override { return DataType::kInt64; }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    const int v = operand_->EmitBytecode(b);
    if (v < 0) return -1;
    return b->IsNull(v, negated_);
  }

 private:
  BoundExprPtr operand_;
  bool negated_;
};

class CaseNode : public BoundExpr {
 public:
  CaseNode(std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches,
           BoundExprPtr else_expr)
      : branches_(std::move(branches)), else_expr_(std::move(else_expr)) {}

  Datum Eval(const EvalContext& ctx) const override {
    for (const auto& [cond, result] : branches_) {
      if (IsTrue(cond->Eval(ctx))) return result->Eval(ctx);
    }
    if (else_expr_) return else_expr_->Eval(ctx);
    return Datum::Null(result_type());
  }

  DataType result_type() const override {
    return branches_.front().second->result_type();
  }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    std::vector<std::pair<exec::BytecodeBuilder::ValueId,
                          exec::BytecodeBuilder::ValueId>>
        branches;
    branches.reserve(branches_.size());
    for (const auto& [cond, result] : branches_) {
      const int c = cond->EmitBytecode(b);
      if (c < 0) return -1;
      const int v = result->EmitBytecode(b);
      if (v < 0) return -1;
      branches.emplace_back(c, v);
    }
    int else_value = exec::BytecodeBuilder::kInvalidValue;
    if (else_expr_) {
      else_value = else_expr_->EmitBytecode(b);
      if (else_value < 0) return -1;
    }
    return b->Case(branches, else_value, result_type());
  }

 private:
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches_;
  BoundExprPtr else_expr_;
};

// ---------------------------------------------------------------------------
// Builtin scalar functions
// ---------------------------------------------------------------------------

enum class BuiltinFn {
  kSqrt, kAbs, kExp, kLn, kPower, kMod, kFloor, kCeil, kRound,
  kLeast, kGreatest, kCoalesce,
};

struct BuiltinEntry {
  const char* name;
  BuiltinFn fn;
  int min_args;
  int max_args;  // -1 = unbounded
};

constexpr BuiltinEntry kBuiltins[] = {
    {"sqrt", BuiltinFn::kSqrt, 1, 1},
    {"abs", BuiltinFn::kAbs, 1, 1},
    {"exp", BuiltinFn::kExp, 1, 1},
    {"ln", BuiltinFn::kLn, 1, 1},
    {"log", BuiltinFn::kLn, 1, 1},
    {"power", BuiltinFn::kPower, 2, 2},
    {"pow", BuiltinFn::kPower, 2, 2},
    {"mod", BuiltinFn::kMod, 2, 2},
    {"floor", BuiltinFn::kFloor, 1, 1},
    {"ceil", BuiltinFn::kCeil, 1, 1},
    {"round", BuiltinFn::kRound, 1, 1},
    {"least", BuiltinFn::kLeast, 1, -1},
    {"greatest", BuiltinFn::kGreatest, 1, -1},
    {"coalesce", BuiltinFn::kCoalesce, 1, -1},
};

const BuiltinEntry* FindBuiltin(const std::string& lower_name) {
  for (const auto& e : kBuiltins) {
    if (lower_name == e.name) return &e;
  }
  return nullptr;
}

class BuiltinFnNode : public BoundExpr {
 public:
  BuiltinFnNode(BuiltinFn fn, std::vector<BoundExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}

  Datum Eval(const EvalContext& ctx) const override {
    switch (fn_) {
      case BuiltinFn::kCoalesce: {
        for (const auto& a : args_) {
          Datum v = a->Eval(ctx);
          if (!v.is_null()) return v;
        }
        return Datum::Null(DataType::kDouble);
      }
      case BuiltinFn::kLeast:
      case BuiltinFn::kGreatest: {
        bool have = false;
        double best = 0.0;
        for (const auto& a : args_) {
          const Datum v = a->Eval(ctx);
          if (v.is_null()) return Datum::Null(DataType::kDouble);
          const double x = v.AsDouble();
          if (!have || (fn_ == BuiltinFn::kLeast ? x < best : x > best)) {
            best = x;
            have = true;
          }
        }
        return Datum::Double(best);
      }
      default:
        break;
    }
    const Datum a0 = args_[0]->Eval(ctx);
    if (a0.is_null()) return Datum::Null(DataType::kDouble);
    const double x = a0.AsDouble();
    switch (fn_) {
      case BuiltinFn::kSqrt:
        if (x < 0.0) return Datum::Null(DataType::kDouble);
        return Datum::Double(std::sqrt(x));
      case BuiltinFn::kAbs:
        return Datum::Double(std::fabs(x));
      case BuiltinFn::kExp:
        return Datum::Double(std::exp(x));
      case BuiltinFn::kLn:
        if (x <= 0.0) return Datum::Null(DataType::kDouble);
        return Datum::Double(std::log(x));
      case BuiltinFn::kFloor:
        return Datum::Double(std::floor(x));
      case BuiltinFn::kCeil:
        return Datum::Double(std::ceil(x));
      case BuiltinFn::kRound:
        return Datum::Double(std::round(x));
      case BuiltinFn::kPower:
      case BuiltinFn::kMod: {
        const Datum a1 = args_[1]->Eval(ctx);
        if (a1.is_null()) return Datum::Null(DataType::kDouble);
        const double y = a1.AsDouble();
        if (fn_ == BuiltinFn::kPower) return Datum::Double(std::pow(x, y));
        if (y == 0.0) return Datum::Null(DataType::kDouble);
        return Datum::Double(std::fmod(x, y));
      }
      default:
        return Datum::Null(DataType::kDouble);
    }
  }

  DataType result_type() const override { return DataType::kDouble; }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    std::vector<exec::BytecodeBuilder::ValueId> args;
    args.reserve(args_.size());
    for (const auto& a : args_) {
      const int v = a->EmitBytecode(b);
      if (v < 0) return -1;
      args.push_back(v);
    }
    switch (fn_) {
      case BuiltinFn::kSqrt:
        return b->Call1(exec::ScalarFn1::kSqrt, args[0]);
      case BuiltinFn::kAbs:
        return b->Call1(exec::ScalarFn1::kAbs, args[0]);
      case BuiltinFn::kExp:
        return b->Call1(exec::ScalarFn1::kExp, args[0]);
      case BuiltinFn::kLn:
        return b->Call1(exec::ScalarFn1::kLn, args[0]);
      case BuiltinFn::kFloor:
        return b->Call1(exec::ScalarFn1::kFloor, args[0]);
      case BuiltinFn::kCeil:
        return b->Call1(exec::ScalarFn1::kCeil, args[0]);
      case BuiltinFn::kRound:
        return b->Call1(exec::ScalarFn1::kRound, args[0]);
      case BuiltinFn::kPower:
        return b->Power(args[0], args[1]);
      case BuiltinFn::kMod:
        return b->FMod(args[0], args[1]);
      case BuiltinFn::kLeast:
        return b->Least(args);
      case BuiltinFn::kGreatest:
        return b->Greatest(args);
      case BuiltinFn::kCoalesce:
        return b->Coalesce(args);
    }
    return -1;
  }

 private:
  BuiltinFn fn_;
  std::vector<BoundExprPtr> args_;
};

class ScalarUdfNode : public BoundExpr {
 public:
  ScalarUdfNode(const udf::ScalarUdf* udf, std::vector<BoundExprPtr> args)
      : udf_(udf), args_(std::move(args)) {}

  Datum Eval(const EvalContext& ctx) const override {
    std::vector<Datum> values(args_.size());
    for (size_t i = 0; i < args_.size(); ++i) values[i] = args_[i]->Eval(ctx);
    StatusOr<Datum> result = udf_->Invoke(values);
    if (result.ok()) result = udf_->ConformResult(std::move(result).value());
    if (!result.ok()) {
      if (ctx.error != nullptr && ctx.error->ok()) *ctx.error = result.status();
      return Datum::Null(udf_->return_type());
    }
    return std::move(result).value();
  }

  DataType result_type() const override { return udf_->return_type(); }

  int EmitBytecode(exec::BytecodeBuilder* b) const override {
    std::vector<exec::BytecodeBuilder::ValueId> args;
    args.reserve(args_.size());
    for (const auto& a : args_) {
      const int v = a->EmitBytecode(b);
      if (v < 0) return -1;
      args.push_back(v);
    }
    return b->Call(udf_, args);
  }

 private:
  const udf::ScalarUdf* udf_;
  std::vector<BoundExprPtr> args_;
};

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

bool IsBuiltinAggregateName(const std::string& lower) {
  return lower == "sum" || lower == "count" || lower == "min" ||
         lower == "max" || lower == "avg";
}

bool IsAggregateCall(const Expr& expr, const udf::UdfRegistry* registry) {
  if (expr.kind != ExprKind::kFunction) return false;
  if (IsBuiltinAggregateName(expr.function_name)) return true;
  return registry != nullptr &&
         registry->FindAggregate(expr.function_name) != nullptr;
}

/// Context shared by row-level binding and aggregate select binding.
struct AggBindState {
  const std::vector<const Expr*>* group_by = nullptr;
  std::vector<std::string> group_by_text;
  std::vector<BoundExprPtr>* key_exprs = nullptr;
  std::vector<AggregateSpec>* specs = nullptr;
  std::vector<DataType> key_types;
};

StatusOr<BoundExprPtr> Bind(const Expr& expr, const BindingScope& scope,
                            const udf::UdfRegistry* registry,
                            AggBindState* agg);

StatusOr<AggregateSpec> BindAggregateCall(const Expr& expr,
                                          const BindingScope& scope,
                                          const udf::UdfRegistry* registry) {
  AggregateSpec spec;
  const std::string& name = expr.function_name;
  const bool star_arg =
      expr.args.size() == 1 && expr.args[0]->kind == ExprKind::kStar;

  if (IsBuiltinAggregateName(name)) {
    if (name == "count" && star_arg) {
      spec.kind = AggregateSpec::Kind::kCountStar;
      spec.result_type = DataType::kInt64;
      return spec;
    }
    if (expr.args.size() != 1 || star_arg) {
      return Status::InvalidArgument("aggregate " + name +
                                     " takes exactly one argument");
    }
    NLQ_ASSIGN_OR_RETURN(BoundExprPtr arg,
                         Bind(*expr.args[0], scope, registry, nullptr));
    if (name == "count") {
      spec.kind = AggregateSpec::Kind::kCount;
      spec.result_type = DataType::kInt64;
    } else if (name == "sum") {
      spec.kind = AggregateSpec::Kind::kSum;
      spec.result_type = DataType::kDouble;
    } else if (name == "avg") {
      spec.kind = AggregateSpec::Kind::kAvg;
      spec.result_type = DataType::kDouble;
    } else if (name == "min") {
      spec.kind = AggregateSpec::Kind::kMin;
      spec.result_type = arg->result_type();
    } else {
      spec.kind = AggregateSpec::Kind::kMax;
      spec.result_type = arg->result_type();
    }
    spec.args.push_back(std::move(arg));
    return spec;
  }

  const udf::AggregateUdf* udaf = registry->FindAggregate(name);
  NLQ_RETURN_IF_ERROR(udaf->CheckArity(expr.args.size()));
  spec.kind = AggregateSpec::Kind::kUdf;
  spec.udaf = udaf;
  spec.result_type = udaf->return_type();
  for (const auto& a : expr.args) {
    NLQ_ASSIGN_OR_RETURN(BoundExprPtr arg, Bind(*a, scope, registry, nullptr));
    spec.args.push_back(std::move(arg));
  }
  return spec;
}

StatusOr<BoundExprPtr> Bind(const Expr& expr, const BindingScope& scope,
                            const udf::UdfRegistry* registry,
                            AggBindState* agg) {
  // In aggregate-select mode, any subexpression textually equal to a
  // GROUP BY expression becomes a key reference.
  if (agg != nullptr) {
    const std::string text = expr.ToString();
    for (size_t i = 0; i < agg->group_by_text.size(); ++i) {
      if (agg->group_by_text[i] == text) {
        return BoundExprPtr(new KeyRefNode(i, agg->key_types[i]));
      }
    }
    if (IsAggregateCall(expr, registry)) {
      NLQ_ASSIGN_OR_RETURN(AggregateSpec spec,
                           BindAggregateCall(expr, scope, registry));
      const size_t slot = agg->specs->size();
      const DataType type = spec.result_type;
      agg->specs->push_back(std::move(spec));
      return BoundExprPtr(new AggRefNode(slot, type));
    }
  } else if (IsAggregateCall(expr, registry)) {
    return Status::InvalidArgument(
        "aggregate function '" + expr.function_name +
        "' is not allowed in this context (WHERE / aggregate argument)");
  }

  switch (expr.kind) {
    case ExprKind::kLiteral:
      return BoundExprPtr(new LiteralNode(expr.literal));
    case ExprKind::kColumnRef: {
      if (agg != nullptr) {
        return Status::InvalidArgument(
            "column '" + expr.ToString() +
            "' must appear in GROUP BY or inside an aggregate");
      }
      NLQ_ASSIGN_OR_RETURN(auto slot_type,
                           scope.Resolve(expr.table, expr.column));
      if (const Datum* value = scope.ConstantAt(slot_type.first)) {
        return BoundExprPtr(new LiteralNode(
            value->is_null() ? Datum::Null(slot_type.second) : *value,
            /*in_sql_text=*/false));
      }
      return BoundExprPtr(new InputRefNode(slot_type.first, slot_type.second));
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid in COUNT(*)");
    case ExprKind::kUnary: {
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr operand,
                           Bind(*expr.left, scope, registry, agg));
      return BoundExprPtr(new UnaryNode(expr.unary_op, std::move(operand)));
    }
    case ExprKind::kBinary: {
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr left,
                           Bind(*expr.left, scope, registry, agg));
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr right,
                           Bind(*expr.right, scope, registry, agg));
      return BoundExprPtr(
          new BinaryNode(expr.binary_op, std::move(left), std::move(right)));
    }
    case ExprKind::kFunction: {
      std::vector<BoundExprPtr> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        NLQ_ASSIGN_OR_RETURN(BoundExprPtr arg, Bind(*a, scope, registry, agg));
        args.push_back(std::move(arg));
      }
      if (const BuiltinEntry* builtin = FindBuiltin(expr.function_name)) {
        const int argc = static_cast<int>(args.size());
        if (argc < builtin->min_args ||
            (builtin->max_args >= 0 && argc > builtin->max_args)) {
          return Status::InvalidArgument("wrong number of arguments to " +
                                         expr.function_name + "()");
        }
        return BoundExprPtr(new BuiltinFnNode(builtin->fn, std::move(args)));
      }
      if (registry != nullptr) {
        if (const udf::ScalarUdf* udf =
                registry->FindScalar(expr.function_name)) {
          NLQ_RETURN_IF_ERROR(udf->CheckArity(args.size()));
          return BoundExprPtr(new ScalarUdfNode(udf, std::move(args)));
        }
      }
      return Status::NotFound("unknown function '" + expr.function_name + "'");
    }
    case ExprKind::kCase: {
      std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches;
      for (const auto& b : expr.branches) {
        NLQ_ASSIGN_OR_RETURN(BoundExprPtr cond,
                             Bind(*b.condition, scope, registry, agg));
        NLQ_ASSIGN_OR_RETURN(BoundExprPtr result,
                             Bind(*b.result, scope, registry, agg));
        branches.emplace_back(std::move(cond), std::move(result));
      }
      BoundExprPtr else_expr;
      if (expr.else_expr) {
        NLQ_ASSIGN_OR_RETURN(else_expr,
                             Bind(*expr.else_expr, scope, registry, agg));
      }
      return BoundExprPtr(
          new CaseNode(std::move(branches), std::move(else_expr)));
    }
    case ExprKind::kIsNull: {
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr operand,
                           Bind(*expr.left, scope, registry, agg));
      return BoundExprPtr(
          new IsNullNode(std::move(operand), expr.is_null_negated));
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

void BoundExpr::EvalBatch(const storage::Row* rows, size_t count,
                          Status* error, Datum* out) const {
  EvalContext ctx;
  ctx.error = error;
  for (size_t i = 0; i < count; ++i) {
    ctx.input = &rows[i];
    out[i] = Eval(ctx);
  }
}

// ---------------------------------------------------------------------------
// BindingScope
// ---------------------------------------------------------------------------

void BindingScope::AddTable(std::string alias, const storage::Schema* schema) {
  tables_.push_back({std::move(alias), schema, total_slots_, nullptr});
  total_slots_ += schema->num_columns();
}

void BindingScope::AddConstantTable(std::string alias,
                                    const storage::Schema* schema,
                                    const storage::Row* row) {
  tables_.push_back({std::move(alias), schema, total_slots_, row});
  total_slots_ += schema->num_columns();
}

const Datum* BindingScope::ConstantAt(size_t slot) const {
  for (const auto& entry : tables_) {
    if (slot < entry.offset ||
        slot >= entry.offset + entry.schema->num_columns()) {
      continue;
    }
    return entry.row != nullptr ? &(*entry.row)[slot - entry.offset] : nullptr;
  }
  return nullptr;
}

StatusOr<std::pair<size_t, DataType>> BindingScope::Resolve(
    const std::string& table, const std::string& column) const {
  bool found = false;
  std::pair<size_t, DataType> result{0, DataType::kDouble};
  for (const auto& entry : tables_) {
    if (!table.empty() && !EqualsIgnoreCase(entry.alias, table)) continue;
    const auto idx = entry.schema->ColumnIndex(column);
    if (!idx.ok()) continue;
    if (found) {
      return Status::InvalidArgument("ambiguous column reference '" + column +
                                     "'");
    }
    found = true;
    result = {entry.offset + idx.value(),
              entry.schema->column(idx.value()).type};
  }
  if (!found) {
    const std::string qualified =
        table.empty() ? column : table + "." + column;
    return Status::NotFound("unknown column '" + qualified + "'");
  }
  return result;
}

std::vector<storage::Column> BindingScope::AllColumns() const {
  std::vector<storage::Column> cols;
  cols.reserve(total_slots_);
  for (const auto& entry : tables_) {
    for (const auto& c : entry.schema->columns()) cols.push_back(c);
  }
  return cols;
}

// ---------------------------------------------------------------------------
// Public binding entry points
// ---------------------------------------------------------------------------

StatusOr<BoundExprPtr> BindRowExpr(const Expr& expr, const BindingScope& scope,
                                   const udf::UdfRegistry* registry) {
  return Bind(expr, scope, registry, nullptr);
}

BoundExprPtr MakeBoundInputRef(size_t slot, DataType type) {
  return BoundExprPtr(new InputRefNode(slot, type));
}

namespace {

/// True if `pred` holds for `expr` or any subexpression.
template <typename Pred>
bool AnySubexpr(const Expr& expr, const Pred& pred) {
  if (pred(expr)) return true;
  if (expr.left && AnySubexpr(*expr.left, pred)) return true;
  if (expr.right && AnySubexpr(*expr.right, pred)) return true;
  for (const auto& a : expr.args) {
    if (AnySubexpr(*a, pred)) return true;
  }
  for (const auto& b : expr.branches) {
    if (AnySubexpr(*b.condition, pred)) return true;
    if (AnySubexpr(*b.result, pred)) return true;
  }
  return expr.else_expr && AnySubexpr(*expr.else_expr, pred);
}

}  // namespace

bool ContainsAggregate(const Expr& expr, const udf::UdfRegistry* registry) {
  return AnySubexpr(expr, [registry](const Expr& e) {
    return IsAggregateCall(e, registry);
  });
}

bool ContainsScalarUdfCall(const Expr& expr,
                           const udf::UdfRegistry* registry) {
  return AnySubexpr(expr, [registry](const Expr& e) {
    return e.kind == ExprKind::kFunction &&
           FindBuiltin(e.function_name) == nullptr && registry != nullptr &&
           registry->FindScalar(e.function_name) != nullptr;
  });
}

StatusOr<BoundAggregation> BindAggregation(
    const std::vector<const Expr*>& select_exprs,
    const std::vector<const Expr*>& group_by, const BindingScope& scope,
    const udf::UdfRegistry* registry) {
  BoundAggregation out;
  AggBindState state;
  state.group_by = &group_by;
  state.key_exprs = &out.key_exprs;
  state.specs = &out.specs;

  for (const Expr* g : group_by) {
    if (ContainsAggregate(*g, registry)) {
      return Status::InvalidArgument("aggregates are not allowed in GROUP BY");
    }
    NLQ_ASSIGN_OR_RETURN(BoundExprPtr key,
                         BindRowExpr(*g, scope, registry));
    state.group_by_text.push_back(g->ToString());
    state.key_types.push_back(key->result_type());
    out.key_exprs.push_back(std::move(key));
  }

  for (const Expr* s : select_exprs) {
    NLQ_ASSIGN_OR_RETURN(BoundExprPtr proj, Bind(*s, scope, registry, &state));
    out.projections.push_back(std::move(proj));
  }
  return out;
}

}  // namespace nlq::engine
