#ifndef NLQ_ENGINE_EXEC_BYTECODE_H_
#define NLQ_ENGINE_EXEC_BYTECODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "engine/ast.h"
#include "engine/exec/column_stream.h"
#include "storage/value.h"
#include "udf/udf.h"

namespace nlq::engine {
class BoundExpr;  // engine/expr.h (included by bytecode.cc only)
}  // namespace nlq::engine

namespace nlq::engine::exec {

using nlq::engine::BoundExpr;

/// Register-based expression bytecode (DESIGN.md §11).
///
/// A compiled program is a flat instruction array evaluated batch at a
/// time: every instruction reads whole operand registers (one value
/// lane of `n` doubles or int64s plus a null bitmap) and writes one
/// destination register. NULL semantics are "compute everywhere, mask
/// by bitmap": null lanes always hold the defined value 0/0.0, ops
/// propagate bitmaps (union for strict ops, the SQL three-valued rules
/// for AND/OR), and consumers skip rows whose result bit is set — the
/// same skip-row rule the interpreted Datum path implements with
/// is_null() checks. Every opcode but kCall is total (division by
/// zero, sqrt of a negative, ln of a non-positive all yield NULL,
/// exactly like expr.cc). kCall runs a scalar UDF, which may fail: its
/// error becomes the evaluation's status, and the VM polls its
/// QueryContext between the call's 256-row slices. Because the VM
/// computes every operand on every row while the interpreter skips
/// some (AND/OR, CASE, COALESCE, LEAST/GREATEST, a second power/mod
/// argument), a call never compiles in an operand the interpreter
/// evaluates lazily: both paths then run each call on the same rows.
enum class OpCode : uint8_t {
  kLoadCol,    // dst <- input slot `slot` (type from instr.type)
  kLoadConst,  // dst <- broadcast constant
  kCastDouble, // dst.d <- (double) a.i
  kTruthD,     // dst.i <- a.d != 0 (bool; NULL stays NULL)
  kTruthI,     // dst.i <- a.i != 0
  kNegI,       // dst.i <- -a.i
  kNegD,       // dst.d <- -a.d
  kNot,        // dst.i <- !a.i (3VL: NULL stays NULL)
  kAddI, kSubI, kMulI,
  kModI,       // b == 0 -> NULL
  kAddD, kSubD, kMulD,
  kDivD,       // b == 0.0 -> NULL
  kModD,       // fmod; b == 0.0 -> NULL
  // Comparisons take double operands (ints are cast first — the
  // interpreter compares via Datum::AsDouble) and produce bool int64.
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
  kAnd, kOr,   // 3VL over bool regs (false/true dominate resp.)
  kIsNull,     // dst.i <- null(a); never NULL itself
  kIsNotNull,
  kSqrt,       // a < 0 -> NULL
  kAbs, kExp,
  kLn,         // a <= 0 -> NULL
  kFloor, kCeil, kRound,
  kPow,
  kFmod,       // builtin mod(x, y): doubles, y == 0 -> NULL
  kLeast,      // dst.d <- b < a ? b : a; NULL if either is
  kGreatest,   // dst.d <- b > a ? b : a; NULL if either is
  kCoalesce,   // dst <- a unless null(a), else b (same-typed lanes)
  kSelect,     // dst <- truth(a) ? b : c (a bool; NULL cond -> c)
  kCall,       // dst <- ScalarUdf::InvokeSpans over calls()[slot]
};

/// One instruction. `dst`/`a`/`b`/`c` are register numbers; `type` is
/// the destination's lane type (kDouble or kInt64 — VARCHAR never
/// compiles); `slot`/const_* are the kLoadCol / kLoadConst payloads,
/// and `slot` indexes CompiledExpr::calls() for kCall.
struct Instr {
  OpCode op = OpCode::kLoadConst;
  storage::DataType type = storage::DataType::kDouble;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t slot = 0;
  bool const_null = false;
  double const_d = 0.0;
  int64_t const_i = 0;
};

/// Payload of one kCall: the scalar UDF and its arguments in call
/// order. A constant argument stays a scalar (never a broadcast
/// register); any other argument is a register of lane type `type`.
struct CallSite {
  struct Arg {
    bool is_const = false;
    storage::Datum value;  // is_const
    uint16_t reg = 0;      // !is_const
    storage::DataType type = storage::DataType::kDouble;
  };
  const udf::ScalarUdf* udf = nullptr;
  std::vector<Arg> args;
};

/// An immutable compiled program, shared by the streams of one plan;
/// all evaluation state lives in ExprVM.
class CompiledExpr {
 public:
  const std::vector<Instr>& instructions() const { return instrs_; }
  const std::vector<CallSite>& calls() const { return calls_; }
  size_t num_instructions() const { return instrs_.size(); }
  size_t num_regs() const { return num_regs_; }
  uint16_t result_reg() const { return result_reg_; }
  storage::DataType result_type() const { return result_type_; }

  /// Input slots the program reads, sorted unique — the planner
  /// projects exactly these into the columnar scan.
  const std::vector<size_t>& referenced_slots() const { return slots_; }

  /// Byte-serialized program: two statements producing identical
  /// instruction streams have equal keys (maintained views key on it).
  const std::string& cache_key() const { return key_; }

 private:
  friend class BytecodeBuilder;
  std::vector<Instr> instrs_;
  std::vector<CallSite> calls_;
  size_t num_regs_ = 0;
  uint16_t result_reg_ = 0;
  storage::DataType result_type_ = storage::DataType::kDouble;
  std::vector<size_t> slots_;
  std::string key_;
};

using CompiledExprPtr = std::shared_ptr<const CompiledExpr>;

/// Unary builtin functions the bytecode implements directly.
enum class ScalarFn1 : uint8_t {
  kSqrt, kAbs, kExp, kLn, kFloor, kCeil, kRound,
};

/// Emission interface BoundExpr::EmitBytecode targets. Values are SSA:
/// every emit returns a fresh ValueId (or kInvalidValue when the
/// construct cannot compile — the caller then falls back to the
/// interpreter). The builder applies the interpreter's typing rules
/// (int arithmetic stays int, everything else widens to double,
/// comparisons go through double) and folds constant subtrees at
/// emission time by evaluating the would-be instruction over a
/// one-row batch — the folded semantics are the VM's own, so
/// `price * (1 + 0.07)` compiles to load, load-const 1.07, mul. A
/// scalar UDF call is never folded, so planning never invokes a UDF.
/// Each value records whether it is computed from a call; the lazily
/// evaluated operands (the right side of AND/OR, every CASE operand
/// but the first condition, every COALESCE/LEAST/GREATEST argument but
/// the first, the second power/mod argument) return kInvalidValue when
/// they hold one.
class BytecodeBuilder {
 public:
  using ValueId = int;
  static constexpr ValueId kInvalidValue = -1;

  BytecodeBuilder();
  ~BytecodeBuilder();

  /// Numeric or NULL literal; VARCHAR returns kInvalidValue.
  ValueId Constant(const storage::Datum& v);
  /// Input slot of numeric type; VARCHAR returns kInvalidValue.
  ValueId LoadColumn(size_t slot, storage::DataType type);
  ValueId Unary(UnaryOp op, ValueId v);
  ValueId Binary(BinaryOp op, ValueId l, ValueId r);
  ValueId IsNull(ValueId v, bool negated);
  ValueId Call1(ScalarFn1 fn, ValueId v);
  ValueId Power(ValueId x, ValueId y);
  ValueId FMod(ValueId x, ValueId y);
  /// least/greatest fold left over double-widened args (any NULL arg
  /// makes the result NULL, like the interpreter).
  ValueId Least(const std::vector<ValueId>& args);
  ValueId Greatest(const std::vector<ValueId>& args);
  /// First non-NULL arg. Compiles only when every arg is DOUBLE: the
  /// interpreter returns the winning arg's dynamic Datum unchanged
  /// (and NULL-of-DOUBLE when all are NULL), which a typed register
  /// can only reproduce for an all-double argument list.
  ValueId Coalesce(const std::vector<ValueId>& args);
  /// CASE WHEN chain; branches/else must share one static type.
  ValueId Case(const std::vector<std::pair<ValueId, ValueId>>& branches,
               ValueId else_value, storage::DataType result_type);
  /// Scalar UDF call; kInvalidValue when the UDF returns VARCHAR (a
  /// VARCHAR argument is already invalid).
  ValueId Call(const udf::ScalarUdf* udf, const std::vector<ValueId>& args);

  /// Seals the program with `root` as its result. Returns nullptr if
  /// root is invalid.
  std::shared_ptr<CompiledExpr> Finish(ValueId root);

 private:
  struct Value;
  ValueId Emit(Instr instr, storage::DataType type);
  ValueId EmitOrFold(Instr instr, storage::DataType type,
                     std::initializer_list<ValueId> operands);
  /// Materializes a (possibly constant) value into a register.
  uint16_t Reg(ValueId v);
  ValueId CastDouble(ValueId v);
  ValueId Truth(ValueId v);
  bool Valid(ValueId v) const;
  storage::DataType TypeOf(ValueId v) const;
  bool HasCall(ValueId v) const;
  bool AnyCallAfterFirst(const std::vector<ValueId>& args) const;

  std::vector<Value> values_;
  std::vector<Instr> instrs_;
  std::vector<CallSite> calls_;
  size_t num_regs_ = 0;
  std::vector<size_t> slots_;
};

/// Per-stream evaluation scratch: the register file. One VM serves
/// any number of programs/batches; register storage is sized to the
/// largest (program, batch) seen and reused. Not thread-safe — each
/// stream owns its VM. `ctx` (may be null) is polled between the
/// slices of a UDF call.
class ExprVM {
 public:
  explicit ExprVM(const QueryContext* ctx = nullptr) : ctx_(ctx) {}

  /// One register's lanes. Exactly one of d/i is meaningful, by the
  /// instruction's type; null lanes hold 0/0.0.
  struct Reg {
    std::vector<double> d;
    std::vector<int64_t> i;
    std::vector<uint64_t> nulls;
    bool has_nulls = false;
  };

  /// Evaluates `prog` over column spans. `slot_to_col[slot]` maps each
  /// referenced input slot to its index in `in`'s columns. Fails only
  /// through a UDF call: the UDF's error, or the context's
  /// cancellation/deadline status.
  Status EvalSpans(const CompiledExpr& prog, const ColumnSpanBatch& in,
                   const std::vector<int>& slot_to_col, size_t n);

  /// The result register after an Eval call for `prog`.
  const Reg& result(const CompiledExpr& prog) const {
    return regs_[prog.result_reg()];
  }

  /// Boxes the result into Datums (NULL bits become typed SQL NULLs).
  void BoxResult(const CompiledExpr& prog, size_t n,
                 storage::Datum* out) const;

  /// Copies the result register out of the VM (so several programs'
  /// results can be held at once while the VM is reused).
  void CopyResult(const CompiledExpr& prog, size_t n, Reg* out) const;

  /// ANDs the result's truth value into `keep` (row kept only when
  /// the verdict is non-NULL and non-zero — FilterNode's rule).
  void AndResultIntoKeep(const CompiledExpr& prog, size_t n,
                         uint8_t* keep) const;

 private:
  Status RunCall(const CompiledExpr& prog, const Instr& ins, size_t n);

  const QueryContext* ctx_;
  std::vector<Reg> regs_;
  std::vector<udf::SpanArg> call_args_;
};

/// Boxes one lane of a VM register as a Datum of `type`.
storage::Datum BoxRegValue(const ExprVM::Reg& reg, storage::DataType type,
                           size_t r);

/// Compiles `expr` to bytecode, counting `bytecode.compiles`. Returns
/// nullptr — interpreted fallback — when the tree contains a construct
/// the bytecode cannot express (VARCHAR operands or UDF results,
/// aggregate refs, mixed-type COALESCE/CASE) or when the `expr_compile`
/// failpoint is armed.
CompiledExprPtr CompileExpr(const BoundExpr& expr);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_BYTECODE_H_
