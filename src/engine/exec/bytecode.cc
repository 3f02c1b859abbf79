#include "engine/exec/bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "engine/exec/plan.h"
#include "engine/expr.h"
#include "storage/column_vector.h"

namespace nlq::engine::exec {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;

// ---------------------------------------------------------------------------
// ExprVM
// ---------------------------------------------------------------------------

namespace {

bool AnyBitSet(const std::vector<uint64_t>& words) {
  for (uint64_t w : words) {
    if (w != 0) return true;
  }
  return false;
}

}  // namespace

Status ExprVM::EvalSpans(const CompiledExpr& prog, const ColumnSpanBatch& in,
                         const std::vector<int>& slot_to_col, size_t n) {
  if (regs_.size() < prog.num_regs()) regs_.resize(prog.num_regs());
  const size_t words = NullBitmapWords(n);

  auto prep = [&](ExprVM::Reg& r, DataType t) {
    if (t == DataType::kDouble) {
      r.d.resize(n);
    } else {
      r.i.resize(n);
    }
    r.nulls.assign(words, 0);
    r.has_nulls = false;
  };
  auto copy_nulls = [&](ExprVM::Reg& dst, const ExprVM::Reg& a) {
    if (!a.has_nulls) return;
    dst.nulls = a.nulls;
    dst.has_nulls = true;
  };
  auto union_nulls = [&](ExprVM::Reg& dst, const ExprVM::Reg& a,
                         const ExprVM::Reg& b) {
    if (!a.has_nulls && !b.has_nulls) return;
    for (size_t w = 0; w < words; ++w) {
      dst.nulls[w] = a.nulls[w] | b.nulls[w];
    }
    dst.has_nulls = true;
  };

  for (const Instr& ins : prog.instructions()) {
    ExprVM::Reg& dst = regs_[ins.dst];
    // Registers are SSA (one def each), so operand aliasing with dst
    // cannot occur and every loop may write dst freely.
    switch (ins.op) {
      case OpCode::kLoadCol: {
        prep(dst, ins.type);
        const int col = slot_to_col[ins.slot];
        if (ins.type == DataType::kDouble) {
          std::memcpy(dst.d.data(), in.doubles[col], n * sizeof(double));
        } else {
          std::memcpy(dst.i.data(), in.ints[col], n * sizeof(int64_t));
        }
        const uint64_t* nb = in.null_bits[col];
        if (nb != nullptr) {
          std::memcpy(dst.nulls.data(), nb, words * sizeof(uint64_t));
          dst.has_nulls = AnyBitSet(dst.nulls);
        }
        break;
      }
      case OpCode::kLoadConst: {
        prep(dst, ins.type);
        if (ins.const_null) {
          dst.nulls.assign(words, ~uint64_t{0});
          dst.has_nulls = true;
        }
        if (ins.type == DataType::kDouble) {
          std::fill(dst.d.begin(), dst.d.end(),
                    ins.const_null ? 0.0 : ins.const_d);
        } else {
          std::fill(dst.i.begin(), dst.i.end(),
                    ins.const_null ? int64_t{0} : ins.const_i);
        }
        break;
      }
      case OpCode::kCastDouble: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) {
          dst.d[r] = static_cast<double>(a.i[r]);
        }
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthD: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.d[r] != 0.0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthI: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] != 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegI: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = -a.i[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegD: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) dst.d[r] = -a.d[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNot: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] == 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kAddI:
      case OpCode::kSubI:
      case OpCode::kMulI: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kInt64);
        if (ins.op == OpCode::kAddI) {
          for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] + b.i[r];
        } else if (ins.op == OpCode::kSubI) {
          for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] - b.i[r];
        } else {
          for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] * b.i[r];
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kModI: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kInt64);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.i[r] == 0) {
            dst.i[r] = 0;
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          } else {
            dst.i[r] = a.i[r] % b.i[r];
          }
        }
        break;
      }
      case OpCode::kAddD:
      case OpCode::kSubD:
      case OpCode::kMulD: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kDouble);
        if (ins.op == OpCode::kAddD) {
          for (size_t r = 0; r < n; ++r) dst.d[r] = a.d[r] + b.d[r];
        } else if (ins.op == OpCode::kSubD) {
          for (size_t r = 0; r < n; ++r) dst.d[r] = a.d[r] - b.d[r];
        } else {
          for (size_t r = 0; r < n; ++r) dst.d[r] = a.d[r] * b.d[r];
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kDivD: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.d[r] == 0.0) {
            dst.d[r] = 0.0;
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          } else {
            dst.d[r] = a.d[r] / b.d[r];
          }
        }
        break;
      }
      case OpCode::kModD:
      case OpCode::kFmod: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.d[r] == 0.0) {
            dst.d[r] = 0.0;
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          } else {
            dst.d[r] = std::fmod(a.d[r], b.d[r]);
          }
        }
        break;
      }
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kInt64);
        // The -1/0/1 ladder mirrors the interpreter's EvalComparison,
        // including its NaN behavior (NaN compares "equal").
        for (size_t r = 0; r < n; ++r) {
          const double av = a.d[r];
          const double bv = b.d[r];
          const int cmp = av < bv ? -1 : (av > bv ? 1 : 0);
          bool pass = false;
          switch (ins.op) {
            case OpCode::kCmpEq: pass = cmp == 0; break;
            case OpCode::kCmpNe: pass = cmp != 0; break;
            case OpCode::kCmpLt: pass = cmp < 0; break;
            case OpCode::kCmpLe: pass = cmp <= 0; break;
            case OpCode::kCmpGt: pass = cmp > 0; break;
            default: pass = cmp >= 0; break;
          }
          dst.i[r] = pass ? 1 : 0;
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kInt64);
        const bool is_and = ins.op == OpCode::kAnd;
        if (!a.has_nulls && !b.has_nulls) {
          for (size_t r = 0; r < n; ++r) {
            dst.i[r] = is_and ? (a.i[r] & b.i[r]) : (a.i[r] | b.i[r]);
          }
          break;
        }
        for (size_t r = 0; r < n; ++r) {
          const bool an = a.has_nulls && NullBitGet(a.nulls.data(), r);
          const bool bn = b.has_nulls && NullBitGet(b.nulls.data(), r);
          const bool at = !an && a.i[r] != 0;
          const bool bt = !bn && b.i[r] != 0;
          if (is_and) {
            if ((!an && !at) || (!bn && !bt)) {
              dst.i[r] = 0;  // a definite FALSE dominates
            } else if (an || bn) {
              dst.i[r] = 0;
              NullBitSet(dst.nulls.data(), r);
              dst.has_nulls = true;
            } else {
              dst.i[r] = 1;
            }
          } else {
            if (at || bt) {
              dst.i[r] = 1;  // a definite TRUE dominates
            } else if (an || bn) {
              dst.i[r] = 0;
              NullBitSet(dst.nulls.data(), r);
              dst.has_nulls = true;
            } else {
              dst.i[r] = 0;
            }
          }
        }
        break;
      }
      case OpCode::kIsNull:
      case OpCode::kIsNotNull: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kInt64);
        const bool want_null = ins.op == OpCode::kIsNull;
        for (size_t r = 0; r < n; ++r) {
          const bool is_null = a.has_nulls && NullBitGet(a.nulls.data(), r);
          dst.i[r] = is_null == want_null ? 1 : 0;
        }
        break;
      }
      case OpCode::kSqrt: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        for (size_t r = 0; r < n; ++r) {
          if (a.d[r] < 0.0) {
            dst.d[r] = 0.0;
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          } else {
            dst.d[r] = std::sqrt(a.d[r]);
          }
        }
        break;
      }
      case OpCode::kLn: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        for (size_t r = 0; r < n; ++r) {
          if (a.d[r] <= 0.0) {
            dst.d[r] = 0.0;
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          } else {
            dst.d[r] = std::log(a.d[r]);
          }
        }
        break;
      }
      case OpCode::kAbs:
      case OpCode::kExp:
      case OpCode::kFloor:
      case OpCode::kCeil:
      case OpCode::kRound: {
        const ExprVM::Reg& a = regs_[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        switch (ins.op) {
          case OpCode::kAbs:
            for (size_t r = 0; r < n; ++r) dst.d[r] = std::fabs(a.d[r]);
            break;
          case OpCode::kExp:
            for (size_t r = 0; r < n; ++r) dst.d[r] = std::exp(a.d[r]);
            break;
          case OpCode::kFloor:
            for (size_t r = 0; r < n; ++r) dst.d[r] = std::floor(a.d[r]);
            break;
          case OpCode::kCeil:
            for (size_t r = 0; r < n; ++r) dst.d[r] = std::ceil(a.d[r]);
            break;
          default:
            for (size_t r = 0; r < n; ++r) dst.d[r] = std::round(a.d[r]);
            break;
        }
        break;
      }
      case OpCode::kPow: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) dst.d[r] = std::pow(a.d[r], b.d[r]);
        break;
      }
      case OpCode::kLeast:
      case OpCode::kGreatest: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        // Fold direction matches the interpreter's running-best scan:
        // the newer operand (b) replaces the accumulator (a) only on a
        // strict win, so NaN ties resolve identically.
        if (ins.op == OpCode::kLeast) {
          for (size_t r = 0; r < n; ++r) {
            dst.d[r] = b.d[r] < a.d[r] ? b.d[r] : a.d[r];
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            dst.d[r] = b.d[r] > a.d[r] ? b.d[r] : a.d[r];
          }
        }
        break;
      }
      case OpCode::kCoalesce: {
        const ExprVM::Reg& a = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        prep(dst, ins.type);
        for (size_t r = 0; r < n; ++r) {
          const bool an = a.has_nulls && NullBitGet(a.nulls.data(), r);
          const ExprVM::Reg& src = an ? b : a;
          if (ins.type == DataType::kDouble) {
            dst.d[r] = src.d[r];
          } else {
            dst.i[r] = src.i[r];
          }
          if (an && b.has_nulls && NullBitGet(b.nulls.data(), r)) {
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          }
        }
        break;
      }
      case OpCode::kSelect: {
        const ExprVM::Reg& cond = regs_[ins.a];
        const ExprVM::Reg& b = regs_[ins.b];
        const ExprVM::Reg& c = regs_[ins.c];
        prep(dst, ins.type);
        for (size_t r = 0; r < n; ++r) {
          const bool taken =
              !(cond.has_nulls && NullBitGet(cond.nulls.data(), r)) &&
              cond.i[r] != 0;
          const ExprVM::Reg& src = taken ? b : c;
          if (ins.type == DataType::kDouble) {
            dst.d[r] = src.d[r];
          } else {
            dst.i[r] = src.i[r];
          }
          if (src.has_nulls && NullBitGet(src.nulls.data(), r)) {
            NullBitSet(dst.nulls.data(), r);
            dst.has_nulls = true;
          }
        }
        break;
      }
      case OpCode::kCall: {
        prep(dst, ins.type);
        NLQ_RETURN_IF_ERROR(RunCall(prog, ins, n));
        dst.has_nulls = AnyBitSet(dst.nulls);
        break;
      }
    }
  }
  return Status::OK();
}

Status ExprVM::RunCall(const CompiledExpr& prog, const Instr& ins, size_t n) {
  const CallSite& call = prog.calls()[ins.slot];
  Reg& dst = regs_[ins.dst];
  call_args_.resize(call.args.size());
  // One UDF call per kCancelPollRows-row slice (a multiple of 64, so
  // every slice starts on a null-bitmap word), polling the context
  // between slices.
  for (size_t begin = 0; begin < n; begin += kCancelPollRows) {
    if (begin > 0 && ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
    const size_t rows = std::min(kCancelPollRows, n - begin);
    const size_t word = begin / 64;
    for (size_t a = 0; a < call.args.size(); ++a) {
      const CallSite::Arg& arg = call.args[a];
      udf::SpanArg& out = call_args_[a];
      out = udf::SpanArg();
      if (arg.is_const) {
        out.constant = &arg.value;
        continue;
      }
      const Reg& reg = regs_[arg.reg];
      out.type = arg.type;
      if (arg.type == DataType::kDouble) {
        out.d = reg.d.data() + begin;
      } else {
        out.i = reg.i.data() + begin;
      }
      if (reg.has_nulls) out.nulls = reg.nulls.data() + word;
    }
    udf::SpanOutput result;
    if (ins.type == DataType::kDouble) {
      result.d = dst.d.data() + begin;
    } else {
      result.i = dst.i.data() + begin;
    }
    result.nulls = dst.nulls.data() + word;
    NLQ_RETURN_IF_ERROR(call.udf->InvokeSpans(call_args_, rows, result));
  }
  return Status::OK();
}

Datum BoxRegValue(const ExprVM::Reg& reg, DataType type, size_t r) {
  if (reg.has_nulls && NullBitGet(reg.nulls.data(), r)) {
    return Datum::Null(type);
  }
  return type == DataType::kDouble ? Datum::Double(reg.d[r])
                                   : Datum::Int64(reg.i[r]);
}

void ExprVM::BoxResult(const CompiledExpr& prog, size_t n,
                       Datum* out) const {
  const Reg& reg = regs_[prog.result_reg()];
  const DataType type = prog.result_type();
  for (size_t r = 0; r < n; ++r) out[r] = BoxRegValue(reg, type, r);
}

void ExprVM::CopyResult(const CompiledExpr& prog, size_t n, Reg* out) const {
  const Reg& reg = regs_[prog.result_reg()];
  if (prog.result_type() == DataType::kDouble) {
    out->d.assign(reg.d.begin(), reg.d.begin() + n);
  } else {
    out->i.assign(reg.i.begin(), reg.i.begin() + n);
  }
  out->nulls.assign(reg.nulls.begin(),
                    reg.nulls.begin() + NullBitmapWords(n));
  out->has_nulls = reg.has_nulls;
}

void ExprVM::AndResultIntoKeep(const CompiledExpr& prog, size_t n,
                               uint8_t* keep) const {
  const Reg& reg = regs_[prog.result_reg()];
  const bool is_double = prog.result_type() == DataType::kDouble;
  for (size_t r = 0; r < n; ++r) {
    if (reg.has_nulls && NullBitGet(reg.nulls.data(), r)) {
      keep[r] = 0;
      continue;
    }
    const bool truthy = is_double ? reg.d[r] != 0.0 : reg.i[r] != 0;
    if (!truthy) keep[r] = 0;
  }
}

// ---------------------------------------------------------------------------
// BytecodeBuilder
// ---------------------------------------------------------------------------

struct BytecodeBuilder::Value {
  storage::DataType type = storage::DataType::kDouble;
  bool is_const = false;
  storage::Datum cval;
  int reg = -1;  // materialized register, -1 until needed
  bool has_call = false;  // computed from a kCall result
};

BytecodeBuilder::BytecodeBuilder() = default;
BytecodeBuilder::~BytecodeBuilder() = default;

bool BytecodeBuilder::Valid(ValueId v) const {
  return v >= 0 && static_cast<size_t>(v) < values_.size();
}

DataType BytecodeBuilder::TypeOf(ValueId v) const { return values_[v].type; }

bool BytecodeBuilder::HasCall(ValueId v) const {
  return Valid(v) && values_[v].has_call;
}

bool BytecodeBuilder::AnyCallAfterFirst(
    const std::vector<ValueId>& args) const {
  for (size_t i = 1; i < args.size(); ++i) {
    if (HasCall(args[i])) return true;
  }
  return false;
}

BytecodeBuilder::ValueId BytecodeBuilder::Constant(const Datum& v) {
  if (v.type() == DataType::kVarchar) return kInvalidValue;
  Value val;
  val.type = v.type();
  val.is_const = true;
  val.cval = v;
  values_.push_back(std::move(val));
  return static_cast<ValueId>(values_.size() - 1);
}

BytecodeBuilder::ValueId BytecodeBuilder::LoadColumn(size_t slot,
                                                     DataType type) {
  if (type == DataType::kVarchar) return kInvalidValue;
  if (slot > UINT32_MAX) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kLoadCol;
  ins.type = type;
  ins.slot = static_cast<uint32_t>(slot);
  slots_.push_back(slot);
  return Emit(ins, type);
}

BytecodeBuilder::ValueId BytecodeBuilder::Emit(Instr instr, DataType type) {
  if (num_regs_ >= UINT16_MAX) return kInvalidValue;
  instr.dst = static_cast<uint16_t>(num_regs_++);
  instr.type = type;
  instrs_.push_back(instr);
  Value val;
  val.type = type;
  val.reg = instr.dst;
  values_.push_back(std::move(val));
  return static_cast<ValueId>(values_.size() - 1);
}

uint16_t BytecodeBuilder::Reg(ValueId v) {
  Value& val = values_[v];
  if (val.reg >= 0) return static_cast<uint16_t>(val.reg);
  // A constant used by a non-foldable consumer: materialize one
  // broadcast load (per use site is fine — trees are small).
  Instr ins;
  ins.op = OpCode::kLoadConst;
  ins.type = val.type;
  ins.const_null = val.cval.is_null();
  if (!ins.const_null) {
    if (val.type == DataType::kDouble) {
      ins.const_d = val.cval.double_value();
    } else {
      ins.const_i = val.cval.int_value();
    }
  }
  ins.dst = static_cast<uint16_t>(num_regs_++);
  instrs_.push_back(ins);
  val.reg = ins.dst;
  return ins.dst;
}

BytecodeBuilder::ValueId BytecodeBuilder::EmitOrFold(
    Instr instr, DataType type, std::initializer_list<ValueId> operands) {
  bool all_const = true;
  for (ValueId v : operands) {
    if (!Valid(v)) return kInvalidValue;
    all_const = all_const && values_[v].is_const;
  }
  if (all_const && operands.size() > 0) {
    // Constant folding: run the single instruction over a one-row
    // batch through the VM itself, so the folded value is computed by
    // exactly the code that would have run per batch.
    CompiledExpr tmp;
    uint16_t opregs[3] = {0, 0, 0};
    size_t k = 0;
    for (ValueId v : operands) {
      const Value& val = values_[v];
      Instr load;
      load.op = OpCode::kLoadConst;
      load.type = val.type;
      load.const_null = val.cval.is_null();
      if (!load.const_null) {
        if (val.type == DataType::kDouble) {
          load.const_d = val.cval.double_value();
        } else {
          load.const_i = val.cval.int_value();
        }
      }
      load.dst = static_cast<uint16_t>(k);
      opregs[k++] = load.dst;
      tmp.instrs_.push_back(load);
    }
    instr.a = opregs[0];
    instr.b = operands.size() > 1 ? opregs[1] : opregs[0];
    instr.c = operands.size() > 2 ? opregs[2] : opregs[0];
    instr.dst = static_cast<uint16_t>(k);
    instr.type = type;
    tmp.instrs_.push_back(instr);
    tmp.num_regs_ = k + 1;
    tmp.result_reg_ = instr.dst;
    tmp.result_type_ = type;
    // Only total opcodes fold (never kCall), so evaluation cannot fail.
    ExprVM vm;
    (void)vm.EvalSpans(tmp, ColumnSpanBatch{}, {}, 1);
    return Constant(BoxRegValue(vm.result(tmp), type, 0));
  }
  size_t k = 0;
  bool has_call = false;
  for (ValueId v : operands) {
    has_call = has_call || values_[v].has_call;
    const uint16_t reg = Reg(v);
    if (k == 0) instr.a = reg;
    if (k == 1) instr.b = reg;
    if (k == 2) instr.c = reg;
    ++k;
  }
  const ValueId out = Emit(instr, type);
  if (Valid(out)) values_[out].has_call = has_call;
  return out;
}

BytecodeBuilder::ValueId BytecodeBuilder::CastDouble(ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  if (TypeOf(v) == DataType::kDouble) return v;
  Instr ins;
  ins.op = OpCode::kCastDouble;
  return EmitOrFold(ins, DataType::kDouble, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Truth(ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  ins.op = TypeOf(v) == DataType::kDouble ? OpCode::kTruthD : OpCode::kTruthI;
  return EmitOrFold(ins, DataType::kInt64, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Unary(UnaryOp op, ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  if (op == UnaryOp::kNegate) {
    Instr ins;
    const DataType t = TypeOf(v);
    ins.op = t == DataType::kDouble ? OpCode::kNegD : OpCode::kNegI;
    return EmitOrFold(ins, t, {v});
  }
  // NOT: truth-normalize, then flip with NULL preserved (3VL).
  const ValueId t = Truth(v);
  if (!Valid(t)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kNot;
  return EmitOrFold(ins, DataType::kInt64, {t});
}

BytecodeBuilder::ValueId BytecodeBuilder::Binary(BinaryOp op, ValueId l,
                                                 ValueId r) {
  if (!Valid(l) || !Valid(r)) return kInvalidValue;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kMod: {
      const bool both_int = TypeOf(l) == DataType::kInt64 &&
                            TypeOf(r) == DataType::kInt64;
      Instr ins;
      if (both_int) {
        switch (op) {
          case BinaryOp::kAdd: ins.op = OpCode::kAddI; break;
          case BinaryOp::kSub: ins.op = OpCode::kSubI; break;
          case BinaryOp::kMul: ins.op = OpCode::kMulI; break;
          default: ins.op = OpCode::kModI; break;
        }
        return EmitOrFold(ins, DataType::kInt64, {l, r});
      }
      switch (op) {
        case BinaryOp::kAdd: ins.op = OpCode::kAddD; break;
        case BinaryOp::kSub: ins.op = OpCode::kSubD; break;
        case BinaryOp::kMul: ins.op = OpCode::kMulD; break;
        default: ins.op = OpCode::kModD; break;
      }
      return EmitOrFold(ins, DataType::kDouble, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kDiv: {
      Instr ins;
      ins.op = OpCode::kDivD;
      return EmitOrFold(ins, DataType::kDouble, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      Instr ins;
      switch (op) {
        case BinaryOp::kEq: ins.op = OpCode::kCmpEq; break;
        case BinaryOp::kNe: ins.op = OpCode::kCmpNe; break;
        case BinaryOp::kLt: ins.op = OpCode::kCmpLt; break;
        case BinaryOp::kLe: ins.op = OpCode::kCmpLe; break;
        case BinaryOp::kGt: ins.op = OpCode::kCmpGt; break;
        default: ins.op = OpCode::kCmpGe; break;
      }
      return EmitOrFold(ins, DataType::kInt64, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      // The VM evaluates both operands on every row; the interpreter
      // skips the right one once the left decides. Only a call can
      // observe the difference (it may fail, or be slow), so a right
      // operand holding one stays interpreted.
      if (HasCall(r)) return kInvalidValue;
      Instr ins;
      ins.op = op == BinaryOp::kAnd ? OpCode::kAnd : OpCode::kOr;
      return EmitOrFold(ins, DataType::kInt64, {Truth(l), Truth(r)});
    }
  }
  return kInvalidValue;
}

BytecodeBuilder::ValueId BytecodeBuilder::IsNull(ValueId v, bool negated) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  ins.op = negated ? OpCode::kIsNotNull : OpCode::kIsNull;
  return EmitOrFold(ins, DataType::kInt64, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Call1(ScalarFn1 fn, ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  switch (fn) {
    case ScalarFn1::kSqrt: ins.op = OpCode::kSqrt; break;
    case ScalarFn1::kAbs: ins.op = OpCode::kAbs; break;
    case ScalarFn1::kExp: ins.op = OpCode::kExp; break;
    case ScalarFn1::kLn: ins.op = OpCode::kLn; break;
    case ScalarFn1::kFloor: ins.op = OpCode::kFloor; break;
    case ScalarFn1::kCeil: ins.op = OpCode::kCeil; break;
    case ScalarFn1::kRound: ins.op = OpCode::kRound; break;
  }
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(v)});
}

BytecodeBuilder::ValueId BytecodeBuilder::Power(ValueId x, ValueId y) {
  // The interpreter skips y when x is NULL.
  if (!Valid(x) || !Valid(y) || HasCall(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kPow;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::FMod(ValueId x, ValueId y) {
  if (!Valid(x) || !Valid(y) || HasCall(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kFmod;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::Least(
    const std::vector<ValueId>& args) {
  if (args.empty() || AnyCallAfterFirst(args)) return kInvalidValue;
  ValueId acc = CastDouble(args[0]);
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kLeast;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, CastDouble(args[i])});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Greatest(
    const std::vector<ValueId>& args) {
  if (args.empty() || AnyCallAfterFirst(args)) return kInvalidValue;
  ValueId acc = CastDouble(args[0]);
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kGreatest;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, CastDouble(args[i])});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Coalesce(
    const std::vector<ValueId>& args) {
  if (args.empty() || AnyCallAfterFirst(args)) return kInvalidValue;
  for (ValueId v : args) {
    if (!Valid(v) || TypeOf(v) != DataType::kDouble) return kInvalidValue;
  }
  ValueId acc = args[0];
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kCoalesce;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, args[i]});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Case(
    const std::vector<std::pair<ValueId, ValueId>>& branches,
    ValueId else_value, DataType result_type) {
  if (branches.empty() || result_type == DataType::kVarchar) {
    return kInvalidValue;
  }
  // All alternatives must share one static numeric type; a mixed CASE
  // returns dynamically-typed Datums the typed register cannot
  // reproduce, so it stays interpreted.
  for (const auto& [cond, value] : branches) {
    if (!Valid(cond) || !Valid(value) || TypeOf(value) != result_type) {
      return kInvalidValue;
    }
  }
  // A row evaluates the first condition, later conditions until one
  // holds, then one value: only the first condition may hold a call.
  for (size_t i = 0; i < branches.size(); ++i) {
    if ((i > 0 && HasCall(branches[i].first)) || HasCall(branches[i].second)) {
      return kInvalidValue;
    }
  }
  if (HasCall(else_value)) return kInvalidValue;
  ValueId acc = else_value;
  if (acc == kInvalidValue) {
    acc = Constant(Datum::Null(result_type));
  } else if (TypeOf(acc) != result_type) {
    return kInvalidValue;
  }
  for (size_t i = branches.size(); i-- > 0 && Valid(acc);) {
    Instr ins;
    ins.op = OpCode::kSelect;
    acc = EmitOrFold(ins, result_type,
                     {Truth(branches[i].first), branches[i].second, acc});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Call(
    const udf::ScalarUdf* udf, const std::vector<ValueId>& args) {
  const DataType type = udf->return_type();
  if (type == DataType::kVarchar) return kInvalidValue;
  CallSite call;
  call.udf = udf;
  for (const ValueId v : args) {
    if (!Valid(v)) return kInvalidValue;
    CallSite::Arg arg;
    arg.type = TypeOf(v);
    arg.is_const = values_[v].is_const;
    if (arg.is_const) {
      arg.value = values_[v].cval;
    } else {
      arg.reg = Reg(v);
    }
    call.args.push_back(std::move(arg));
  }
  if (calls_.size() > UINT32_MAX) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kCall;
  ins.slot = static_cast<uint32_t>(calls_.size());
  calls_.push_back(std::move(call));
  const ValueId out = Emit(ins, type);
  if (Valid(out)) values_[out].has_call = true;
  return out;
}

namespace {

void AppendBytes(std::string* key, const void* p, size_t size) {
  key->append(static_cast<const char*>(p), size);
}

std::string SerializeProgram(const std::vector<Instr>& instrs,
                             const std::vector<CallSite>& calls,
                             uint16_t result_reg, DataType result_type) {
  std::string key;
  key.reserve(instrs.size() * 32 + 8);
  for (const Instr& ins : instrs) {
    key.push_back(static_cast<char>(ins.op));
    key.push_back(static_cast<char>(ins.type));
    key.push_back(static_cast<char>(ins.const_null));
    AppendBytes(&key, &ins.dst, sizeof(ins.dst));
    AppendBytes(&key, &ins.a, sizeof(ins.a));
    AppendBytes(&key, &ins.b, sizeof(ins.b));
    AppendBytes(&key, &ins.c, sizeof(ins.c));
    AppendBytes(&key, &ins.slot, sizeof(ins.slot));
    AppendBytes(&key, &ins.const_d, sizeof(ins.const_d));
    AppendBytes(&key, &ins.const_i, sizeof(ins.const_i));
  }
  for (const CallSite& call : calls) {
    // The UDF by identity and name, then each argument: a register, or
    // a constant's type, NULL flag and value bits.
    AppendBytes(&key, &call.udf, sizeof(call.udf));
    key += call.udf->name();
    key.push_back('\0');
    for (const CallSite::Arg& arg : call.args) {
      key.push_back(static_cast<char>(arg.is_const));
      key.push_back(static_cast<char>(arg.type));
      if (!arg.is_const) {
        AppendBytes(&key, &arg.reg, sizeof(arg.reg));
        continue;
      }
      key.push_back(static_cast<char>(arg.value.is_null()));
      const double d = arg.value.AsDouble();
      const int64_t i = arg.type == DataType::kInt64 ? arg.value.int_value() : 0;
      AppendBytes(&key, &d, sizeof(d));
      AppendBytes(&key, &i, sizeof(i));
    }
  }
  AppendBytes(&key, &result_reg, sizeof(result_reg));
  key.push_back(static_cast<char>(result_type));
  return key;
}

}  // namespace

std::shared_ptr<CompiledExpr> BytecodeBuilder::Finish(ValueId root) {
  if (!Valid(root)) return nullptr;
  const uint16_t result_reg = Reg(root);
  auto prog = std::make_shared<CompiledExpr>();
  prog->instrs_ = std::move(instrs_);
  prog->calls_ = std::move(calls_);
  prog->num_regs_ = num_regs_;
  prog->result_reg_ = result_reg;
  prog->result_type_ = TypeOf(root);
  std::sort(slots_.begin(), slots_.end());
  slots_.erase(std::unique(slots_.begin(), slots_.end()), slots_.end());
  prog->slots_ = std::move(slots_);
  prog->key_ = SerializeProgram(prog->instrs_, prog->calls_, result_reg,
                                prog->result_type_);
  return prog;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

CompiledExprPtr CompileExpr(const BoundExpr& expr) {
#if defined(NLQ_FAILPOINTS)
  // Armed `expr_compile` forces the interpreted fallback everywhere.
  // Guarded by the build flag (not just Check) so Release binaries
  // stay free of failpoint symbols.
  if (!failpoint::Check("expr_compile").ok()) return nullptr;
#endif
  BytecodeBuilder builder;
  const int root = expr.EmitBytecode(&builder);
  if (root < 0) return nullptr;
  std::shared_ptr<CompiledExpr> prog = builder.Finish(root);
  if (prog == nullptr) return nullptr;
  MetricsRegistry::Global().counter("bytecode.compiles").Increment();
  return prog;
}

}  // namespace nlq::engine::exec
