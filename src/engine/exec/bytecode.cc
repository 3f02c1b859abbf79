#include "engine/exec/bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"
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

/// Runs `prog` over `n` rows. `load` fills the destination register of
/// each kLoadCol instruction (the only input-dependent opcode), so the
/// row-gather and span-copy entry points share every operator loop —
/// and therefore produce bit-identical results by construction.
template <typename Loader>
void RunProgram(const CompiledExpr& prog, size_t n, std::vector<ExprVM::Reg>* regs,
                Loader load) {
  if (regs->size() < prog.num_regs()) regs->resize(prog.num_regs());
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
    ExprVM::Reg& dst = (*regs)[ins.dst];
    // Registers are SSA (one def each), so operand aliasing with dst
    // cannot occur and every loop may write dst freely.
    switch (ins.op) {
      case OpCode::kLoadCol: {
        prep(dst, ins.type);
        load(ins, &dst);
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) {
          dst.d[r] = static_cast<double>(a.i[r]);
        }
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.d[r] != 0.0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] != 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = -a.i[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) dst.d[r] = -a.d[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNot: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.i[r] = a.i[r] == 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kAddI:
      case OpCode::kSubI:
      case OpCode::kMulI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        const bool want_null = ins.op == OpCode::kIsNull;
        for (size_t r = 0; r < n; ++r) {
          const bool is_null = a.has_nulls && NullBitGet(a.nulls.data(), r);
          dst.i[r] = is_null == want_null ? 1 : 0;
        }
        break;
      }
      case OpCode::kSqrt: {
        const ExprVM::Reg& a = (*regs)[ins.a];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) dst.d[r] = std::pow(a.d[r], b.d[r]);
        break;
      }
      case OpCode::kLeast:
      case OpCode::kGreatest: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
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
        const ExprVM::Reg& cond = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        const ExprVM::Reg& c = (*regs)[ins.c];
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
    }
  }
}

}  // namespace

void ExprVM::EvalRows(const CompiledExpr& prog, const storage::Row* rows,
                      size_t n) {
  RunProgram(prog, n, &regs_, [&](const Instr& ins, Reg* dst) {
    const size_t slot = ins.slot;
    if (ins.type == DataType::kDouble) {
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows[r][slot];
        if (v.is_null()) {
          dst->d[r] = 0.0;
          NullBitSet(dst->nulls.data(), r);
          dst->has_nulls = true;
        } else {
          dst->d[r] = v.AsDouble();
        }
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows[r][slot];
        if (v.is_null()) {
          dst->i[r] = 0;
          NullBitSet(dst->nulls.data(), r);
          dst->has_nulls = true;
        } else {
          dst->i[r] = v.int_value();
        }
      }
    }
  });
}

void ExprVM::EvalSpans(const CompiledExpr& prog, const ColumnSpanBatch& in,
                       const std::vector<int>& slot_to_col, size_t n) {
  RunProgram(prog, n, &regs_, [&](const Instr& ins, Reg* dst) {
    const int col = slot_to_col[ins.slot];
    if (ins.type == DataType::kDouble) {
      const double* src = in.doubles[col];
      std::memcpy(dst->d.data(), src, n * sizeof(double));
    } else {
      const int64_t* src = in.ints[col];
      std::memcpy(dst->i.data(), src, n * sizeof(int64_t));
    }
    const uint64_t* nb = in.null_bits[col];
    if (nb != nullptr) {
      std::memcpy(dst->nulls.data(), nb,
                  NullBitmapWords(n) * sizeof(uint64_t));
      dst->has_nulls = AnyBitSet(dst->nulls);
    }
  });
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
};

BytecodeBuilder::BytecodeBuilder() = default;
BytecodeBuilder::~BytecodeBuilder() = default;

bool BytecodeBuilder::Valid(ValueId v) const {
  return v >= 0 && static_cast<size_t>(v) < values_.size();
}

DataType BytecodeBuilder::TypeOf(ValueId v) const { return values_[v].type; }

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
    ExprVM vm;
    vm.EvalRows(tmp, nullptr, 1);
    return Constant(BoxRegValue(vm.result(tmp), type, 0));
  }
  size_t k = 0;
  for (ValueId v : operands) {
    const uint16_t reg = Reg(v);
    if (k == 0) instr.a = reg;
    if (k == 1) instr.b = reg;
    if (k == 2) instr.c = reg;
    ++k;
  }
  return Emit(instr, type);
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
      // Eager evaluation is safe: the compilable subset is pure and
      // total, so the interpreter's short-circuit order is
      // unobservable.
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
  if (!Valid(x) || !Valid(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kPow;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::FMod(ValueId x, ValueId y) {
  if (!Valid(x) || !Valid(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kFmod;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::Least(
    const std::vector<ValueId>& args) {
  if (args.empty()) return kInvalidValue;
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
  if (args.empty()) return kInvalidValue;
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
  if (args.empty()) return kInvalidValue;
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

namespace {

void AppendBytes(std::string* key, const void* p, size_t size) {
  key->append(static_cast<const char*>(p), size);
}

std::string SerializeProgram(const std::vector<Instr>& instrs,
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
  prog->num_regs_ = num_regs_;
  prog->result_reg_ = result_reg;
  prog->result_type_ = TypeOf(root);
  std::sort(slots_.begin(), slots_.end());
  slots_.erase(std::unique(slots_.begin(), slots_.end()), slots_.end());
  prog->slots_ = std::move(slots_);
  prog->key_ =
      SerializeProgram(prog->instrs_, result_reg, prog->result_type_);
  return prog;
}

// ---------------------------------------------------------------------------
// Cache + entry point
// ---------------------------------------------------------------------------

CompiledExprPtr BytecodeCache::Intern(std::shared_ptr<CompiledExpr> prog) {
  // Registry lookups are per-compile (statement planning), never
  // per-row; references are re-resolved each time because
  // ResetForTest invalidates cached pointers.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(prog->cache_key());
  if (it != cache_.end()) {
    MetricsRegistry::Global().counter("bytecode.cache_hits").Increment();
    return it->second;
  }
  if (cache_.size() >= kMaxEntries) cache_.clear();
  CompiledExprPtr shared = std::move(prog);
  cache_.emplace(shared->cache_key(), shared);
  MetricsRegistry::Global().counter("bytecode.compiles").Increment();
  return shared;
}

size_t BytecodeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

CompiledExprPtr CompileExpr(const BoundExpr& expr, BytecodeCache* cache) {
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
  if (cache != nullptr) return cache->Intern(std::move(prog));
  MetricsRegistry::Global().counter("bytecode.compiles").Increment();
  return prog;
}

}  // namespace nlq::engine::exec
