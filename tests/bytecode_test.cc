// Unit tests for the expression bytecode layer (engine/exec/bytecode.h):
// compilation and constant folding, NULL/3VL semantics, bit-exact parity
// between the compiled VM and the interpreted evaluator, scalar UDF
// calls, fallback rules, and the compile cache with its process
// counters.

#include "engine/exec/bytecode.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/exec/column_stream.h"
#include "engine/exec/plan.h"
#include "engine/expr.h"
#include "engine/parser.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "tests/test_util.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::Row;

// Test relation: x, y DOUBLE; i, j BIGINT; s VARCHAR (never compiles).
// Rows exercise every soft-error and NULL edge the ISA defines.
class BytecodeTest : public ::testing::Test {
 protected:
  BytecodeTest()
      : schema_({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"i", DataType::kInt64},
                 {"j", DataType::kInt64},
                 {"s", DataType::kVarchar}}) {
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/1);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    rows_ = {
        {Datum::Double(2.5), Datum::Double(4.0), Datum::Int64(7),
         Datum::Int64(3), Datum::Varchar("a")},
        {Datum::Double(-9.0), Datum::Double(0.0), Datum::Int64(-5),
         Datum::Int64(0), Datum::Varchar("b")},
        {Datum::Null(DataType::kDouble), Datum::Double(1.5), Datum::Int64(0),
         Datum::Null(DataType::kInt64), Datum::Varchar("c")},
        {Datum::Double(nan), Datum::Double(2.0), Datum::Int64(42),
         Datum::Int64(-4), Datum::Varchar("d")},
        {Datum::Double(0.0), Datum::Null(DataType::kDouble), Datum::Int64(1),
         Datum::Int64(1), Datum::Varchar("e")},
    };
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    BindingScope scope;
    scope.AddTable("T", &schema_);
    auto bound = BindRowExpr(*parsed.value(), scope, &db_->udfs());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return bound.ok() ? std::move(bound.value()) : nullptr;
  }

  CompiledExprPtr Compile(const std::string& text) {
    BoundExprPtr bound = Bind(text);
    return bound ? CompileExpr(*bound) : nullptr;
  }

  /// Asserts two Datums are indistinguishable, comparing doubles by bit
  /// pattern so -0.0 vs 0.0 or differing NaN payloads fail.
  static void ExpectSameDatum(const Datum& a, const Datum& b,
                              const std::string& what) {
    ASSERT_EQ(a.type(), b.type()) << what;
    ASSERT_EQ(a.is_null(), b.is_null()) << what;
    if (a.is_null()) return;
    if (a.type() == DataType::kDouble) {
      uint64_t abits = 0, bbits = 0;
      const double ad = a.double_value(), bd = b.double_value();
      std::memcpy(&abits, &ad, sizeof(abits));
      std::memcpy(&bbits, &bd, sizeof(bbits));
      EXPECT_EQ(abits, bbits) << what;
    } else if (a.type() == DataType::kInt64) {
      EXPECT_EQ(a.int_value(), b.int_value()) << what;
    } else {
      EXPECT_EQ(a.string_value(), b.string_value()) << what;
    }
  }

  /// The central check: interpreted Eval and compiled EvalSpans
  /// produce identical Datums on every row.
  void ExpectParity(const std::string& text) {
    SCOPED_TRACE(text);
    BoundExprPtr bound = Bind(text);
    ASSERT_NE(bound, nullptr);
    CompiledExprPtr prog = CompileExpr(*bound);
    ASSERT_NE(prog, nullptr) << "expected \"" << text << "\" to compile";

    const size_t n = rows_.size();
    std::vector<Datum> interpreted(n);
    Status error;
    EvalContext ctx;
    ctx.error = &error;
    for (size_t r = 0; r < n; ++r) {
      ctx.input = &rows_[r];
      interpreted[r] = bound->Eval(ctx);
    }
    NLQ_ASSERT_OK(error);

    ExprVM vm;
    std::vector<Datum> via_spans(n);
    SpanData spans = BuildSpans(*prog, n);
    NLQ_ASSERT_OK(vm.EvalSpans(*prog, spans.batch, spans.slot_to_col, n));
    vm.BoxResult(*prog, n, via_spans.data());

    for (size_t r = 0; r < n; ++r) {
      const std::string at = text + " @row " + std::to_string(r);
      ExpectSameDatum(interpreted[r], via_spans[r], at + " (spans)");
    }
  }

  /// Columnar copy of rows_ holding exactly the program's referenced
  /// slots, with null bitmaps, as ColumnarScan would produce them.
  struct SpanData {
    ColumnSpanBatch batch;
    std::vector<int> slot_to_col;
    std::vector<std::vector<double>> dbufs;
    std::vector<std::vector<int64_t>> ibufs;
    std::vector<std::vector<uint64_t>> nbufs;
  };

  SpanData BuildSpans(const CompiledExpr& prog, size_t n) const {
    SpanData out;
    out.slot_to_col.assign(schema_.num_columns(), -1);
    out.batch.rows = n;
    for (const size_t slot : prog.referenced_slots()) {
      const DataType type = schema_.column(slot).type;
      out.slot_to_col[slot] = static_cast<int>(out.batch.doubles.size());
      auto& dbuf = out.dbufs.emplace_back(n, 0.0);
      auto& ibuf = out.ibufs.emplace_back(n, 0);
      auto& nbuf = out.nbufs.emplace_back((n + 63) / 64, 0);
      bool has_nulls = false;
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows_[r][slot];
        if (v.is_null()) {
          nbuf[r / 64] |= uint64_t{1} << (r % 64);
          has_nulls = true;
        } else if (type == DataType::kDouble) {
          dbuf[r] = v.double_value();
        } else {
          ibuf[r] = v.int_value();
        }
      }
      out.batch.doubles.push_back(type == DataType::kDouble ? dbuf.data()
                                                            : nullptr);
      out.batch.ints.push_back(type == DataType::kInt64 ? ibuf.data()
                                                        : nullptr);
      out.batch.null_bits.push_back(has_nulls ? nbuf.data() : nullptr);
    }
    return out;
  }

  storage::Schema schema_;
  std::unique_ptr<Database> db_;
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, FoldsConstantSubtreeIntoOneLoad) {
  // x * (1 + 0.07) -> load x, load-const 1.07, mul: the constant
  // subtree never becomes instructions of its own.
  CompiledExprPtr prog = Compile("x * (1 + 0.07)");
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->num_instructions(), 3u);
  const auto& in = prog->instructions();
  EXPECT_EQ(in[0].op, OpCode::kLoadCol);
  EXPECT_EQ(in[1].op, OpCode::kLoadConst);
  EXPECT_DOUBLE_EQ(in[1].const_d, 1.07);
  EXPECT_EQ(in[2].op, OpCode::kMulD);
  EXPECT_EQ(prog->result_type(), DataType::kDouble);
}

TEST_F(BytecodeTest, FoldsFullyConstantExpressionToSingleConst) {
  CompiledExprPtr prog = Compile("1 + 2 * 3");
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->num_instructions(), 1u);
  EXPECT_EQ(prog->instructions()[0].op, OpCode::kLoadConst);
  EXPECT_EQ(prog->instructions()[0].const_i, 7);
  EXPECT_EQ(prog->result_type(), DataType::kInt64);
  EXPECT_TRUE(prog->referenced_slots().empty());
}

TEST_F(BytecodeTest, FoldingUsesVmSoftErrorSemantics) {
  // Folding evaluates the VM's own opcodes, so a constant division by
  // zero folds to a NULL constant instead of failing the compile.
  for (const char* text : {"1.0 / 0.0", "sqrt(0.0 - 4.0)", "5 % 0"}) {
    SCOPED_TRACE(text);
    CompiledExprPtr prog = Compile(text);
    ASSERT_NE(prog, nullptr);
    ASSERT_EQ(prog->num_instructions(), 1u);
    EXPECT_EQ(prog->instructions()[0].op, OpCode::kLoadConst);
    EXPECT_TRUE(prog->instructions()[0].const_null);
  }
}

// ---------------------------------------------------------------------------
// Compiled == interpreted, row path and span path, bit for bit
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, ArithmeticParity) {
  ExpectParity("x + y");
  ExpectParity("x - y * 2.0");
  ExpectParity("-x");
  ExpectParity("i + j");
  ExpectParity("i * j - 4");
  ExpectParity("-i");
  ExpectParity("x + i");  // int operand widens to double
}

TEST_F(BytecodeTest, SoftErrorsYieldNullParity) {
  ExpectParity("x / y");    // row 1 divides by zero
  ExpectParity("i % j");    // row 1 mods by zero
  ExpectParity("sqrt(x)");  // row 1 is negative
  ExpectParity("ln(x)");    // rows 1 and 4 are <= 0
  ExpectParity("mod(x, y)");
}

TEST_F(BytecodeTest, ComparisonParity) {
  ExpectParity("x = y");
  ExpectParity("x <> y");
  ExpectParity("x < y");
  ExpectParity("x <= y");
  ExpectParity("i > j");
  ExpectParity("i >= x");  // mixed int/double goes through double
}

TEST_F(BytecodeTest, ThreeValuedLogicParity) {
  ExpectParity("x > 0 AND y > 0");  // NULL AND false = false
  ExpectParity("x > 0 OR y > 0");   // NULL OR true = true
  ExpectParity("NOT (x > 0)");
  ExpectParity("x IS NULL");
  ExpectParity("x IS NOT NULL");
  ExpectParity("j IS NULL AND x IS NOT NULL");
}

TEST_F(BytecodeTest, ScalarFunctionParity) {
  ExpectParity("abs(x)");
  ExpectParity("exp(y)");
  ExpectParity("floor(x)");
  ExpectParity("ceil(x)");
  ExpectParity("round(x)");
  ExpectParity("power(x, 2)");
  ExpectParity("power(x, y)");
}

TEST_F(BytecodeTest, LeastGreatestCoalesceParity) {
  // Row 3 puts a NaN into x: least/greatest must pick exactly the
  // operand the interpreter picks.
  ExpectParity("least(x, y)");
  ExpectParity("greatest(x, y)");
  ExpectParity("least(x, y, 1.0)");
  ExpectParity("coalesce(x, y)");
  ExpectParity("coalesce(x, y, 0.0)");
}

TEST_F(BytecodeTest, CaseParity) {
  // Row 2's NULL condition takes the ELSE branch, like the interpreter.
  ExpectParity("CASE WHEN x > 0 THEN x ELSE y END");
  ExpectParity("CASE WHEN x > 0 THEN 1 WHEN y > 0 THEN 2 ELSE 3 END");
  ExpectParity("CASE WHEN i % 2 = 0 THEN x + y ELSE x - y END");
}

// ---------------------------------------------------------------------------
// Scalar UDF calls (kCall): span-at-a-time, bit for bit with Invoke
// ---------------------------------------------------------------------------

/// Counts Invoke rows and returns its argument (or the string "x" for
/// mode 1, a BIGINT for mode 2) — probes folding, cancellation and
/// the result-type rule.
std::atomic<uint64_t> g_probe_rows{0};

class ProbeUdf : public udf::ScalarUdf {
 public:
  ProbeUdf(std::string name, int mode) : name_(std::move(name)), mode_(mode) {}
  const std::string& name() const override { return name_; }
  DataType return_type() const override { return DataType::kDouble; }
  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    g_probe_rows.fetch_add(1, std::memory_order_relaxed);
    if (mode_ == 1) return Datum::Varchar("x");
    if (mode_ == 2) return Datum::Int64(static_cast<int64_t>(args[0].AsDouble()));
    return args[0];
  }

 private:
  std::string name_;
  int mode_;
};

class CallTest : public BytecodeTest {
 protected:
  CallTest() {
    EXPECT_TRUE(db_->udfs()
                    .RegisterScalar(std::make_unique<ProbeUdf>("probe", 0))
                    .ok());
    EXPECT_TRUE(db_->udfs()
                    .RegisterScalar(std::make_unique<ProbeUdf>("probe_str", 1))
                    .ok());
    EXPECT_TRUE(db_->udfs()
                    .RegisterScalar(std::make_unique<ProbeUdf>("probe_int", 2))
                    .ok());
  }

  /// One argument of a direct InvokeSpans check: a constant, or a span
  /// of `rows` values drawn from a pool of edge values.
  struct TestArg {
    bool is_const = false;
    Datum constant;
    DataType type = DataType::kDouble;
  };

  static Datum PoolValue(DataType type, size_t a, size_t r) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    static const std::vector<Datum> doubles = {
        Datum::Double(1.5),   Datum::Double(-2.25), Datum::Double(0.0),
        Datum::Double(-0.0),  Datum::Double(inf),   Datum::Double(-inf),
        Datum::Double(nan),   Datum::Double(std::copysign(nan, -1.0)),
        Datum::Double(1e300), Datum::Null(DataType::kDouble),
        Datum::Double(-3.0),  Datum::Double(0.125)};
    static const std::vector<Datum> ints = {
        Datum::Int64(7),  Datum::Int64(-5), Datum::Int64(0),
        Datum::Int64((int64_t{1} << 53) + 1), Datum::Null(DataType::kInt64),
        Datum::Int64(-1)};
    const std::vector<Datum>& pool = type == DataType::kDouble ? doubles : ints;
    return pool[(r * (a + 3) + a * 5 + r / 7) % pool.size()];
  }

  /// Calls `name`'s InvokeSpans over `rows` rows of `args` and checks
  /// every result against ConformResult(Invoke(row)), bit for bit.
  void ExpectSpanParity(const std::string& name,
                        const std::vector<TestArg>& args, size_t rows) {
    const udf::ScalarUdf* fn = db_->udfs().FindScalar(name);
    ASSERT_NE(fn, nullptr) << name;
    std::vector<std::vector<double>> dbufs(args.size());
    std::vector<std::vector<int64_t>> ibufs(args.size());
    std::vector<std::vector<uint64_t>> nbufs(args.size());
    std::vector<udf::SpanArg> spans(args.size());
    for (size_t a = 0; a < args.size(); ++a) {
      if (args[a].is_const) {
        spans[a].constant = &args[a].constant;
        continue;
      }
      spans[a].type = args[a].type;
      dbufs[a].assign(rows, 0.0);
      ibufs[a].assign(rows, 0);
      nbufs[a].assign((rows + 63) / 64, 0);
      for (size_t r = 0; r < rows; ++r) {
        const Datum v = PoolValue(args[a].type, a, r);
        if (v.is_null()) {
          nbufs[a][r / 64] |= uint64_t{1} << (r % 64);
        } else if (args[a].type == DataType::kDouble) {
          dbufs[a][r] = v.double_value();
        } else {
          ibufs[a][r] = v.int_value();
        }
      }
      if (args[a].type == DataType::kDouble) {
        spans[a].d = dbufs[a].data();
      } else {
        spans[a].i = ibufs[a].data();
      }
      spans[a].nulls = nbufs[a].data();
    }
    std::vector<double> out_d(rows, -1.0);
    std::vector<int64_t> out_i(rows, -1);
    std::vector<uint64_t> out_nulls((rows + 63) / 64, 0);
    udf::SpanOutput out;
    if (fn->return_type() == DataType::kDouble) {
      out.d = out_d.data();
    } else {
      out.i = out_i.data();
    }
    out.nulls = out_nulls.data();
    NLQ_ASSERT_OK(fn->InvokeSpans(spans, rows, out));
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Datum> row(args.size());
      for (size_t a = 0; a < args.size(); ++a) {
        row[a] = args[a].is_const ? args[a].constant
                                  : PoolValue(args[a].type, a, r);
      }
      auto expected = fn->Invoke(row);
      NLQ_ASSERT_OK(expected.status());
      auto conformed = fn->ConformResult(*expected);
      NLQ_ASSERT_OK(conformed.status());
      const bool null = ((out_nulls[r / 64] >> (r % 64)) & 1) != 0;
      Datum got = Datum::Null(fn->return_type());
      if (!null) {
        got = fn->return_type() == DataType::kDouble ? Datum::Double(out_d[r])
                                                     : Datum::Int64(out_i[r]);
      }
      ExpectSameDatum(*conformed, got,
                      name + " @row " + std::to_string(r));
      if (null) {
        EXPECT_EQ(out.d != nullptr ? out_d[r] : static_cast<double>(out_i[r]),
                  0.0);
      }
    }
  }

  /// Argument layouts over `n` arguments: all spans, leading constants,
  /// trailing constants, interleaved constants and BIGINT spans, and
  /// all constants.
  static std::vector<std::vector<TestArg>> Layouts(size_t n) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Datum> constants = {
        Datum::Double(2.0), Datum::Null(DataType::kDouble), Datum::Int64(3),
        Datum::Double(nan), Datum::Double(-0.0),
        Datum::Double(std::numeric_limits<double>::infinity())};
    auto constant = [&](size_t a) {
      TestArg arg;
      arg.is_const = true;
      arg.constant = constants[a % constants.size()];
      return arg;
    };
    auto span = [](DataType type) {
      TestArg arg;
      arg.type = type;
      return arg;
    };
    std::vector<std::vector<TestArg>> layouts(5);
    for (size_t a = 0; a < n; ++a) {
      layouts[0].push_back(span(DataType::kDouble));
      layouts[1].push_back(a < n / 2 ? constant(a) : span(DataType::kDouble));
      layouts[2].push_back(a >= n / 2 ? constant(a) : span(DataType::kDouble));
      layouts[3].push_back(a % 2 == 0   ? constant(a)
                           : a % 3 == 1 ? span(DataType::kInt64)
                                        : span(DataType::kDouble));
      layouts[4].push_back(constant(a));
    }
    return layouts;
  }
};

TEST_F(CallTest, ScoringOverridesMatchInvokeBitForBit) {
  // 200 rows: the null bitmaps end mid-word.
  const struct {
    const char* name;
    size_t args;
  } kUdfs[] = {{"linearregscore", 7}, {"fascore", 9}, {"kmeansdistance", 6},
               {"clusterscore", 4}, {"clusterscore", 1}};
  for (const auto& u : kUdfs) {
    size_t layout = 0;
    for (const std::vector<TestArg>& args : Layouts(u.args)) {
      SCOPED_TRACE(std::string(u.name) + " layout " + std::to_string(layout++));
      ExpectSpanParity(u.name, args, 200);
    }
  }
}

TEST_F(CallTest, BoxedDefaultMatchesInvoke) {
  for (const std::vector<TestArg>& args : Layouts(3)) {
    ExpectSpanParity("zscore", args, 130);
  }
}

TEST_F(CallTest, CompiledCallsMatchInterpreter) {
  // The four overrides and the boxed default (gaussnll, zscore) through
  // the VM, constants as scalars in every position, over the fixture's
  // NULL / NaN / zero rows.
  ExpectParity("linearregscore(x, y, i, 0.5, 2.0, -1.0, 0.25)");
  ExpectParity("linearregscore(1.0, x, 2.0, 0.5, y, j, 3.0)");
  ExpectParity("fascore(x, y, 1.5, -0.5, 2.0, 4.0)");
  ExpectParity("kmeansdistance(x, y, 1.0, 2.0)");
  ExpectParity("kmeansdistance(1.0, x, i, y)");
  ExpectParity("clusterscore(x, y, 1.0)");
  ExpectParity("clusterscore(kmeansdistance(x, y, 0.0, 0.0), "
               "kmeansdistance(x, y, 2.0, 2.0))");
  ExpectParity("gaussnll(x, y, 1.0, 0.5, 2.0, 4.0)");
  ExpectParity("zscore(x, y, 2.0)");
  ExpectParity("zscore(x, 1.5, y)");
  ExpectParity("linearregscore(x, 1.0, 2.0) + zscore(i, 0.5, 2.0) * 2");
  // A BIGINT result widens to DOUBLE by the same rule on both paths.
  ExpectParity("probe_int(x)");
}

TEST_F(CallTest, ConstantsStayScalarAndCallsNeverFold) {
  // kmeansdistance(x, y, c1, c2): two column loads and one call — the
  // centroid constants ride in the call site, not in registers.
  CompiledExprPtr prog = Compile("kmeansdistance(x, y, 1.0, 2.0)");
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->num_instructions(), 3u);
  EXPECT_EQ(prog->instructions()[2].op, OpCode::kCall);
  ASSERT_EQ(prog->calls().size(), 1u);
  const CallSite& call = prog->calls()[0];
  ASSERT_EQ(call.args.size(), 4u);
  EXPECT_FALSE(call.args[0].is_const);
  EXPECT_TRUE(call.args[2].is_const);
  EXPECT_EQ(call.args[3].value.double_value(), 2.0);

  // An all-constant call still compiles to a call, so planning (and
  // EXPLAIN) never invokes the UDF.
  g_probe_rows = 0;
  CompiledExprPtr folded = Compile("probe(1.0 + 2.0)");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->instructions().back().op, OpCode::kCall);
  EXPECT_EQ(g_probe_rows.load(), 0u);
  NLQ_ASSERT_OK(db_->ExecuteCommand("CREATE TABLE P (v DOUBLE)"));
  NLQ_ASSERT_OK(db_->ExecuteCommand("INSERT INTO P VALUES (1), (2)"));
  NLQ_ASSERT_OK(db_->Explain("SELECT probe(v) FROM P WHERE probe(3) > 0")
                    .status());
  EXPECT_EQ(g_probe_rows.load(), 0u);

  // Cache keys tell the constants of a call apart.
  CompiledExprPtr a = Compile("kmeansdistance(x, y, 1.0, 2.0)");
  CompiledExprPtr b = Compile("kmeansdistance(x, y, 1.0, 3.0)");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->cache_key(), prog->cache_key());
  EXPECT_NE(a->cache_key(), b->cache_key());
}

TEST_F(CallTest, VarcharResultsDoNotCompileAndMismatchesFail) {
  EXPECT_EQ(Compile("pack_point(x)"), nullptr);
  // A UDF that returns VARCHAR while declaring DOUBLE breaks the
  // result-type rule: an Internal error on both paths.
  BoundExprPtr bound = Bind("probe_str(x)");
  ASSERT_NE(bound, nullptr);
  CompiledExprPtr prog = CompileExpr(*bound);
  ASSERT_NE(prog, nullptr);
  Status error;
  EvalContext ctx;
  ctx.error = &error;
  ctx.input = &rows_[0];
  bound->Eval(ctx);
  EXPECT_EQ(error.code(), StatusCode::kInternal);
  ExprVM vm;
  SpanData spans = BuildSpans(*prog, rows_.size());
  const Status compiled =
      vm.EvalSpans(*prog, spans.batch, spans.slot_to_col, rows_.size());
  EXPECT_EQ(compiled.code(), StatusCode::kInternal);
  EXPECT_EQ(compiled.message(), error.message());
}

TEST_F(CallTest, UdfErrorsBecomeTheEvaluationStatus) {
  // gaussnll rejects a non-positive variance on every row.
  CompiledExprPtr prog = Compile("gaussnll(x, 0.0, -1.0)");
  ASSERT_NE(prog, nullptr);
  ExprVM vm;
  SpanData spans = BuildSpans(*prog, rows_.size());
  const Status s =
      vm.EvalSpans(*prog, spans.batch, spans.slot_to_col, rows_.size());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("variance"), std::string::npos);
}

TEST_F(CallTest, CallsPollTheContextBetweenSlices) {
  // 1000 rows, context already cancelled: the first 256-row slice
  // runs, the poll before the second stops the call.
  CompiledExprPtr prog = Compile("probe(x)");
  ASSERT_NE(prog, nullptr);
  const size_t n = 1000;
  std::vector<double> xs(n, 1.0);
  ColumnSpanBatch batch;
  batch.rows = n;
  batch.doubles = {xs.data()};
  batch.ints = {nullptr};
  batch.null_bits = {nullptr};
  std::vector<int> slot_to_col(schema_.num_columns(), -1);
  slot_to_col[0] = 0;
  QueryContext ctx;
  ctx.RequestCancel();
  ExprVM vm(&ctx);
  g_probe_rows = 0;
  EXPECT_EQ(vm.EvalSpans(*prog, batch, slot_to_col, n).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(g_probe_rows.load(), kCancelPollRows);
  // Without a context the whole batch runs.
  ExprVM free_vm;
  g_probe_rows = 0;
  NLQ_ASSERT_OK(free_vm.EvalSpans(*prog, batch, slot_to_col, n));
  EXPECT_EQ(g_probe_rows.load(), n);
}

TEST_F(CallTest, CallsInLazilyEvaluatedOperandsStayInterpreted) {
  // The VM computes every operand on every row; the interpreter skips
  // some. A call compiles only where the interpreter runs it on every
  // row, so both paths call the UDF on the same rows.
  for (const char* sql :
       {"probe(x) > 0 AND y > 0", "probe(x) > 0 OR y > 0",
        "CASE WHEN probe(x) > 0 THEN y ELSE 1.0 END",
        "coalesce(probe(x), y)", "least(probe(x), y)",
        "greatest(probe(x), y)", "power(probe(x), y)", "mod(probe(x), y)",
        "sqrt(probe(x)) + probe(y)"}) {
    EXPECT_NE(Compile(sql), nullptr) << sql;
    ExpectParity(sql);
  }
  for (const char* sql :
       {"y > 0 AND probe(x) > 0", "y > 0 OR probe(x) > 0",
        "CASE WHEN y > 0 THEN probe(x) ELSE 1.0 END",
        "CASE WHEN y > 0 THEN 1.0 ELSE probe(x) END",
        "CASE WHEN y > 0 THEN 1.0 WHEN probe(x) > 0 THEN 2.0 END",
        "coalesce(y, probe(x))", "least(y, probe(x))",
        "greatest(y, 1.0, probe(x))", "power(y, probe(x))",
        "mod(y, probe(x))", "NOT (y > 0 AND probe(x) > 0)"}) {
    EXPECT_EQ(Compile(sql), nullptr) << sql;
  }
}

// ---------------------------------------------------------------------------
// Fallback: constructs the bytecode cannot express return nullptr
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, UncompilableConstructsFallBackToInterpreter) {
  EXPECT_EQ(Compile("s"), nullptr);                  // VARCHAR column
  EXPECT_EQ(Compile("s IS NULL"), nullptr);          // VARCHAR operand
  EXPECT_EQ(Compile("pack_point(x)"), nullptr);      // VARCHAR UDF result
  EXPECT_EQ(Compile("coalesce(i, x)"), nullptr);     // mixed-type coalesce
  // ...while the numeric twin compiles.
  EXPECT_NE(Compile("coalesce(x, y)"), nullptr);
}

// ---------------------------------------------------------------------------
// Program keys and the compile counter
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, CacheKeyDistinguishesConstants) {
  auto& compiles = MetricsRegistry::Global().counter("bytecode.compiles");
  const uint64_t compiles_before = compiles.Value();
  BoundExprPtr a = Bind("x * 2.0");
  BoundExprPtr b = Bind("x * 3.0");
  BoundExprPtr c = Bind("x * 2.0");
  ASSERT_TRUE(a && b && c);
  CompiledExprPtr pa = CompileExpr(*a);
  CompiledExprPtr pb = CompileExpr(*b);
  CompiledExprPtr pc = CompileExpr(*c);
  ASSERT_TRUE(pa && pb && pc);
  EXPECT_NE(pa->cache_key(), pb->cache_key());
  // Identical instruction streams have equal keys; every compile counts.
  EXPECT_EQ(pa->cache_key(), pc->cache_key());
  EXPECT_EQ(compiles.Value() - compiles_before, 3u);
}

}  // namespace
}  // namespace nlq::engine::exec
