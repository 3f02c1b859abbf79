#ifndef NLQ_UDF_UDF_H_
#define NLQ_UDF_UDF_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_vector.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::udf {

/// One argument of ScalarUdf::InvokeSpans, in call order: a scalar
/// constant (`constant` non-null, the same value for every row) or a
/// typed span of `rows` values with its null bitmap.
struct SpanArg {
  const storage::Datum* constant = nullptr;
  storage::DataType type = storage::DataType::kDouble;  // span lane type
  const double* d = nullptr;        // type == kDouble
  const int64_t* i = nullptr;       // type == kInt64
  const uint64_t* nulls = nullptr;  // bit r set = row r NULL; or nullptr

  bool is_null(size_t r) const {
    if (constant != nullptr) return constant->is_null();
    return nulls != nullptr && storage::NullBitGet(nulls, r);
  }

  /// Row r as Datum::AsDouble reads it: NULL is 0.0, BIGINT widens.
  double AsDouble(size_t r) const {
    if (constant != nullptr) return constant->AsDouble();
    if (is_null(r)) return 0.0;
    return d != nullptr ? d[r] : static_cast<double>(i[r]);
  }

  /// Row r boxed: typed NULL, DOUBLE or BIGINT.
  storage::Datum Box(size_t r) const;
};

/// Where InvokeSpans writes its `rows` results: one value lane of the
/// UDF's return_type() and a null bitmap, both owned by the caller. The
/// bitmap arrives zeroed; a NULL result sets its bit and stores 0 in
/// the value lane.
struct SpanOutput {
  double* d = nullptr;        // return_type() == kDouble
  int64_t* i = nullptr;       // return_type() == kInt64
  uint64_t* nulls = nullptr;  // storage::NullBitmapWords(rows) words
};

/// A scalar User-Defined Function: one value per input row, computed
/// from the row's parameter values only (no cross-row state, matching
/// the paper's "scalar functions cannot keep values in main memory
/// from row to row").
class ScalarUdf {
 public:
  virtual ~ScalarUdf() = default;

  /// SQL-visible (case-insensitive) function name.
  virtual const std::string& name() const = 0;

  /// Type of the returned value.
  virtual storage::DataType return_type() const = 0;

  /// Validates an argument count at plan time. Default accepts any.
  virtual Status CheckArity(size_t num_args) const {
    (void)num_args;
    return Status::OK();
  }

  /// Computes the value for one row.
  virtual StatusOr<storage::Datum> Invoke(
      const std::vector<storage::Datum>& args) const = 0;

  /// Span-at-a-time ROW phase, the scalar twin of
  /// AggregateUdf::AccumulateSpans: computes `rows` results into `out`,
  /// row r from row r of every argument. The engine's compiled pipeline
  /// calls it from bytecode (DESIGN.md §11) with at most 256 rows per
  /// call, so a statement stays cancellable between calls, and only
  /// on rows the interpreter would pass to Invoke (a call inside a
  /// lazily evaluated operand — a CASE branch, the right side of AND —
  /// stays interpreted); several threads may call it at once.
  ///
  /// Contract for an override: row r's result is bit-identical to
  /// ConformResult(Invoke(args of row r)) — the same operations in the
  /// same order, NULL arguments read as Invoke reads them (AsDouble
  /// makes them 0.0) — and the first failing row's error is returned.
  /// The default boxes each row (BIGINT lanes as BIGINT, NULL lanes as
  /// typed NULL) through Invoke, so every UDF with numeric arguments
  /// and result runs compiled. VARCHAR arguments or results never reach
  /// here.
  virtual Status InvokeSpans(const std::vector<SpanArg>& args, size_t rows,
                             const SpanOutput& out) const;

  /// The one rule for a value Invoke returns, applied by the
  /// interpreter and by InvokeSpans alike: NULL of any type becomes
  /// NULL of return_type(), a BIGINT widens to DOUBLE when the UDF
  /// returns DOUBLE, and any other type mismatch is an Internal error
  /// naming the UDF.
  StatusOr<storage::Datum> ConformResult(storage::Datum value) const;
};

/// An aggregate UDF following the Teradata four-phase run-time
/// protocol the paper describes in Section 3.4:
///   1. Init      — allocate per-thread (or per-group) state in a
///                  bounded heap segment;
///   2. Accumulate — called once per row with the parameter values;
///   3. Merge     — combine a partial state computed by another
///                  thread into this one (parallel shared-nothing);
///   4. Finalize  — pack the result into a single return value
///                  (UDFs "can only return one value of a simple
///                  data type").
class AggregateUdf {
 public:
  virtual ~AggregateUdf() = default;

  virtual const std::string& name() const = 0;
  virtual storage::DataType return_type() const = 0;

  virtual Status CheckArity(size_t num_args) const {
    (void)num_args;
    return Status::OK();
  }

  /// Allocates zeroed state inside `heap`. Fails with
  /// ResourceExhausted if the state does not fit the segment.
  virtual StatusOr<void*> Init(HeapSegment* heap) const = 0;

  /// Folds one row into `state`.
  virtual Status Accumulate(void* state,
                            const std::vector<storage::Datum>& args) const = 0;

  /// Folds the partial aggregate `other` into `state`.
  ///
  /// Merge-ordering contract: the engine computes one partial state
  /// per scan morsel and folds them in morsel-index order — a fixed
  /// order derived from (partition, row offset), never from which
  /// thread produced which partial. An implementation therefore need
  /// not be commutative-in-floating-point: results stay bit-identical
  /// across thread counts and runs as long as Merge is deterministic
  /// for a given (state, other) pair.
  virtual Status Merge(void* state, const void* other) const = 0;

  /// Produces the single return value.
  virtual StatusOr<storage::Datum> Finalize(const void* state) const = 0;

  /// True if this UDF implements AccumulateSpans, letting the engine's
  /// columnar aggregate feed it typed column spans instead of one
  /// boxed row at a time.
  virtual bool SupportsColumnarSpans() const { return false; }

  /// Columnar ROW phase: folds `rows` dense rows into `state` in row
  /// order. `const_args` are the call's leading constant (literal)
  /// arguments; `cols[0..num_cols)` are contiguous double spans for
  /// the remaining arguments, each of length `rows`, with no NULLs
  /// (the caller applies the skip-row NULL policy by compaction, and
  /// may pass rows == 0 for a batch whose rows were all skipped — the
  /// state must still fix its shape then, exactly as Accumulate does
  /// before its own NULL check). Must produce state byte-identical to
  /// `rows` Accumulate calls.
  virtual Status AccumulateSpans(void* state,
                                 const std::vector<storage::Datum>& const_args,
                                 const double* const* cols, size_t num_cols,
                                 size_t rows) const {
    (void)state, (void)const_args, (void)cols, (void)num_cols, (void)rows;
    return Status::Internal(name() + " does not support columnar spans");
  }

  /// Size in bytes of the state when it is a self-contained
  /// trivially-copyable block: memcpy-ing that many bytes from one
  /// Init-ed state to another transplants the aggregate exactly (no
  /// interior pointers, no heap references beyond the block). 0 means
  /// the state is NOT relocatable and may only live where Init placed
  /// it. Relocatability is what lets the engine keep materialized
  /// partial states across statements (the maintained-view registry
  /// clones stored partials before merging so refreshes never corrupt
  /// the registered state).
  virtual size_t RelocatableStateSize() const { return 0; }
};

/// Case-insensitive registry of scalar and aggregate UDFs. The engine
/// resolves function calls in SELECT lists against a registry, exactly
/// as Teradata resolves compiled UDFs "like any other SQL function".
class UdfRegistry {
 public:
  /// Registers a scalar UDF; AlreadyExists on name clash with another
  /// scalar UDF.
  Status RegisterScalar(std::unique_ptr<ScalarUdf> udf);

  /// Registers an aggregate UDF; AlreadyExists on name clash with
  /// another aggregate UDF.
  Status RegisterAggregate(std::unique_ptr<AggregateUdf> udf);

  /// Lookup; nullptr when not registered.
  const ScalarUdf* FindScalar(const std::string& name) const;
  const AggregateUdf* FindAggregate(const std::string& name) const;

  std::vector<std::string> ScalarNames() const;
  std::vector<std::string> AggregateNames() const;

 private:
  std::map<std::string, std::unique_ptr<ScalarUdf>> scalars_;
  std::map<std::string, std::unique_ptr<AggregateUdf>> aggregates_;
};

}  // namespace nlq::udf

#endif  // NLQ_UDF_UDF_H_
