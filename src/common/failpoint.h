#ifndef NLQ_COMMON_FAILPOINT_H_
#define NLQ_COMMON_FAILPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace nlq::failpoint {

/// Compile-time-gated fault injection. A failpoint is a named site in
/// production code (`NLQ_FAILPOINT("page_decode")`) that tests can arm
/// by name to return an injected error Status, optionally skipping the
/// first `skip` hits and firing a bounded number of times — enough to
/// drive transient-fault retry paths as well as hard failures.
///
/// The check sites compile to NOTHING unless the build defines
/// NLQ_FAILPOINTS (cmake -DNLQ_FAILPOINTS=ON): in a release binary no
/// failpoint symbol is referenced and the hot paths are untouched (CI
/// asserts this with `nm`). The management functions below always
/// exist so fault-injection tests build in every configuration; in an
/// ungated build arming a failpoint simply has no effect and tests
/// skip themselves via NLQ_FAILPOINTS.
///
/// Registered site catalog (see DESIGN.md section 9):
///   page_decode     — storage chunk load (ChunkCursor: every resident
///                     or spilled chunk a scan, spill or save reads)
///   partition_scan  — exec-layer scan streams (row + columnar)
///   udf_accumulate  — aggregate-UDF ROW phase (row + span paths)
///   udf_merge       — aggregate-UDF MERGE phase
///   expr_compile    — expression bytecode compilation (planner); an
///                     armed fault forces the interpreted fallback
///                     path, it never fails the statement
///   disk_io         — DiskManager page read/write
///   page_decompress — column-codec block decode (spilled-chunk reads,
///                     the buffer-pool read path)
///   odbc_export     — odbc_sim export (retried as a transient link
///                     fault)
///   view_maintenance — maintained-view take and store
///                     (engine/exec/view_registry.cc); an armed fault
///                     drops the view, and the statement's own scan
///                     answers (a failed take seeds from a full scan)
///                     — results stay correct
///   server_accept   — server accept path (server/server.cc); an armed
///                     fault drops that one accepted connection, the
///                     listener survives
///   server_read     — server/client frame reads (server/protocol.cc);
///                     fails that connection's request, others keep
///                     working
///   server_write    — server/client frame writes; the session closes
///                     cleanly, in-flight statements elsewhere are
///                     unaffected
///
/// All functions are thread-safe; parallel workers hit the same
/// failpoint concurrently.

/// Arms `name`: after ignoring the first `skip` hits, the next
/// `fire_count` hits (-1 = every hit until disarmed) return `error`.
/// Re-arming an armed failpoint replaces its state.
void Activate(const std::string& name, Status error, int skip = 0,
              int fire_count = -1);

/// Disarms `name` (no-op when not armed).
void Deactivate(const std::string& name);

/// Disarms everything — call from test teardown so a failed test
/// cannot leak faults into the next one.
void DeactivateAll();

/// Times an armed `name` was hit (whether or not it fired). Resets
/// when the failpoint is (re-)armed; 0 when never armed.
int HitCount(const std::string& name);

/// True when the build compiled the check sites in (NLQ_FAILPOINTS).
bool BuiltWithFailpoints();

/// The check the NLQ_FAILPOINT macro expands to. OK when `name` is
/// not armed, skipping, or exhausted.
Status Check(const char* name);

}  // namespace nlq::failpoint

#if defined(NLQ_FAILPOINTS)

/// Returns the injected Status from the enclosing function when the
/// named failpoint fires. The enclosing function must return Status
/// or StatusOr<T>.
#define NLQ_FAILPOINT(name)                                  \
  do {                                                       \
    ::nlq::Status _nlq_fp = ::nlq::failpoint::Check(name);   \
    if (!_nlq_fp.ok()) return _nlq_fp;                       \
  } while (0)

/// Variant for scanner-style `bool Next()` methods that report errors
/// through a side Status: stores the injected error and returns false.
#define NLQ_FAILPOINT_BOOL(name, status_ptr)                 \
  do {                                                       \
    ::nlq::Status _nlq_fp = ::nlq::failpoint::Check(name);   \
    if (!_nlq_fp.ok()) {                                     \
      *(status_ptr) = std::move(_nlq_fp);                    \
      return false;                                          \
    }                                                        \
  } while (0)

#else

#define NLQ_FAILPOINT(name) \
  do {                      \
  } while (0)
#define NLQ_FAILPOINT_BOOL(name, status_ptr) \
  do {                                       \
  } while (0)

#endif  // NLQ_FAILPOINTS

#endif  // NLQ_COMMON_FAILPOINT_H_
