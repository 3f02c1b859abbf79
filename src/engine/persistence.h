#ifndef NLQ_ENGINE_PERSISTENCE_H_
#define NLQ_ENGINE_PERSISTENCE_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace nlq::engine {

/// Persists every table of `db` under `directory` (created if
/// missing): a `manifest.txt` describing names, partition counts and
/// schemas, plus one page file per partition written through
/// storage::DiskManager. The files of a previous snapshot are replaced
/// only once every new file is written, so a failed save leaves that
/// snapshot whole.
Status SaveDatabase(const Database& db, const std::string& directory);

/// Loads a snapshot produced by SaveDatabase into `db`. Tables that
/// already exist under the same name are replaced. Partition counts
/// are restored from the manifest (not the database default), so
/// statistics recomputed after a reload match the original exactly.
Status LoadDatabase(Database* db, const std::string& directory);

/// Serializes a schema as "name:TYPE,name:TYPE,..." (used by the
/// manifest; exposed for tests).
std::string SerializeSchema(const storage::Schema& schema);

/// Parses SerializeSchema output.
StatusOr<storage::Schema> DeserializeSchema(std::string_view text);

}  // namespace nlq::engine

#endif  // NLQ_ENGINE_PERSISTENCE_H_
