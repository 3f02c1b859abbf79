#ifndef NLQ_ENGINE_PERSISTENCE_H_
#define NLQ_ENGINE_PERSISTENCE_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace nlq::engine {

/// Persists every table of `db` under `directory` (created if
/// missing): a `manifest.txt` whose first line names the snapshot
/// format version and whose table lines hold each name, partition
/// count, schema and per-partition row counts, plus one file per
/// partition in the spill's chunk encoding (Table::SaveToFile). The
/// files of a previous snapshot are replaced only once every new file
/// is written, so a failed save leaves that snapshot whole.
Status SaveDatabase(const Database& db, const std::string& directory);

/// Loads a snapshot produced by SaveDatabase into `db`. Tables that
/// already exist under the same name are replaced. Partition counts
/// are restored from the manifest (not the database default), so
/// statistics recomputed after a reload match the original exactly.
/// A manifest without this build's format version line is
/// kNotSupported, naming the version found; a partition file that
/// fails to decode or holds another row count than the manifest is
/// kCorruption, naming the file.
Status LoadDatabase(Database* db, const std::string& directory);

/// Serializes a schema as "name:TYPE,name:TYPE,..." (used by the
/// manifest; exposed for tests).
std::string SerializeSchema(const storage::Schema& schema);

/// Parses SerializeSchema output.
StatusOr<storage::Schema> DeserializeSchema(std::string_view text);

}  // namespace nlq::engine

#endif  // NLQ_ENGINE_PERSISTENCE_H_
