#include "engine/persistence.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "storage/partitioned_table.h"

namespace nlq::engine {
namespace {

Status EnsureDirectory(const std::string& directory) {
  if (::mkdir(directory.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("cannot create directory '" + directory +
                         "': " + std::strerror(errno));
}

std::string PartitionPath(const std::string& directory,
                          const std::string& table, size_t partition) {
  return directory + "/" + table + "." + std::to_string(partition) +
         ".pages";
}

StatusOr<storage::DataType> TypeFromName(std::string_view name) {
  if (name == "DOUBLE") return storage::DataType::kDouble;
  if (name == "BIGINT") return storage::DataType::kInt64;
  if (name == "VARCHAR") return storage::DataType::kVarchar;
  return Status::ParseError("unknown type '" + std::string(name) +
                            "' in manifest");
}

constexpr char kStagingSuffix[] = ".tmp";

/// The manifest's first line is kFormatTag + kFormatVersion. Version 2
/// stores partitions as chunk blobs; the row-page snapshots before it
/// had no version line.
constexpr char kFormatTag[] = "nlq-snapshot-format ";
constexpr char kFormatVersion[] = "2";

/// Writes every partition file and the manifest of `db` into
/// `directory` under their final names plus kStagingSuffix, appending
/// each final path to `staged` once its staged file exists.
Status StageSnapshot(const Database& db, const std::string& directory,
                     std::vector<std::string>* staged) {
  std::ostringstream manifest;
  manifest << kFormatTag << kFormatVersion << '\n';
  for (const std::string& name : db.catalog().TableNames()) {
    NLQ_ASSIGN_OR_RETURN(storage::PartitionedTable * table,
                         db.catalog().GetTable(name));
    manifest << name << '|' << table->num_partitions() << '|'
             << SerializeSchema(table->schema()) << '|';
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      manifest << (p > 0 ? "," : "") << table->partition(p).num_rows();
    }
    manifest << '\n';
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const std::string path = PartitionPath(directory, name, p);
      NLQ_RETURN_IF_ERROR(
          table->partition(p).SaveToFile(path + kStagingSuffix));
      staged->push_back(path);
    }
  }
  const std::string path = directory + "/manifest.txt";
  staged->push_back(path);
  std::ofstream out(path + kStagingSuffix, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write manifest in '" + directory + "'");
  }
  out << manifest.str();
  out.close();
  if (!out) {
    return Status::IOError("short write to manifest in '" + directory + "'");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeSchema(const storage::Schema& schema) {
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ',';
    out += schema.column(c).name;
    out += ':';
    out += storage::DataTypeName(schema.column(c).type);
  }
  return out;
}

StatusOr<storage::Schema> DeserializeSchema(std::string_view text) {
  std::vector<storage::Column> columns;
  for (std::string_view field : SplitString(text, ',')) {
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::ParseError("malformed schema entry '" +
                                std::string(field) + "'");
    }
    storage::Column column;
    column.name = std::string(field.substr(0, colon));
    NLQ_ASSIGN_OR_RETURN(column.type, TypeFromName(field.substr(colon + 1)));
    columns.push_back(std::move(column));
  }
  if (columns.empty()) {
    return Status::ParseError("manifest schema has no columns");
  }
  return storage::Schema(std::move(columns));
}

Status SaveDatabase(const Database& db, const std::string& directory) {
  NLQ_RETURN_IF_ERROR(EnsureDirectory(directory));
  // Every file is written under a staging name and renamed into place
  // only once all of them were written, so a save that fails (an
  // unreadable spilled chunk, an unwritable file, a full disk) leaves
  // the previous snapshot whole.
  std::vector<std::string> staged;
  const Status status = StageSnapshot(db, directory, &staged);
  if (!status.ok()) {
    for (const std::string& path : staged) {
      std::remove((path + kStagingSuffix).c_str());
    }
    return status;
  }
  for (const std::string& path : staged) {
    if (std::rename((path + kStagingSuffix).c_str(), path.c_str()) != 0) {
      return Status::IOError("cannot rename snapshot file into '" + path +
                             "': " + std::strerror(errno));
    }
  }
  return Status::OK();
}

Status LoadDatabase(Database* db, const std::string& directory) {
  std::ifstream manifest(directory + "/manifest.txt");
  if (!manifest) {
    return Status::IOError("cannot open manifest in '" + directory + "'");
  }
  std::string line;
  std::getline(manifest, line);
  if (line != std::string(kFormatTag) + kFormatVersion) {
    const bool tagged = line.rfind(kFormatTag, 0) == 0;
    return Status::NotSupported(
        "snapshot in '" + directory + "' has format version " +
        (tagged ? "'" + line.substr(sizeof(kFormatTag) - 1) + "'" : "none") +
        "; this build reads version " + kFormatVersion);
  }
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    const std::vector<std::string_view> fields = SplitString(line, '|');
    if (fields.size() != 4) {
      return Status::ParseError("malformed manifest line: " + line);
    }
    const std::string name(fields[0]);
    NLQ_ASSIGN_OR_RETURN(int64_t partitions, ParseInt64(fields[1]));
    if (partitions < 1 || partitions > 4096) {
      return Status::ParseError("implausible partition count in manifest");
    }
    NLQ_ASSIGN_OR_RETURN(storage::Schema schema,
                         DeserializeSchema(fields[2]));
    const std::vector<std::string_view> counts = SplitString(fields[3], ',');
    if (counts.size() != static_cast<size_t>(partitions)) {
      return Status::ParseError("manifest row counts do not match the "
                                "partition count: " + line);
    }

    if (db->catalog().HasTable(name)) {
      NLQ_RETURN_IF_ERROR(db->catalog().DropTable(name));
    }
    NLQ_ASSIGN_OR_RETURN(
        storage::PartitionedTable * table,
        db->catalog().CreateTable(name, std::move(schema),
                                  static_cast<size_t>(partitions)));
    for (size_t p = 0; p < static_cast<size_t>(partitions); ++p) {
      const std::string path = PartitionPath(directory, name, p);
      NLQ_ASSIGN_OR_RETURN(const int64_t rows, ParseInt64(counts[p]));
      storage::Table& partition = table->partition(p);
      NLQ_RETURN_IF_ERROR(partition.LoadFromFile(path));
      if (partition.num_rows() != static_cast<uint64_t>(rows)) {
        return Status::Corruption(
            "snapshot file '" + path + "' holds " +
            std::to_string(partition.num_rows()) + " rows, the manifest " +
            std::to_string(rows));
      }
    }
  }
  return Status::OK();
}

}  // namespace nlq::engine
