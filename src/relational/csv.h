// CSV import/export for tables (RFC-4180-style quoting).
//
// Used by examples to ship the academic datasets as plain files and by the
// bench harness to dump generated workloads for inspection.

#ifndef EXPLAIN3D_RELATIONAL_CSV_H_
#define EXPLAIN3D_RELATIONAL_CSV_H_

#include <string>

#include "common/status.h"
#include "relational/table.h"

namespace explain3d {

/// Parses CSV text into a table. The first record is the header; each
/// header cell may carry an optional type suffix "name:int", "name:real",
/// "name:str" (default str). Empty cells become NULL.
Result<Table> ParseCsv(const std::string& name, const std::string& text);

/// Reads a CSV file via ParseCsv. The table is named after `name`.
Result<Table> LoadCsvFile(const std::string& name, const std::string& path);

/// Serializes a table to CSV text with typed header suffixes, such that
/// ParseCsv round-trips it: every value reads back equal (doubles bit
/// for bit), except that CSV has no NULL apart from the empty cell, so an
/// empty string reads back as NULL, and header names read back trimmed.
std::string ToCsv(const Table& table);

/// Writes ToCsv(table) to `path`.
Status SaveCsvFile(const Table& table, const std::string& path);

}  // namespace explain3d

#endif  // EXPLAIN3D_RELATIONAL_CSV_H_
