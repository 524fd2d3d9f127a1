#include "relational/csv.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace explain3d {

namespace {

/// Splits one CSV text blob into records of fields, honoring quotes.
Status ParseRecords(const std::string& text,
                    std::vector<std::vector<std::string>>* out) {
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  // Only a line with no characters at all is blank; `""` alone is a
  // record of one empty field.
  auto end_record = [&] {
    const bool blank = record.empty() && field.empty() && !field_started;
    end_field();
    if (!blank) out->push_back(std::move(record));
    record.clear();
  };
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        if (!field_started && field.empty()) {
          in_quotes = true;
        } else {
          field += c;
        }
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        ++i;
        break;
      case '\n':
        end_record();
        ++i;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
  end_record();
  return Status::OK();
}

DataType TypeFromSuffix(const std::string& suffix) {
  std::string s = ToLower(suffix);
  if (s == "int") return DataType::kInt64;
  if (s == "real" || s == "double" || s == "float") return DataType::kDouble;
  return DataType::kString;
}

const char* SuffixFromType(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "int";
    case DataType::kDouble:
      return "real";
    default:
      return "str";
  }
}

/// A double's shortest "%g" rendering that strtod reads back exactly.
std::string RoundTripDouble(double d) {
  char buf[32];
  for (int precision = 15; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string EscapeCsv(const std::string& s) {
  bool needs_quotes = s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Result<Table> ParseCsv(const std::string& name, const std::string& text) {
  std::vector<std::vector<std::string>> records;
  E3D_RETURN_IF_ERROR(ParseRecords(text, &records));
  if (records.empty()) {
    return Status::ParseError("CSV has no header record");
  }
  Schema schema;
  for (const std::string& header : records[0]) {
    size_t colon = header.rfind(':');
    if (colon != std::string::npos) {
      schema.AddColumn(Column(Trim(header.substr(0, colon)),
                              TypeFromSuffix(header.substr(colon + 1))));
    } else {
      schema.AddColumn(Column(Trim(header), DataType::kString));
    }
  }
  Table table(name, schema);
  for (size_t r = 1; r < records.size(); ++r) {
    const auto& rec = records[r];
    if (rec.size() != schema.num_columns()) {
      return Status::ParseError(
          StrFormat("CSV record %zu has %zu fields, expected %zu", r,
                    rec.size(), schema.num_columns()));
    }
    Row row;
    row.reserve(rec.size());
    for (size_t c = 0; c < rec.size(); ++c) {
      E3D_ASSIGN_OR_RETURN(Value v,
                           ParseValueAs(rec[c], schema.column(c).type));
      row.push_back(std::move(v));
    }
    table.AppendUnchecked(std::move(row));
  }
  return table;
}

Result<Table> LoadCsvFile(const std::string& name, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  // A failed stream here means the read stopped early — parsing the
  // partial text could silently produce a truncated table.
  if (in.bad() || ss.fail()) {
    return Status::IOError("read failed for " + path);
  }
  return ParseCsv(name, ss.str());
}

std::string ToCsv(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += EscapeCsv(schema.column(c).name) + ":" +
           SuffixFromType(schema.column(c).type);
  }
  out += "\n";
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ",";
      if (row[c].is_null()) continue;
      out += row[c].type() == DataType::kDouble
                 ? RoundTripDouble(row[c].AsDouble())
                 : EscapeCsv(row[c].ToDisplayString());
    }
    // A one-column row with an empty cell would be a blank line, which
    // the reader skips; a quoted empty field keeps the row.
    if (row.size() == 1 && out.back() == '\n') out += "\"\"";
    out += "\n";
  }
  return out;
}

Status SaveCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ToCsv(table);
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace explain3d
