#include "exec/results.h"

#include "obs/json.h"

namespace flattree::exec {
namespace {

void append_fields(
    std::string& out,
    const std::vector<std::pair<std::string, JsonValue>>& fields) {
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out.push_back(',');
    first = false;
    obs::json::append_string(out, key);
    out.push_back(':');
    value.append_json(out);
  }
}

}  // namespace

void JsonValue::append_json(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kInt: obs::json::append_number(out, int_); return;
    case Kind::kUint: obs::json::append_number(out, uint_); return;
    case Kind::kDouble: obs::json::append_number(out, double_); return;
    case Kind::kString: obs::json::append_string(out, string_); return;
  }
}

void ResultRow::append_json(std::string& out) const {
  out.push_back('{');
  append_fields(out, fields_);
  out.push_back('}');
}

std::string BenchReport::to_json() const {
  std::string out;
  out += "{\"bench\":";
  obs::json::append_string(out, bench);
  out += ",\"seed\":";
  obs::json::append_number(out, seed);
  if (!meta.empty()) {
    out.push_back(',');
    append_fields(out, meta);
  }
  if (!metrics_json.empty()) {
    out += ",\"metrics\":";
    out += metrics_json;
  }
  out += ",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += "\n  ";
    rows[i].append_json(out);
  }
  out += rows.empty() ? "]}" : "\n]}";
  out.push_back('\n');
  return out;
}

bool write_report(const BenchReport& report, const std::string& path,
                  std::string* error) {
  return obs::json::write_file(path, report.to_json(), error);
}

}  // namespace flattree::exec
