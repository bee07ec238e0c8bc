#include "data/dataset_io.h"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "plan/serialize.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"

namespace qpe::data {

namespace {

util::Status MalformedRecord(const std::string& path, size_t line_number,
                             const std::string& reason) {
  return util::DataLossError(path + " line " + std::to_string(line_number) +
                             ": " + reason);
}

}  // namespace

util::Status SaveExecutedQueriesStatus(
    const std::vector<simdb::ExecutedQuery>& records, const std::string& path) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const simdb::ExecutedQuery& record : records) {
    os << "(record :latency " << record.latency_ms << " :template "
       << record.template_index << " :instance " << record.instance_index
       << " :config ";
    const auto& values = record.db_config.values();
    for (size_t k = 0; k < values.size(); ++k) {
      os << values[k] << (k + 1 < values.size() ? "," : "");
    }
    os << " " << plan::SerializePlan(record.query) << ")\n";
  }
  return util::WriteFileAtomic(path, os.str(), "dataset.save");
}

util::StatusOr<std::vector<simdb::ExecutedQuery>> LoadExecutedQueriesChecked(
    const std::string& path) {
  if (util::Status s = util::InjectFault("dataset.load.open"); !s.ok()) {
    return s;
  }
  std::vector<simdb::ExecutedQuery> records;
  std::ifstream is(path);
  if (!is) return util::NotFoundError("cannot open '" + path + "'");
  std::string line;
  size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::string prefix = "(record :latency ";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      return MalformedRecord(path, line_number,
                             "line does not start with '(record :latency '");
    }
    size_t pos = prefix.size();
    simdb::ExecutedQuery record;
    record.latency_ms = std::strtod(line.c_str() + pos, nullptr);

    auto expect = [&](const std::string& token) {
      pos = line.find(token, pos);
      if (pos == std::string::npos) return false;
      pos += token.size();
      return true;
    };
    if (!expect(":template ")) {
      return MalformedRecord(path, line_number, "missing ':template' token");
    }
    record.template_index = std::atoi(line.c_str() + pos);
    if (!expect(":instance ")) {
      return MalformedRecord(path, line_number, "missing ':instance' token");
    }
    record.instance_index = std::atoi(line.c_str() + pos);
    if (!expect(":config ")) {
      return MalformedRecord(path, line_number, "missing ':config' token");
    }
    for (int k = 0; k < config::kNumKnobs; ++k) {
      char* end = nullptr;
      record.db_config.Set(static_cast<config::Knob>(k),
                           std::strtod(line.c_str() + pos, &end));
      pos = end - line.c_str();
      if (k + 1 < config::kNumKnobs) {
        if (pos >= line.size() || line[pos] != ',') {
          return MalformedRecord(
              path, line_number,
              "config has " + std::to_string(k + 1) + " value(s), expected " +
                  std::to_string(config::kNumKnobs));
        }
        ++pos;
      }
    }
    const size_t plan_start = line.find("(plan", pos);
    if (plan_start == std::string::npos) {
      return MalformedRecord(path, line_number, "missing '(plan' section");
    }
    // The record's closing paren is the last character of the line.
    const std::string plan_text =
        line.substr(plan_start, line.size() - plan_start - 1);
    auto parsed = plan::ParsePlanChecked(plan_text);
    if (!parsed.ok()) {
      return MalformedRecord(path, line_number, parsed.status().message());
    }
    record.query = std::move(parsed.value());
    records.push_back(std::move(record));
  }
  if (is.bad()) return util::IoError("read of '" + path + "' failed");
  return records;
}

}  // namespace qpe::data
