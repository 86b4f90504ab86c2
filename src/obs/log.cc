#include "src/obs/log.h"

#include <chrono>
#include <cinttypes>
#include <ctime>

#include "src/common/text_parse.h"

namespace knnq::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Result<LogLevel> ParseLogLevel(std::string_view text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  return Status::InvalidArgument(
      "log level must be debug, info, warn or error; got '" +
      std::string(text) + "'");
}

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogField LogField::Num(std::string_view key, double value) {
  return {key, FormatDouble(value)};
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

Logger::~Logger() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Logger::OpenFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open log file: " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  return Status::Ok();
}

namespace {

/// "2026-08-08T12:34:56.789Z" — UTC wall-clock with milliseconds.
std::string IsoTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Room for every field at its widest int, so the compiler can prove
  // the output fits; a real date takes 24 bytes.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday,
                utc.tm_hour, utc.tm_min, utc.tm_sec,
                static_cast<int>(ms));
  return buf;
}

}  // namespace

void Logger::Log(LogLevel level, std::string_view event,
                 std::span<const LogField> fields) {
  if (!Enabled(level)) return;
  std::string line = "{\"ts\": \"" + IsoTimestamp() + "\", \"level\": \"" +
                     std::string(LogLevelName(level)) +
                     "\", \"event\": \"" + JsonEscape(event) + "\"";
  for (const LogField& field : fields) {
    line += ", \"";
    line += JsonEscape(field.key);
    line += "\": ";
    line += field.json;
  }
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = file_ != nullptr ? file_ : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
}

}  // namespace knnq::obs
