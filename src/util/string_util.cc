#include "util/string_util.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ses::util {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> result;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, delim)) result.push_back(piece);
  if (!s.empty() && s.back() == delim) result.push_back("");
  return result;
}

std::string Join(const std::vector<std::string>& pieces, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_.emplace_back(arg, std::nullopt);
    } else {
      flags_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

const std::optional<std::string>* FlagParser::Find(
    const std::string& name) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return &v;
  return nullptr;
}

const std::string* FlagParser::Value(const std::string& name) const {
  const std::optional<std::string>* v = Find(name);
  if (v == nullptr) return nullptr;
  if (!*v)
    throw std::invalid_argument("--" + name + " needs a value; pass it as --" +
                                name + "=<value>");
  return &**v;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* v = Value(name);
  return v != nullptr ? *v : fallback;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  const std::string* v = Value(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument("--" + name + "=" + *v + " is not an integer");
  return parsed;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  const std::string* v = Value(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument("--" + name + "=" + *v + " is not a number");
  return parsed;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  const std::optional<std::string>* v = Find(name);
  if (v == nullptr) return fallback;
  if (!*v) return true;  // bare --flag
  if (**v == "true" || **v == "1" || **v == "yes") return true;
  if (**v == "false" || **v == "0" || **v == "no") return false;
  throw std::invalid_argument("--" + name + "=" + **v +
                              " is not one of true|false|1|0|yes|no");
}

}  // namespace ses::util
