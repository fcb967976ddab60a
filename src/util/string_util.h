#ifndef SES_UTIL_STRING_UTIL_H_
#define SES_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ses::util {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Parses "--flag=value"-style command-line arguments; a bare "--flag" is
/// accepted only by GetBool (as true). Unrecognized positional arguments are
/// ignored. A flag given bare to GetString/GetInt/GetDouble, or with a value
/// its getter cannot parse, throws std::invalid_argument naming the flag.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// Returns the flag value or `fallback` if absent.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  /// The whole value must parse (no empty text, trailing junk or overflow).
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  /// Accepts true|false|1|0|yes|no, or a bare "--flag" for true.
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  /// The first occurrence of `name` (nullopt value when given bare), or
  /// nullptr when absent.
  const std::optional<std::string>* Find(const std::string& name) const;
  /// The value of `name`, nullptr when absent; throws when given bare.
  const std::string* Value(const std::string& name) const;

  std::vector<std::pair<std::string, std::optional<std::string>>> flags_;
};

}  // namespace ses::util

#endif  // SES_UTIL_STRING_UTIL_H_
