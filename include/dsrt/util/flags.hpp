#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dsrt::util {

/// Minimal command-line flag parser shared by the tools and examples.
///
/// Accepts `--name=value` and bare boolean `--name`; a bare flag never
/// takes the next argument as its value. Every argument without a leading
/// `--` is collected in `positional()`.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// True when the flag was given (with or without a value).
  bool has(const std::string& name) const;

  /// Typed getters; return `fallback` when the flag is absent. Throw
  /// std::invalid_argument when present but unparsable: numbers must
  /// consume the whole value (parse_double, std::from_chars), so "0.5abc"
  /// and "4.7" for an integer fail instead of running as 0.5 and 4.
  std::string get(const std::string& name, const std::string& fallback) const;
  double get(const std::string& name, double fallback) const;
  long get(const std::string& name, long fallback) const;
  bool get(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument("unknown flag --<name>") for the first
  /// flag (in name order) that `known` rejects, so a typo never runs as
  /// the default.
  void check_known(const std::function<bool(std::string_view)>& known) const;

  /// All parsed flags in name order (for prefix-discovery, e.g. the
  /// engine's `--sweep_<field>=...` axes).
  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Splits `text` at `sep`, preserving interior empty tokens ("a,,b" ->
/// {"a", "", "b"}); an empty input yields an empty list. The shared
/// splitter for comma-valued flags (--sweep_load=0.2,0.4, ...).
std::vector<std::string> split(const std::string& text, char sep);

/// Strict full-consume double parse: the whole token must be a finite
/// number (no trailing junk, no empty input, no inf or nan); nullopt
/// otherwise. The one parser behind every "--flag=<number>"-style
/// vocabulary (config fields, DIV<x> strategy names, load-model periods,
/// spec parameters), so strictness cannot drift between them.
std::optional<double> parse_double(std::string_view text);

/// "", 1/true/yes/on -> true; 0/false/no/off -> false; nullopt otherwise
/// (a bare `--flag` has the empty value).
std::optional<bool> parse_bool(std::string_view text);

/// Strict full-consume unsigned parse (std::from_chars): no sign, no
/// trailing text, no wrap past 2^64-1; nullopt otherwise.
std::optional<std::uint64_t> parse_uint(std::string_view text);

}  // namespace dsrt::util
