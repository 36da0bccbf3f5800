#include "dsrt/util/flags.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace dsrt::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v)
    throw std::invalid_argument("flag --" + name + ": expected number, got '" +
                                it->second + "'");
  return *v;
}

long Flags::get(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  long v = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (error != std::errc() || end != text.data() + text.size())
    throw std::invalid_argument("flag --" + name +
                                ": expected integer, got '" + text + "'");
  return v;
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse_bool(it->second);
  if (!v)
    throw std::invalid_argument("flag --" + name + ": expected bool, got '" +
                                it->second + "'");
  return *v;
}

void Flags::check_known(
    const std::function<bool(std::string_view)>& known) const {
  for (const auto& [name, value] : values_)
    if (!known(name)) throw std::invalid_argument("unknown flag --" + name);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    if (used != text.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text.empty() || text == "1" || text == "true" || text == "yes" ||
      text == "on")
    return true;
  if (text == "0" || text == "false" || text == "no" || text == "off")
    return false;
  return std::nullopt;
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t v = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (error != std::errc() || end != text.data() + text.size())
    return std::nullopt;
  return v;
}

}  // namespace dsrt::util
