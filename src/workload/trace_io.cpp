#include "dsrt/workload/trace_io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dsrt/core/strategy.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::workload {

namespace {

constexpr char kHeader[] = "# dsrt workload trace v1";

/// %a round-trips doubles exactly; the format never emits the separators
/// the trace grammar keys on (commas, spaces, parens, '@', '{', '}').
std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// A time or demand a trace may hold: finite and >= 0.
bool valid_amount(double v) { return std::isfinite(v) && v >= 0; }

/// Parses one record field; NaN is never valid (a deadline may be +inf,
/// nothing may be NaN). With `amount` set the value must also be finite
/// and >= 0 (arrivals, exec, pex).
double parse_hex_double(std::string_view text, const char* what,
                        std::size_t line_no, bool amount = false) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || std::isnan(v) ||
      (amount && !valid_amount(v)))
    throw std::invalid_argument("Trace: bad " + std::string(what) + " '" + s +
                                "' at line " + std::to_string(line_no));
  return v;
}

std::size_t parse_size(std::string_view text, const char* what,
                       std::size_t line_no) {
  const std::string s(text);
  try {
    std::size_t used = 0;
    const long v = std::stol(s, &used);
    if (used != s.size() || v < 0) throw std::invalid_argument(s);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("Trace: bad " + std::string(what) + " '" + s +
                                "' at line " + std::to_string(line_no));
  }
}

// --- shape grammar -----------------------------------------------------------

void format_vertex(const core::TaskSpec& spec, const core::SpecView& v,
                   std::string& out) {
  if (v.is_simple()) {
    out += hex_double(v.exec());
    out += '/';
    out += hex_double(v.pex());
    out += '@';
    out += std::to_string(v.node());
    const core::EligibleSet eligible = v.eligible();
    if (!eligible.empty()) {
      // Intervals (the common case: "any compute node") and contiguous
      // ascending lists compress to {lo..hi}; anything else is written as
      // an explicit list.
      bool contiguous = true;
      for (std::size_t i = 1; !eligible.is_range() && i < eligible.size();
           ++i)
        if (eligible[i] != eligible[i - 1] + 1) {
          contiguous = false;
          break;
        }
      out += '{';
      if (contiguous && eligible.size() > 1) {
        out += std::to_string(eligible[0]);
        out += "..";
        out += std::to_string(eligible[eligible.size() - 1]);
      } else {
        for (std::size_t i = 0; i < eligible.size(); ++i) {
          if (i > 0) out += '|';
          out += std::to_string(eligible[i]);
        }
      }
      out += '}';
    }
    return;
  }
  out += v.kind() == core::SpecKind::Serial ? "S(" : "P(";
  bool first = true;
  for (const core::SpecView child : v.children()) {
    if (!first) out += ' ';
    first = false;
    format_vertex(spec, child, out);
  }
  out += ')';
}

/// Recursive-descent parser over the shape grammar. Leaves delimit on the
/// grammar's punctuation, so hexfloats (which contain letters, signs, and
/// dots) never need quoting.
class SpecParser {
 public:
  SpecParser(std::string_view text, core::TaskSpecBuilder& builder)
      : s_(text), builder_(builder) {}

  void parse() {
    skip_spaces();
    parse_node();
    skip_spaces();
    if (pos_ != s_.size()) fail("trailing characters");
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("Trace: shape parse error at offset " +
                                std::to_string(pos_) + ": " + what + " in '" +
                                std::string(s_) + "'");
  }

  void skip_spaces() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }

  bool at_group() const {
    return pos_ + 1 < s_.size() && (s_[pos_] == 'S' || s_[pos_] == 'P') &&
           s_[pos_ + 1] == '(';
  }

  void parse_node() {
    if (at_group()) {
      const bool serial = s_[pos_] == 'S';
      pos_ += 2;
      if (serial) {
        builder_.begin_serial();
      } else {
        builder_.begin_parallel();
      }
      skip_spaces();
      if (pos_ < s_.size() && s_[pos_] == ')') fail("empty group");
      while (pos_ < s_.size() && s_[pos_] != ')') {
        parse_node();
        skip_spaces();
      }
      if (pos_ >= s_.size()) fail("unterminated group");
      ++pos_;  // ')'
      builder_.end();
      return;
    }
    parse_leaf();
  }

  std::string_view take_until(std::string_view delims) {
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && delims.find(s_[pos_]) == std::string_view::npos)
      ++pos_;
    return s_.substr(begin, pos_ - begin);
  }

  double take_double(std::string_view delims, const char* what) {
    const std::string_view token = take_until(delims);
    const std::string t(token);
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (t.empty() || end != t.c_str() + t.size() || !valid_amount(v))
      fail(std::string("bad ") + what + " '" + t + "'");
    return v;
  }

  core::NodeId take_node(std::string_view delims) {
    const std::string t(take_until(delims));
    long v = -1;
    try {
      std::size_t used = 0;
      v = std::stol(t, &used);
      if (used != t.size()) v = -1;
    } catch (const std::exception&) {
    }
    if (v < 0) fail("bad node id '" + t + "'");
    // Ids are 32-bit and kNoNode is reserved: never truncate into range.
    if (static_cast<unsigned long>(v) >= core::kNoNode)
      fail("node id '" + t + "' out of range");
    return static_cast<core::NodeId>(v);
  }

  void parse_leaf() {
    const double exec = take_double("/", "exec");
    if (pos_ >= s_.size() || s_[pos_] != '/') fail("expected '/'");
    ++pos_;
    const double pex = take_double("@", "pex");
    if (pos_ >= s_.size() || s_[pos_] != '@') fail("expected '@'");
    ++pos_;
    const core::NodeId hint = take_node("{} )");
    if (pos_ < s_.size() && s_[pos_] == '{') {
      ++pos_;
      // {lo..hi} or {a|b|c}.
      eligible_.clear();
      for (;;) {
        const core::NodeId first = take_node(".|}");
        if (pos_ + 1 < s_.size() && s_[pos_] == '.' && s_[pos_ + 1] == '.') {
          if (!eligible_.empty()) fail("mixed eligible list and range");
          pos_ += 2;
          const core::NodeId last = take_node("}");
          if (last < first) fail("descending eligible range");
          if (pos_ >= s_.size() || s_[pos_] != '}')
            fail("unterminated eligible range");
          ++pos_;
          builder_.leaf_among(hint, first, last - first + 1, exec, pex);
          return;
        }
        eligible_.push_back(first);
        if (pos_ >= s_.size()) fail("unterminated eligible set");
        if (s_[pos_] == '}') {
          ++pos_;
          break;
        }
        if (s_[pos_] != '|') fail("expected '|' or '}'");
        ++pos_;
      }
      builder_.leaf_among(hint, eligible_, exec, pex);
      return;
    }
    builder_.leaf(hint, exec, pex);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  core::TaskSpecBuilder& builder_;
  std::vector<core::NodeId> eligible_;
};

}  // namespace

std::string format_spec(const core::TaskSpec& spec) {
  std::string out;
  format_vertex(spec, spec.root(), out);
  return out;
}

void parse_spec_into(std::string_view text, core::TaskSpecBuilder& builder,
                     core::TaskSpec& out) {
  builder.reset(out);
  SpecParser(text, builder).parse();
  builder.finish();
}

// --- Trace::load -------------------------------------------------------------

Trace Trace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Trace: cannot open '" + path + "'");

  Trace trace;
  core::TaskSpecBuilder builder;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line_no == 1) {
        if (line != kHeader)
          throw std::invalid_argument(
              "Trace: '" + path + "' is not a dsrt workload trace v1 file");
        saw_header = true;
        continue;
      }
      // Metadata comments: "# key=value ...".
      for (const std::string& kv : util::split(line.substr(1), ' ')) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = kv.substr(0, eq);
        if (key == "nodes")
          trace.nodes = parse_size(kv.substr(eq + 1), "nodes", line_no);
        else if (key == "link_nodes")
          trace.link_nodes =
              parse_size(kv.substr(eq + 1), "link_nodes", line_no);
      }
      continue;
    }
    if (!saw_header)
      throw std::invalid_argument(
          "Trace: '" + path + "' is not a dsrt workload trace v1 file");
    const std::vector<std::string> fields = util::split(line, ',');
    if (fields[0] == "L") {
      if (fields.size() != 6)
        throw std::invalid_argument("Trace: local record needs 6 fields at "
                                    "line " +
                                    std::to_string(line_no));
      TraceLocalRecord r;
      r.arrival = parse_hex_double(fields[1], "arrival", line_no, true);
      r.node = static_cast<core::NodeId>(
          parse_size(fields[2], "node", line_no));
      r.exec = parse_hex_double(fields[3], "exec", line_no, true);
      r.pex = parse_hex_double(fields[4], "pex", line_no, true);
      r.deadline = parse_hex_double(fields[5], "deadline", line_no);
      trace.locals.push_back(r);
    } else if (fields[0] == "G") {
      if (fields.size() != 4)
        throw std::invalid_argument("Trace: global record needs 4 fields at "
                                    "line " +
                                    std::to_string(line_no));
      TraceGlobalRecord r;
      r.arrival = parse_hex_double(fields[1], "arrival", line_no, true);
      r.deadline = parse_hex_double(fields[2], "deadline", line_no);
      try {
        parse_spec_into(fields[3], builder, r.spec);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string(e.what()) + " at line " +
                                    std::to_string(line_no));
      }
      trace.globals.push_back(std::move(r));
    } else {
      throw std::invalid_argument("Trace: unknown record kind '" + fields[0] +
                                  "' at line " + std::to_string(line_no));
    }
  }
  if (!saw_header)
    throw std::invalid_argument("Trace: '" + path + "' is empty");
  return trace;
}

// --- TraceWriter -------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, std::size_t nodes,
                         std::size_t link_nodes)
    : out_(path), path_(path) {
  if (!out_) throw std::runtime_error("TraceWriter: cannot open '" + path +
                                      "'");
  out_ << kHeader << '\n'
       << "# nodes=" << nodes << " link_nodes=" << link_nodes << '\n';
}

TraceWriter::~TraceWriter() {
  if (out_.is_open()) out_.close();
}

void TraceWriter::local(sim::Time arrival, core::NodeId node, double exec,
                        double pex, sim::Time deadline) {
  out_ << "L," << hex_double(arrival) << ',' << node << ','
       << hex_double(exec) << ',' << hex_double(pex) << ','
       << hex_double(deadline) << '\n';
  ++records_;
}

void TraceWriter::global(sim::Time arrival, const core::TaskSpec& spec,
                         sim::Time deadline) {
  scratch_.clear();
  format_vertex(spec, spec.root(), scratch_);
  out_ << "G," << hex_double(arrival) << ',' << hex_double(deadline) << ','
       << scratch_ << '\n';
  ++records_;
}

void TraceWriter::close() {
  if (!out_.is_open()) return;
  out_.close();
  if (out_.fail())
    throw std::runtime_error("TraceWriter: write to '" + path_ + "' failed");
}

// --- TraceSource -------------------------------------------------------------

TraceSource::TraceSource(sim::Simulator& sim, const Trace& trace,
                         sim::Time until, LocalSink local_sink,
                         GlobalSink global_sink)
    : sim_(sim),
      trace_(trace),
      until_(until),
      local_sink_(std::move(local_sink)),
      global_sink_(std::move(global_sink)) {
  if (!local_sink_ || !global_sink_)
    throw std::invalid_argument("TraceSource: null sink");
  // Group local records per node, preserving file (= capture time) order.
  // Streams sit at ascending node ids so start() pushes the first events in
  // the generated run's source order.
  core::NodeId max_node = 0;
  for (const TraceLocalRecord& r : trace_.locals)
    max_node = std::max(max_node, r.node);
  std::vector<Stream> by_node(trace_.locals.empty() ? 0 : max_node + 1);
  for (std::size_t i = 0; i < trace_.locals.size(); ++i)
    by_node[trace_.locals[i].node].records.push_back(i);
  for (Stream& stream : by_node)
    if (!stream.records.empty()) local_streams_.push_back(std::move(stream));
}

void TraceSource::start() {
  for (std::size_t s = 0; s < local_streams_.size(); ++s) schedule_local(s);
  schedule_global();
}

void TraceSource::schedule_local(std::size_t s) {
  Stream& stream = local_streams_[s];
  if (stream.cursor >= stream.records.size()) return;
  const sim::Time at = trace_.locals[stream.records[stream.cursor]].arrival;
  if (at > until_) return;
  sim_.at(at, [this, s] { fire_local(s); });
}

void TraceSource::fire_local(std::size_t s) {
  Stream& stream = local_streams_[s];
  const sim::Time t = trace_.locals[stream.records[stream.cursor]].arrival;
  std::size_t burst = 0;
  // Every consecutive record sharing this bitwise arrival stamp was
  // released by one captured arrival event; replaying them from one event
  // keeps the event count and push order identical to the captured run.
  while (stream.cursor < stream.records.size()) {
    const TraceLocalRecord& r = trace_.locals[stream.records[stream.cursor]];
    if (r.arrival != t) break;
    local_sink_(r.node, r.exec, r.pex, r.deadline);
    ++stream.cursor;
    ++burst;
    ++local_generated_;
  }
  local_counters_.events += 1;
  local_counters_.tasks += burst;
  if (burst > local_counters_.max_batch) local_counters_.max_batch = burst;
  schedule_local(s);
}

void TraceSource::schedule_global() {
  if (global_cursor_ >= trace_.globals.size()) return;
  const sim::Time at = trace_.globals[global_cursor_].arrival;
  if (at > until_) return;
  sim_.at(at, [this] { fire_global(); });
}

void TraceSource::fire_global() {
  const sim::Time t = trace_.globals[global_cursor_].arrival;
  std::size_t burst = 0;
  while (global_cursor_ < trace_.globals.size()) {
    const TraceGlobalRecord& r = trace_.globals[global_cursor_];
    if (r.arrival != t) break;
    global_sink_(r.spec, r.deadline);
    ++global_cursor_;
    ++burst;
    ++global_generated_;
  }
  global_counters_.events += 1;
  global_counters_.tasks += burst;
  if (burst > global_counters_.max_batch) global_counters_.max_batch = burst;
  schedule_global();
}

}  // namespace dsrt::workload
