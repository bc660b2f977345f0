// trace_check — CI validator for lorasched_serve's observability outputs.
//
// Reads the three artifacts a traced in-process serve run emits
// (--trace-out PATH writes the Chrome trace to PATH and the decision
// records to PATH.decisions.jsonl) and cross-checks them against each
// other:
//  * --trace JSONL: every line must parse back through parse_decision_line
//    (the exact schema the tests pin down), every record must carry the
//    Alg. 2 candidate list, and admitted records must charge the eq. (14)
//    payment total.
//  * --metrics Prometheus exposition: must parse, and its counters must
//    agree with the decision log — records == service_bids_decided_total,
//    admitted records == service_bids_admitted_total.
//  * --chrome trace-event JSON: must parse with a non-empty traceEvents
//    array (a timeline Perfetto can load).
//
// A second mode validates the federated /metrics payload of
// lorasched_serve --agents (DESIGN.md §12): --federated strictly parses
// the exposition — label syntax and escaping, one HELP/TYPE comment per
// metric name and before its samples, finite sample values — and asserts
// that every lorasched_dp_price_cache_* series carries an agent label (at
// least one such series must exist; --expect-agent additionally requires a
// series from that specific agent). When --federated is given the other
// flags are ignored.
//
// Exits 0 when everything is consistent, 1 with a diagnostic otherwise.
//
//   ./trace_check --trace t.json.decisions.jsonl --metrics m.prom
//       --chrome t.json
//   ./trace_check --federated leader_metrics.prom --expect-agent 127.0.0.1:7701
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lorasched/obs/json.h"
#include "lorasched/obs/trace.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

/// Parses a Prometheus text exposition into {metric name -> value},
/// ignoring HELP/TYPE comments and labeled series (histogram buckets).
std::map<std::string, double> parse_exposition(std::istream& in) {
  std::map<std::string, double> values;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line.front() == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error("exposition line " + std::to_string(lineno) +
                               ": no value");
    }
    const std::string name = line.substr(0, space);
    std::size_t parsed = 0;
    const double value = std::stod(line.substr(space + 1), &parsed);
    if (name.empty()) {
      throw std::runtime_error("exposition line " + std::to_string(lineno) +
                               ": empty metric name");
    }
    // Labeled series (foo_bucket{le="..."}) keep their label string in the
    // key — the cross-check below only reads unlabeled counters.
    values[name] = value;
  }
  return values;
}

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "trace_check: FAIL: " << what << "\n";
  std::exit(1);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

/// Parses `{k="v",...}` starting at `pos` (the '{'); returns the label map
/// and advances `pos` past the closing '}'. Values must use the exposition
/// escapes (\\, \", \n) — a raw newline can't appear in a getline'd line,
/// but an unescaped '"' or a dangling backslash is a malformed series.
std::map<std::string, std::string> parse_labels(const std::string& line,
                                                std::size_t& pos,
                                                int lineno) {
  const auto bad = [&](const std::string& what) -> std::runtime_error {
    return std::runtime_error("exposition line " + std::to_string(lineno) +
                              ": " + what);
  };
  std::map<std::string, std::string> labels;
  ++pos;  // consume '{'
  while (pos < line.size() && line[pos] != '}') {
    const auto eq = line.find('=', pos);
    if (eq == std::string::npos) throw bad("label without '='");
    const std::string key = line.substr(pos, eq - pos);
    if (!valid_metric_name(key)) throw bad("bad label name '" + key + "'");
    pos = eq + 1;
    if (pos >= line.size() || line[pos] != '"') {
      throw bad("label value not quoted");
    }
    ++pos;
    std::string value;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') {
        if (pos + 1 >= line.size()) throw bad("dangling backslash in label");
        const char next = line[pos + 1];
        if (next != '\\' && next != '"' && next != 'n') {
          throw bad("unknown escape in label value");
        }
        value += next == 'n' ? '\n' : next;
        pos += 2;
      } else {
        value += line[pos++];
      }
    }
    if (pos >= line.size()) throw bad("unterminated label value");
    ++pos;  // closing '"'
    if (labels.count(key) != 0) throw bad("duplicate label '" + key + "'");
    labels[key] = value;
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  if (pos >= line.size()) throw bad("unterminated label set");
  ++pos;  // consume '}'
  return labels;
}

/// Strict federated-exposition validation (the leader's /metrics payload).
/// Dies with a diagnostic on any syntax or ordering violation; on success
/// reports how many agent-labeled lorasched_dp_price_cache_* series were
/// seen and checks --expect-agent when given.
void check_federated(std::istream& in, const std::string& expect_agent) {
  std::string line;
  int lineno = 0;
  std::map<std::string, std::string> types;      // name -> TYPE kind
  std::map<std::string, std::uint64_t> samples;  // name -> sample count
  std::set<std::string> dp_cache_agents;
  std::uint64_t series = 0;
  std::uint64_t dp_cache_series = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto die = [&](const std::string& what) {
      fail("exposition line " + std::to_string(lineno) + ": " + what);
    };
    if (line.front() == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name;
      comment >> hash >> kind >> name;
      if (kind != "HELP" && kind != "TYPE") die("unknown comment '" + line + "'");
      if (!valid_metric_name(name)) die("bad metric name in " + kind);
      if (kind == "TYPE") {
        std::string type;
        comment >> type;
        if (type != "counter" && type != "gauge" && type != "histogram") {
          die("unknown TYPE '" + type + "'");
        }
        if (!types.emplace(name, type).second) {
          die("duplicate TYPE for " + name);
        }
        if (samples.count(name) != 0) die("TYPE for " + name + " after samples");
      }
      continue;
    }
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) die("no value");
    const std::string name = line.substr(0, pos);
    if (!valid_metric_name(name)) die("bad metric name '" + name + "'");
    std::map<std::string, std::string> labels;
    if (line[pos] == '{') {
      try {
        labels = parse_labels(line, pos, lineno);
      } catch (const std::exception& e) {
        fail(e.what());
      }
    }
    if (pos >= line.size() || line[pos] != ' ') die("no space before value");
    std::size_t parsed = 0;
    double value = 0.0;
    try {
      value = std::stod(line.substr(pos + 1), &parsed);
    } catch (const std::exception&) {
      die("unparsable sample value");
    }
    if (!std::isfinite(value)) die("non-finite sample value");
    ++series;
    samples[name] += 1;
    // Histogram sub-series (_bucket/_sum/_count) belong to the base name.
    std::string base = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (base.size() > suffix.size() &&
          base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
              0 &&
          types.count(base) == 0 &&
          types.count(base.substr(0, base.size() - suffix.size())) != 0) {
        base = base.substr(0, base.size() - suffix.size());
      }
    }
    if (types.count(base) == 0) die("sample for " + name + " without TYPE");
    if (base.rfind("lorasched_dp_price_cache_", 0) == 0) {
      const auto agent = labels.find("agent");
      if (agent == labels.end()) {
        die("federated series " + name + " carries no agent label");
      }
      dp_cache_agents.insert(agent->second);
      ++dp_cache_series;
    }
  }
  if (series == 0) fail("federated exposition is empty");
  if (dp_cache_series == 0) {
    fail("no lorasched_dp_price_cache_* series in the federated exposition");
  }
  if (!expect_agent.empty() && dp_cache_agents.count(expect_agent) == 0) {
    fail("no dp price-cache series from agent '" + expect_agent + "'");
  }
  std::cout << "trace_check: OK — " << series << " federated series, "
            << dp_cache_series << " dp price-cache series from "
            << dp_cache_agents.size() << " agent(s)\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"trace", "metrics", "chrome", "federated", "expect-agent"});

  // --- Federated exposition mode (lorasched_serve --agents /metrics) -------
  if (cli.has("federated")) {
    std::ifstream federated_in(cli.get("federated", ""));
    if (!federated_in) fail("cannot open --federated file");
    check_federated(federated_in, cli.get("expect-agent", ""));
    return 0;
  }

  // --- Decision JSONL ------------------------------------------------------
  std::ifstream trace_in(cli.get("trace", ""));
  if (!trace_in) fail("cannot open --trace file");
  std::uint64_t records = 0;
  std::uint64_t admitted = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(trace_in, line)) {
    ++lineno;
    if (line.empty()) continue;
    obs::DecisionTraceRecord record;
    try {
      record = obs::parse_decision_line(line);
    } catch (const std::exception& e) {
      fail("trace line " + std::to_string(lineno) + ": " + e.what());
    }
    if (record.candidates.empty()) {
      fail("trace line " + std::to_string(lineno) +
           ": no Alg. 2 candidates recorded");
    }
    if (record.admitted) {
      if (record.chosen < 0 ||
          record.chosen >= static_cast<std::int32_t>(record.candidates.size())) {
        fail("trace line " + std::to_string(lineno) +
             ": admitted without a chosen candidate");
      }
      if (record.duals.empty()) {
        fail("trace line " + std::to_string(lineno) +
             ": admitted without sampled duals");
      }
      const obs::PaymentTrace& pay = record.payment;
      const double total =
          pay.vendor + pay.energy + pay.compute + pay.memory;
      if (std::abs(pay.total - total) > 1e-9 * std::max(1.0, total)) {
        fail("trace line " + std::to_string(lineno) +
             ": payment components do not sum to total");
      }
      if (std::abs(pay.charged - pay.total) >
          1e-9 * std::max(1.0, pay.total)) {
        fail("trace line " + std::to_string(lineno) +
             ": admitted bid not charged the eq. (14) total");
      }
      ++admitted;
    } else if (record.payment.charged != 0.0) {
      fail("trace line " + std::to_string(lineno) + ": rejected bid charged");
    }
    ++records;
  }
  if (records == 0) fail("trace JSONL is empty");

  // --- Prometheus exposition ----------------------------------------------
  std::ifstream metrics_in(cli.get("metrics", ""));
  if (!metrics_in) fail("cannot open --metrics file");
  const auto values = parse_exposition(metrics_in);
  if (values.empty()) fail("metrics exposition is empty");
  const auto expect = [&](const std::string& name, std::uint64_t want) {
    const auto it = values.find(name);
    if (it == values.end()) fail("exposition missing " + name);
    if (static_cast<std::uint64_t>(it->second) != want) {
      std::ostringstream msg;
      msg << name << " = " << it->second << " but the decision log has "
          << want;
      fail(msg.str());
    }
  };
  // With --late clamp every ingested bid reaches the policy, so the JSONL
  // decision log and the service counters must agree exactly.
  expect("service_bids_decided_total", records);
  expect("service_bids_admitted_total", admitted);
  expect("service_bids_rejected_total", records - admitted);

  // --- Chrome trace --------------------------------------------------------
  std::ifstream chrome_in(cli.get("chrome", ""));
  if (!chrome_in) fail("cannot open --chrome file");
  std::ostringstream chrome_text;
  chrome_text << chrome_in.rdbuf();
  obs::Json chrome;
  try {
    chrome = obs::Json::parse(chrome_text.str());
  } catch (const std::exception& e) {
    fail(std::string("chrome trace does not parse: ") + e.what());
  }
  const obs::Json* events = chrome.find("traceEvents");
  if (events == nullptr) fail("chrome trace has no traceEvents member");
  if (events->as_array().empty()) fail("chrome traceEvents is empty");

  std::cout << "trace_check: OK — " << records << " decisions (" << admitted
            << " admitted), " << values.size() << " exposition series, "
            << events->as_array().size() << " trace events\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "trace_check: error: " << e.what() << "\n";
  return 1;
}
