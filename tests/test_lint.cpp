// gdmp_lint self-test: the fixture files under tests/lint_fixtures/ each
// violate one rule in a known way; expected.txt is the golden finding list.
// Any rule regression — a missed violation, a spurious finding, a changed
// message — shows up as a golden diff.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace gdmp::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kFixtureDir = GDMP_LINT_FIXTURE_DIR;

std::vector<std::string> fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Formats findings with paths relative to the fixture dir, matching the
/// golden file.
std::vector<std::string> relative_findings(const std::vector<Finding>& all) {
  std::vector<std::string> lines;
  for (Finding f : all) {
    f.file = fs::path(f.file).filename().string();
    lines.push_back(format_finding(f));
  }
  return lines;
}

TEST(Lint, FixturesMatchGolden) {
  const auto findings = run_lint(fixture_files());
  const auto got = relative_findings(findings);

  std::ifstream golden(kFixtureDir / "expected.txt");
  ASSERT_TRUE(golden.is_open()) << "missing golden file expected.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty()) want.push_back(line);
  }

  EXPECT_EQ(got, want);
}

TEST(Lint, CleanFixtureHasNoFindings) {
  const auto findings = run_lint({(kFixtureDir / "clean.cpp").string()});
  for (const Finding& f : findings) {
    ADD_FAILURE() << "unexpected finding: " << format_finding(f);
  }
}

TEST(Lint, EveryRuleIsExercised) {
  // The fixture set must stay exhaustive: when a new rule is added to the
  // linter, a fixture (and golden entry) must be added with it.
  const auto findings = run_lint(fixture_files());
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  for (const char* rule :
       {"wallclock", "raw-random", "callback-lifetime", "shared-cycle",
        "naked-new", "naked-delete", "using-namespace-header",
        "missing-pragma-once", "bare-suppression", "unused-suppression",
        "unordered-iteration", "unordered-float-accum"}) {
    EXPECT_TRUE(std::find(rules.begin(), rules.end(), rule) != rules.end())
        << "no fixture exercises rule: " << rule;
  }
}

// --------------------------------------------------- include-graph pass
//
// The graph/ subtree is a miniature three-layer architecture (layers.conf:
// base < mid < app, plus a `private _secret` pattern) whose sources violate
// every graph rule on purpose. It lives in a subdirectory so the flat
// golden test above never sees it.

std::vector<std::string> graph_fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(kFixtureDir / "graph")) {
    if (entry.path().extension() == ".h" || entry.path().extension() == ".cpp") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

LintOptions graph_options() {
  LintOptions options;
  std::string error;
  const auto conf = (kFixtureDir / "graph" / "layers.conf").string();
  EXPECT_TRUE(load_layer_config(conf, options.layers, error)) << error;
  return options;
}

TEST(LintGraph, EveryGraphRuleIsExercised) {
  const auto findings = run_lint(graph_fixture_files(), graph_options());
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  for (const char* rule : {"upward-include", "include-cycle",
                           "private-include", "unknown-module",
                           "unused-include"}) {
    EXPECT_TRUE(std::find(rules.begin(), rules.end(), rule) != rules.end())
        << "no graph fixture exercises rule: " << rule;
  }
}

TEST(LintGraph, UpwardEdgeNamesTheViolatingInclude) {
  const auto findings = run_lint(graph_fixture_files(), graph_options());
  for (const Finding& f : findings) {
    if (f.rule != "upward-include") continue;
    EXPECT_TRUE(f.file.ends_with("base/clock.h")) << f.file;
    EXPECT_NE(f.message.find("mid"), std::string::npos) << f.message;
    return;
  }
  FAIL() << "no upward-include finding";
}

TEST(LintGraph, CycleReportsBaseMidScc) {
  const auto findings = run_lint(graph_fixture_files(), graph_options());
  for (const Finding& f : findings) {
    if (f.rule != "include-cycle") continue;
    EXPECT_NE(f.message.find("base"), std::string::npos) << f.message;
    EXPECT_NE(f.message.find("mid"), std::string::npos) << f.message;
    return;
  }
  FAIL() << "no include-cycle finding";
}

TEST(LintGraph, PrivateHeaderFlaggedByStemAndByConfigPattern) {
  const auto findings = run_lint(graph_fixture_files(), graph_options());
  bool by_stem = false, by_pattern = false;
  for (const Finding& f : findings) {
    if (f.rule != "private-include") continue;
    if (f.message.find("policy_internal.h") != std::string::npos)
      by_stem = true;
    if (f.message.find("knobs_secret.h") != std::string::npos)
      by_pattern = true;
  }
  EXPECT_TRUE(by_stem) << "built-in _internal stem not flagged";
  EXPECT_TRUE(by_pattern) << "layers.conf `private` pattern not flagged";
}

TEST(LintGraph, KeepIncludeSuppressesOnlyTheAnnotatedInclude) {
  // tool.cpp has two never-used includes; the rogue one carries a justified
  // keep-include, so exactly the clock.h one must be reported.
  const auto findings = run_lint(graph_fixture_files(), graph_options());
  std::vector<std::string> unused;
  for (const Finding& f : findings) {
    if (f.rule == "unused-include") unused.push_back(f.message);
  }
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_NE(unused[0].find("base/clock.h"), std::string::npos) << unused[0];
}

TEST(LintGraph, GraphExtractionAndDotExport) {
  const LintOptions options = graph_options();
  IncludeGraph graph;
  std::vector<Finding> ignored = run_lint(graph_fixture_files(), options, &graph);
  const std::vector<std::string> want_modules = {"app", "base", "mid",
                                                 "rogue"};
  EXPECT_EQ(graph.modules, want_modules);
  EXPECT_GT(graph.file_edge_count, 0);

  const std::string dot = graph_to_dot(graph, options.layers);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"base\" -> \"mid\""), std::string::npos) << dot;
}

// --------------------------------------------------- hot-path pass
//
// The hotpath/ subtree is a miniature event-driven engine whose sources
// exercise every --hot-paths rule: reachability roots (declaration and
// definition `hot-path` annotations, schedule-callback lambdas, cross-TU
// propagation, also past a call used as an `if` guard), the allocation rule with its pooled / diagnostic / hot-alloc
// exemptions, and the three handle-lifetime rules. relay.cpp holds calls
// that must not read as definitions: a later argument that is a lambda or
// braces, and an init-capture.

std::vector<std::string> hotpath_fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(kFixtureDir / "hotpath")) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

LintOptions hotpath_options() {
  LintOptions options;
  options.hot_paths = true;
  return options;
}

TEST(LintHotPath, FixturesMatchGolden) {
  const auto findings = run_lint(hotpath_fixture_files(), hotpath_options());
  const auto got = relative_findings(findings);

  std::ifstream golden(kFixtureDir / "hotpath" / "expected.txt");
  ASSERT_TRUE(golden.is_open()) << "missing golden file hotpath/expected.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty()) want.push_back(line);
  }

  EXPECT_EQ(got, want);
}

TEST(LintHotPath, EveryHotRuleIsExercised) {
  const auto findings = run_lint(hotpath_fixture_files(), hotpath_options());
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  for (const char* rule : {"hot-path-alloc", "handle-overwrite",
                           "handle-use-after-cancel",
                           "handle-reschedule-unchecked"}) {
    EXPECT_TRUE(std::find(rules.begin(), rules.end(), rule) != rules.end())
        << "no hotpath fixture exercises rule: " << rule;
  }
}

TEST(LintHotPath, WithoutHotPassAnnotationsAreInertAndRulesAreOff) {
  // The same fixture set linted WITHOUT --hot-paths: no hot findings, and
  // the hot-path/hot-alloc annotations must not be reported as unused.
  const auto findings = run_lint(hotpath_fixture_files());
  for (const Finding& f : findings) {
    ADD_FAILURE() << "unexpected finding without --hot-paths: "
                  << format_finding(f);
  }
}

TEST(LintHotPath, ReportListsRootsEdgesAndJustifications) {
  HotPathReport report;
  const auto findings = run_lint(hotpath_fixture_files(), hotpath_options(),
                                 nullptr, &report);

  // Roots: pump (declaration annotation), drain (definition annotation),
  // two scheduled lambdas; helper_alloc is hot but not a root.
  bool pump_root = false, helper_hot = false, helper_root = true;
  int lambda_count = 0;
  for (const auto& f : report.functions) {
    if (f.name == "pump") pump_root = f.root;
    if (f.name == "helper_alloc") {
      helper_hot = true;
      helper_root = f.root;
    }
    if (f.name == "<lambda>") ++lambda_count;
  }
  EXPECT_TRUE(pump_root);
  EXPECT_TRUE(helper_hot);
  EXPECT_FALSE(helper_root) << "helper_alloc is reached, not a root";
  EXPECT_EQ(lambda_count, 2);

  // The cross-TU edge pump -> helper_alloc must be recorded.
  bool edge = false;
  for (const auto& e : report.edges) {
    if (e.caller.find("pump") != std::string::npos &&
        e.callee.find("helper_alloc") != std::string::npos) {
      edge = true;
    }
  }
  EXPECT_TRUE(edge) << "missing pump -> helper_alloc call edge";

  // Justifications: the two hot-path roots plus the hot-alloc suppression.
  ASSERT_EQ(report.justifications.size(), 3u);
  bool session_justified = false;
  for (const auto& j : report.justifications) {
    if (j.token == "hot-alloc" &&
        j.justification.find("session block") != std::string::npos) {
      session_justified = true;
    }
  }
  EXPECT_TRUE(session_justified);

  const std::string json = format_hot_report_json(findings, report);
  EXPECT_NE(json.find("\"hot_paths\""), std::string::npos);
  EXPECT_NE(json.find("\"functions\""), std::string::npos);
  EXPECT_NE(json.find("helper_alloc"), std::string::npos);

  const std::string dot = hot_report_to_dot(report);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("helper_alloc"), std::string::npos);
}

// ---------------------------------------------------- obligation pass
//
// The obligation/ subtree is a miniature async service: one callback alias
// (mini.h), a TU that drops and double-invokes (dropper.cpp), a TU that
// parks completions with no drain (parking.cpp), the clean discharge idioms
// (relay.cpp + sink.cpp: cross-TU transfer, stored-then-drained), and both
// suppressions individually justified (suppressed.cpp). It lives in a
// subdirectory so the flat golden test above never sees it.

std::vector<std::string> obligation_fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::directory_iterator(kFixtureDir / "obligation")) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

LintOptions obligation_options() {
  LintOptions options;
  options.obligations = true;
  return options;
}

TEST(LintObligation, FixturesMatchGolden) {
  const auto findings =
      run_lint(obligation_fixture_files(), obligation_options());
  const auto got = relative_findings(findings);

  std::ifstream golden(kFixtureDir / "obligation" / "expected.txt");
  ASSERT_TRUE(golden.is_open())
      << "missing golden file obligation/expected.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty()) want.push_back(line);
  }

  EXPECT_EQ(got, want);
}

TEST(LintObligation, EveryObligationRuleIsExercised) {
  const auto findings =
      run_lint(obligation_fixture_files(), obligation_options());
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  for (const char* rule : {"callback-dropped", "callback-double-invoke",
                           "obligation-stored-undrained"}) {
    EXPECT_TRUE(std::find(rules.begin(), rules.end(), rule) != rules.end())
        << "no obligation fixture exercises rule: " << rule;
  }
}

TEST(LintObligation, WithoutPassAnnotationsAreInertAndRulesAreOff) {
  // The same fixture set linted WITHOUT --obligations: no obligation
  // findings, and the dropped-ok/double-ok annotations must not be
  // reported as unused.
  const auto findings = run_lint(obligation_fixture_files());
  for (const Finding& f : findings) {
    ADD_FAILURE() << "unexpected finding without --obligations: "
                  << format_finding(f);
  }
}

TEST(LintObligation, ReportListsFunctionsEdgesWitnessesAndJustifications) {
  ObligationReport report;
  const auto findings =
      run_lint(obligation_fixture_files(), obligation_options(), nullptr,
               nullptr, &report);

  // Every function taking the Done alias is obligated; the two clean TUs
  // contribute functions but no findings.
  bool deliver = false, relay = false;
  for (const auto& f : report.functions) {
    if (f.name.find("deliver") != std::string::npos) deliver = true;
    if (f.name.find("relay") != std::string::npos) relay = true;
  }
  EXPECT_TRUE(deliver);
  EXPECT_TRUE(relay);

  // Discharge edges: relay -> forward_done (transfer) and the two parked
  // containers (store), including the drained one.
  bool transfer = false, store = false;
  for (const auto& e : report.edges) {
    if (e.kind == "transfer" &&
        e.from.find("relay") != std::string::npos &&
        e.to.find("forward_done") != std::string::npos) {
      transfer = true;
    }
    if (e.kind == "store" && e.to.find("pending_") != std::string::npos) {
      store = true;
    }
  }
  EXPECT_TRUE(transfer) << "missing relay -> forward_done transfer edge";
  EXPECT_TRUE(store) << "missing store-into-pending_ edge";

  // Each finding carries a per-path witness with at least one step.
  ASSERT_EQ(report.witnesses.size(), findings.size());
  for (const auto& w : report.witnesses) {
    EXPECT_FALSE(w.steps.empty()) << w.rule << " witness has no steps";
  }

  // Both suppression tokens fired with their justifications.
  ASSERT_EQ(report.justifications.size(), 2u);
  bool dropped_ok = false, double_ok = false;
  for (const auto& j : report.justifications) {
    if (j.token == "dropped-ok" &&
        j.justification.find("probe path") != std::string::npos) {
      dropped_ok = true;
    }
    if (j.token == "double-ok" &&
        j.justification.find("flush signal") != std::string::npos) {
      double_ok = true;
    }
  }
  EXPECT_TRUE(dropped_ok);
  EXPECT_TRUE(double_ok);

  const std::string json = format_reports_json(findings, nullptr, &report);
  EXPECT_NE(json.find("\"obligations\""), std::string::npos);
  EXPECT_NE(json.find("\"witnesses\""), std::string::npos);
  EXPECT_NE(json.find("forward_done"), std::string::npos);

  const std::string dot = obligation_report_to_dot(report);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("pending_"), std::string::npos);
}

TEST(Lint, UnreadablePathReportsIoError) {
  const auto findings =
      run_lint({(kFixtureDir / "does_not_exist.cpp").string()});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io-error");
}

TEST(Lint, JsonEscapeHandlesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // Bytes >= 0x80 (UTF-8 continuations, e.g. in em dashes) pass through
  // verbatim — and must never sign-extend into an 8-digit \u escape.
  const std::string high = "a\xe2\x80\x94z";
  EXPECT_EQ(json_escape(high), high);
}

TEST(Lint, JsonFindingsEscapePathsAndMessages) {
  std::vector<Finding> findings;
  findings.push_back({"dir\\sub/f.cpp", 3, "naked-new", "say \"no\" to new"});
  const std::string json = format_findings_json(findings);
  EXPECT_NE(json.find("dir\\\\sub/f.cpp"), std::string::npos) << json;
  EXPECT_NE(json.find("say \\\"no\\\" to new"), std::string::npos) << json;
}

TEST(Lint, DeterminismAllowlistExemptsBlessedFiles) {
  // The same content that fires raw-random in a fixture is legal inside
  // src/common/random.* — verify via the path-substring allowlist.
  std::ifstream in(kFixtureDir / "raw_random.cpp");
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();

  const FileScan scan = scan_source(buffer.str());
  std::vector<Finding> findings;
  LintOptions options;
  lint_file("src/common/random.cpp", scan, {}, options, findings);
  EXPECT_TRUE(findings.empty());

  findings.clear();
  lint_file("src/storage/disk.cpp", scan, {}, options, findings);
  EXPECT_FALSE(findings.empty());
}

}  // namespace
}  // namespace gdmp::lint
