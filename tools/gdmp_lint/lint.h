// gdmp_lint: project-invariant checker for the GDMP codebase.
//
// A lightweight tokenizer (no libclang) plus rule passes that enforce
// invariants the compiler cannot. Per-file token rules:
//
//   wallclock          sim-determinism: no wall-clock time sources outside
//                      src/common/random.* — all time flows through
//                      sim::Simulator.
//   raw-random         sim-determinism: no raw random engines/devices
//                      outside src/common/random.* — all randomness flows
//                      through common::Rng.
//   callback-lifetime  a lambda that captures raw `this` and is handed to
//                      an async sink (simulator schedule, rpc call, tcp/
//                      gridftp handler slot, disk I/O completion) must also
//                      capture a liveness guard (`alive`/`weak*`/`self`),
//                      the PR 1 use-after-free class.
//   shared-cycle       a callback stored on object X whose capture list
//                      captures X by shared_ptr keeps X alive through its
//                      own member: an ownership cycle.
//   naked-new          no `new` outside make_unique/make_shared (private
//                      constructors get a justified suppression).
//   naked-delete       no `delete` (except `= delete` declarations).
//   using-namespace-header  no `using namespace` at header scope.
//   missing-pragma-once     every header starts with `#pragma once`.
//   bare-suppression   a `// gdmp-lint:` annotation with no justification.
//   unused-suppression an annotation that suppresses nothing.
//
// Flow-aware determinism rules (translation-unit call-graph analysis, with
// container/float declarations collected across the whole input set so
// members declared in headers are attributed in the .cpp):
//
//   unordered-iteration    iterating an unordered container inside a
//                          function that (transitively, within the TU)
//                          reaches a scheduling sink (Simulator::schedule,
//                          rpc send/call, tcp/gridftp close & send slots)
//                          makes the event order depend on hash order.
//   unordered-float-accum  accumulating floating-point values in unordered
//                          iteration order: fp addition is not associative,
//                          so the sum depends on bucket layout.
//
// Whole-program include-graph rules (active when every file of interest is
// scanned together, e.g. `gdmp_lint src/`):
//
//   upward-include     include edge from a lower layer into a higher layer
//                      of the DAG declared in layers.conf.
//   include-cycle      a module-level dependency cycle (Tarjan SCC).
//   private-include    including another module's .cpp-private header
//                      (`*_internal.h`, `*_detail.h`, `<module>/detail/`,
//                      or a `private` pattern in layers.conf).
//   unknown-module     a module missing from layers.conf.
//   unused-include     a quoted project include none of whose declared
//                      names appear in the including file (also duplicate
//                      includes of the same header).
//
// Hot-path rules (whole-program, opt-in via --hot-paths; DESIGN.md §5h):
// hot functions are the transitive callee closure of the event-kernel
// roots — every callback handed to Simulator::schedule/schedule_at or a
// PeriodicTimer, the sim kernel itself (EventHeap push/pop, simulator
// dispatch, InlineFunction), FlowEngine::renegotiate and its rate-class
// completion handler and re-arm (on_class_due, arm),
// HeartbeatReporter::tick/render_rollup — plus any function marked
// `// gdmp-lint: hot-path — why`. Within hot code:
//
//   hot-path-alloc     dynamic allocation on the hot path: non-placement
//                      `new`, make_shared/make_unique, std::function
//                      construction (type erasure), std::string append/`+`,
//                      and unreserved container growth (push_back/insert/
//                      map operator[]). Pooled idioms pass: containers with
//                      a reserve() anywhere in the TU or a clear() in the
//                      same function (the reused-capacity render buffer).
//
// Event-handle lifetime rules (also under --hot-paths, all functions):
//
//   handle-overwrite             a live EventHandle is overwritten by a new
//                                schedule() return without cancel — the
//                                pending event leaks (fires unowned).
//   handle-use-after-cancel      reschedule/set_daemon on a handle after
//                                cancel() with no reassignment: generation
//                                tags make it a guaranteed dead-slot no-op.
//   handle-reschedule-unchecked  reschedule() result discarded at statement
//                                position — when the handle is stale the
//                                event is silently never re-armed; use the
//                                `if (sim.reschedule(h, d)) return;` idiom.
//
// Completion-obligation rules (whole-program, opt-in via --obligations;
// DESIGN.md §5i). An *obligation* is a callable parameter the caller expects
// to be completed exactly once: its type is a callback alias (`using X =
// std::function<...>`/`sim::InlineFunction<...>`, followed through alias
// chains repo-wide) or an inline `std::function<...>`, and either the
// parameter is named like a continuation (done / cb / callback / respond /
// finish / on_done / on_complete) or the type name is terminal (`Done`,
// `*Done`, `Respond`, `Completion`). Each function (and lambda) is walked
// path-sensitively over a statement-level CFG; the obligation moves through
// a lattice: unfulfilled -> fulfilled (invoked) | transferred (handed to
// another obligation-taking function, moved into a lambda capture, or
// returned) | stored (parked in a `pending_`-style container):
//
//   callback-dropped             some path reaches function exit without
//                                invoking, transferring or storing the
//                                obligation (the canonical hit: an early
//                                `return` on an error branch).
//   callback-double-invoke       a path invokes an obligation that was
//                                already fulfilled or transferred.
//   obligation-stored-undrained  an obligation is stored in a container
//                                whose TU has no teardown path (destructor,
//                                close/stop/shutdown/drain/fail_all/
//                                cancel_all) that references the container —
//                                on owner destruction every parked
//                                completion would be silently dropped.
//
// Move-captures (`[cb = std::move(done)] {...}`) transfer the obligation
// into the lambda, whose body is then analyzed with the capture name as a
// fresh obligation; copy/reference captures discharge the obligation
// without obligating the lambda (the shared-completion idiom: N copies,
// last one fires). `if (done)` / `if (!done)` guards specialize paths, so
// the empty branch carries no obligation.
//
// Suppression syntax (same line as the finding or the line above):
//
//   // gdmp-lint: <token> — <individual justification, required>
//
// where <token> is the rule's suppression token: wallclock, raw-random,
// owned-callback (for callback-lifetime), keepalive-cycle (for
// shared-cycle), owned-new, owned-delete, order-insensitive (for the two
// unordered rules), keep-include (for unused-include), hot-alloc (for
// hot-path-alloc), stale-handle (for the three handle-lifetime rules),
// dropped-ok (for callback-dropped and obligation-stored-undrained),
// double-ok (for callback-double-invoke).
// `hot-path` is not a suppression but a root declaration consumed by the
// hot-path pass; like suppressions it requires a justification. Blanket
// (file- or region-wide) suppression deliberately does not exist. The graph
// rules (upward-include, include-cycle, private-include, unknown-module)
// are architectural and unsuppressible: fix the dependency instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gdmp::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

// ---------------------------------------------------------------- lexer

enum class TokenKind : std::uint8_t {
  kIdentifier,
  kNumber,
  kString,   // string or char literal (contents not preserved)
  kPunct,    // operators and punctuation; multi-char ops are one token
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;
};

/// One `// gdmp-lint: <token> — justification` annotation.
struct Suppression {
  int line = 0;
  std::string token;
  std::string justification;  // text after the token, dashes trimmed
  bool justified = false;     // has explanatory text after the token
  mutable bool used = false;
};

/// One `#include` directive (quoted or angled).
struct IncludeDirective {
  int line = 0;
  std::string path;    // the include operand, verbatim
  bool angled = false; // <...> (system) vs "..." (project)
};

struct FileScan {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<IncludeDirective> includes;
  bool has_pragma_once = false;
};

/// Tokenizes C++ source: skips comments (recording gdmp-lint annotations),
/// collapses string/char literals, skips preprocessor directives (recording
/// `#pragma once`). Never fails; unrecognized bytes become punctuation.
FileScan scan_source(const std::string& content);

// ---------------------------------------------------------------- layers

/// The declared architecture: modules assigned to layers (0 = lowest).
/// Include edges must point downward or stay within a layer; the module
/// graph must be acyclic regardless.
struct LayerConfig {
  std::vector<std::vector<std::string>> layers;  // layers[rank] = modules
  std::map<std::string, int> ranks;              // module -> rank
  std::vector<std::string> private_patterns;     // extra private-header marks

  bool empty() const noexcept { return layers.empty(); }
  /// -1 when the module is not declared.
  int rank_of(const std::string& module) const;
};

/// Parses layers.conf:
///   layer <module>...      one line per layer, lowest first
///   private <substring>    marks matching header paths module-private
/// '#' starts a comment. Returns false and sets `error` on malformed input.
bool load_layer_config(const std::string& path, LayerConfig& config,
                       std::string& error);

// ---------------------------------------------------------------- graph

/// The module-level include graph extracted from a scanned file set.
struct IncludeGraph {
  struct Edge {
    std::string from_module;
    std::string to_module;
    // Representative include site (first seen, for diagnostics).
    std::string file;
    int line = 0;
    int count = 0;  // number of file-level includes behind this edge
  };
  std::vector<std::string> modules;  // sorted
  std::vector<Edge> edges;           // sorted by (from, to)

  /// Total file-level include edges (the rebuild fan-out metric).
  int file_edge_count = 0;
};

// ---------------------------------------------------------------- rules

struct LintOptions {
  /// Path substrings exempt from the determinism rules (the blessed
  /// randomness/time shims live here).
  std::vector<std::string> determinism_allowlist = {"common/random.",
                                                    "common/det_hash."};
  /// When non-empty, the include-graph pass checks layering (upward edges,
  /// unknown modules) against this DAG. Cycle/private/unused checks run
  /// whenever more than one module is scanned, config or not.
  LayerConfig layers;
  /// Enables the hot-path pass: hot-path-alloc plus the three event-handle
  /// lifetime rules. Off, the hot-path annotation family is inert (never
  /// reported unused) so annotated sources stay clean under plain runs.
  bool hot_paths = false;
  /// Enables the completion-obligation pass: callback-dropped,
  /// callback-double-invoke and obligation-stored-undrained. Off, the
  /// dropped-ok/double-ok annotation family is inert.
  bool obligations = false;
};

/// Class names that inherit std::enable_shared_from_this, collected across
/// the whole input set so out-of-line member definitions are attributed.
std::vector<std::string> collect_esft_classes(const FileScan& scan);

/// Identifier names declared with an unordered container type
/// (std::unordered_map/set/..., common::UnorderedMap/Set), collected
/// repo-wide so members declared in headers are attributed in the .cpp.
std::vector<std::string> collect_unordered_names(const FileScan& scan);

/// Identifier names declared float/double, same collection scheme.
std::vector<std::string> collect_float_names(const FileScan& scan);

/// Repo-wide declaration context handed to every per-file lint pass.
struct DeclIndex {
  std::vector<std::string> esft_classes;
  std::vector<std::string> unordered_names;
  std::vector<std::string> float_names;
};

/// Runs every per-file rule over one scanned file.
void lint_file(const std::string& path, const FileScan& scan,
               const DeclIndex& decls, const LintOptions& options,
               std::vector<Finding>& findings);

/// Include-graph pass over the whole scanned set: builds the module graph
/// (quoted includes resolving to scanned files) and emits upward-include /
/// include-cycle / private-include / unknown-module / unused-include
/// findings. `graph_out`, when non-null, receives the extracted graph.
void lint_include_graph(
    const std::vector<std::pair<std::string, FileScan>>& scans,
    const LintOptions& options, std::vector<Finding>& findings,
    IncludeGraph* graph_out = nullptr);

// ------------------------------------------------------------- hot paths

/// The hot-function closure computed by the --hot-paths pass.
struct HotPathReport {
  struct HotFunction {
    std::string file;
    int line = 0;
    std::string name;
    /// Why this function is hot: "seed:<subsystem>", "annotation",
    /// "callback:<sink>" (a lambda handed to the kernel), or
    /// "called-from:<caller>".
    std::string origin;
    bool root = false;
  };
  struct Edge {  // hot caller -> hot callee, by display name
    std::string caller;
    std::string callee;
  };
  /// A hot-family suppression/annotation that fired, with its
  /// justification — the audit trail behind "runs clean".
  struct Justification {
    std::string file;
    int line = 0;
    std::string token;
    std::string justification;
  };
  std::vector<HotFunction> functions;  // sorted by (file, line, name)
  std::vector<Edge> edges;             // sorted, deduplicated
  std::vector<Justification> justifications;
};

/// Whole-program hot-path pass: seeds the root set (kernel paths,
/// schedule-callback lambdas, hot-path annotations), closes it over the
/// per-TU call graph (cross-TU only through uniquely-defined names), and
/// emits hot-path-alloc plus the handle-lifetime findings. Runs before the
/// per-file pass so the suppressions it honours are marked used in time
/// for unused-suppression accounting.
void lint_hot_paths(const std::vector<std::pair<std::string, FileScan>>& scans,
                    const LintOptions& options, std::vector<Finding>& findings,
                    HotPathReport* report = nullptr);

// ------------------------------------------------------------ obligations

/// What the --obligations pass learned about completion-obligation flow.
struct ObligationReport {
  /// A function (or lambda) that receives at least one obligation.
  struct ObligatedFunction {
    std::string file;
    int line = 0;
    std::string name;                      // "file.cpp:fn" display name
    std::vector<std::string> obligations;  // parameter/capture names
  };
  /// One discharge hand-off: an obligation transferred to another
  /// obligation-taking function ("transfer") or parked in a container
  /// ("store").
  struct Edge {
    std::string from;        // display name of the holding function
    std::string to;          // callee display name or container name
    std::string obligation;  // the obligation's local name
    std::string kind;        // "transfer" | "store"
    int line = 0;
  };
  /// The per-path witness behind a finding: every lattice event on the
  /// offending path, as "line: event" steps.
  struct Witness {
    std::string file;
    int line = 0;  // the finding's line
    std::string function;
    std::string obligation;
    std::string rule;
    std::vector<std::string> steps;
  };
  /// An obligation-family annotation that fired, with its justification.
  struct Justification {
    std::string file;
    int line = 0;
    std::string token;
    std::string justification;
  };
  std::vector<ObligatedFunction> functions;  // sorted by (file, line, name)
  std::vector<Edge> edges;                   // sorted, deduplicated
  std::vector<Witness> witnesses;            // sorted by (file, line, rule)
  std::vector<Justification> justifications;
};

/// Whole-program completion-obligation pass: collects the callback alias
/// inventory repo-wide, identifies obligation parameters, walks every
/// function path-sensitively and emits callback-dropped /
/// callback-double-invoke / obligation-stored-undrained findings. Runs
/// before the per-file pass so the suppressions it honours are marked used
/// in time for unused-suppression accounting.
void lint_obligations(
    const std::vector<std::pair<std::string, FileScan>>& scans,
    const LintOptions& options, std::vector<Finding>& findings,
    ObligationReport* report = nullptr);

/// Reads, scans and lints every file (per-file rules + the include-graph
/// pass + the hot-path pass when options.hot_paths + the obligation pass
/// when options.obligations); findings come back sorted by (file, line,
/// rule). Unreadable paths produce an `io-error` finding. `hot_out` /
/// `obligation_out`, when non-null and the matching pass is on, receive
/// the pass reports.
std::vector<Finding> run_lint(const std::vector<std::string>& files,
                              const LintOptions& options = {},
                              IncludeGraph* graph_out = nullptr,
                              HotPathReport* hot_out = nullptr,
                              ObligationReport* obligation_out = nullptr);

/// Formats one finding as `file:line: [rule] message`.
std::string format_finding(const Finding& finding);

/// JSON string escaping (quotes, backslashes, control characters; bytes
/// >= 0x80 pass through as UTF-8). Shared by every JSON emitter.
std::string json_escape(const std::string& text);

/// Formats the whole finding list as a JSON array (stable key order):
/// [{"file":...,"line":N,"rule":...,"message":...},...].
std::string format_findings_json(const std::vector<Finding>& findings);

/// Formats findings plus the hot-path report as one JSON object:
/// {"findings": [...], "hot_paths": {"functions": [...], "edges": [...],
/// "justifications": [...]}}.
std::string format_hot_report_json(const std::vector<Finding>& findings,
                                   const HotPathReport& report);

/// Formats findings plus any active pass reports as one JSON object:
/// {"findings": [...][, "hot_paths": {...}][, "obligations": {"functions":
/// [...], "edges": [...], "witnesses": [...], "justifications": [...]}]}.
/// Pass nullptr for a report whose pass did not run.
std::string format_reports_json(const std::vector<Finding>& findings,
                                const HotPathReport* hot,
                                const ObligationReport* obligations);

/// Renders the module graph as Graphviz DOT, one cluster per layer when a
/// config is given (pass empty config for a flat digraph).
std::string graph_to_dot(const IncludeGraph& graph, const LayerConfig& layers);

/// Renders the hot call graph as Graphviz DOT (roots double-outlined).
std::string hot_report_to_dot(const HotPathReport& report);

/// Renders the obligation-flow graph as Graphviz DOT: obligated functions
/// as ellipses, stored-into containers as boxes, transfer/store edges
/// labelled with the obligation name.
std::string obligation_report_to_dot(const ObligationReport& report);

}  // namespace gdmp::lint
