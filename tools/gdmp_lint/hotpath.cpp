// Hot-path pass for gdmp_lint (--hot-paths): whole-program hot-function
// closure plus the alloc-in-hot-path and event-handle lifetime rules.
//
// Hot roots:
//   * the event kernel itself — every function defined in sim/event_heap.h,
//     sim/simulator.*, sim/inline_function.h, sim/timer_queue.h;
//   * FlowEngine::renegotiate, the rate-class completion handler
//     (on_class_due) and its re-arm (arm), and HeartbeatReporter::tick /
//     render_rollup (the per-event and per-tick engines);
//   * every lambda handed to Simulator::schedule/schedule_at or a
//     PeriodicTimer — callbacks the kernel invokes;
//   * anything marked `// gdmp-lint: hot-path — why` (on the definition, or
//     on a header declaration to attribute out-of-line members repo-wide).
//
// Propagation: a callee of a hot function is hot. Calls resolve by name to
// functions defined in the same TU (the PR 4 fixpoint); across TUs only
// uniquely-defined names propagate, which keeps common names (run, send,
// close) from smearing heat over the whole repo.
//
// Pooled/reserve-ahead recognition for the alloc rule: a container or
// string that is `reserve()`d or `clear()`ed anywhere in the TU is treated
// as capacity-reusing (the EventHeap free list, FlowEngine scratch vectors
// and reserved-ahead class heaps, and the heartbeat line_buffer_/out
// rendering buffer all follow this idiom), so growth through it is not a
// finding. Node containers (maps, sets, lists) are never capacity-reusing:
// every insert allocates a node, whatever was cleared before.
#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "lint.h"
#include "tokens.h"

namespace gdmp::lint {
namespace {

using detail::Emitter;
using detail::Function;
using detail::Lambda;
using detail::find_functions;
using detail::find_lambdas;
using detail::ident_is;
using detail::is_call_keyword;
using detail::matching_close;
using detail::punct_is;
using detail::statement_start;

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// --------------------------------------------------- declaration scans

/// Declared names of type std::string (members, locals, parameters),
/// collected repo-wide like the unordered/float sets.
void collect_string_names(const FileScan& scan, std::set<std::string>& out) {
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!ident_is(tokens[i], "string")) continue;
    std::size_t j = i + 1;
    while (j < tokens.size() &&
           (punct_is(tokens[j], "&") || punct_is(tokens[j], "*") ||
            ident_is(tokens[j], "const"))) {
      ++j;
    }
    if (j + 1 >= tokens.size() || tokens[j].kind != TokenKind::kIdentifier) {
      continue;
    }
    const Token& after = tokens[j + 1];
    if (punct_is(after, ";") || punct_is(after, "=") || punct_is(after, ",") ||
        punct_is(after, ")") || punct_is(after, "{")) {
      out.insert(tokens[j].text);
    }
  }
}

/// Declared names of variables whose type is one of `type_names<...>`.
/// Used for the map set (operator[] inserts on miss) and for the sequence
/// set that disambiguates it: `x[i]` on a name also declared as a vector
/// somewhere in the repo must not be treated as a map insert.
void collect_template_decl_names(const FileScan& scan,
                                 const std::set<std::string>& type_names,
                                 std::set<std::string>& out) {
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        !type_names.contains(tokens[i].text) || !punct_is(tokens[i + 1], "<")) {
      continue;
    }
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].kind != TokenKind::kPunct) continue;
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") --depth;
      if (tokens[j].text == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    for (++j; j < tokens.size() && j < i + 80; ++j) {
      if (punct_is(tokens[j], "&") || punct_is(tokens[j], "*") ||
          ident_is(tokens[j], "const")) {
        continue;
      }
      if (tokens[j].kind == TokenKind::kIdentifier) out.insert(tokens[j].text);
      break;
    }
  }
}

/// Declared names of type sim::EventHandle (members, locals, parameters).
void collect_handle_names(const FileScan& scan, std::set<std::string>& out) {
  const auto& tokens = scan.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!ident_is(tokens[i], "EventHandle")) continue;
    std::size_t j = i + 1;
    while (j < tokens.size() &&
           (punct_is(tokens[j], "&") || punct_is(tokens[j], "*") ||
            ident_is(tokens[j], "const"))) {
      ++j;
    }
    if (j + 1 >= tokens.size() || tokens[j].kind != TokenKind::kIdentifier) {
      continue;
    }
    const Token& after = tokens[j + 1];
    if (punct_is(after, ";") || punct_is(after, "=") || punct_is(after, ",") ||
        punct_is(after, ")") || punct_is(after, "{")) {
      out.insert(tokens[j].text);
    }
  }
}

/// Names X with `X.reserve(` / `X.clear(` anywhere in the TU: the
/// capacity-reuse idiom the alloc rule recognizes.
std::set<std::string> collect_pooled_names(const FileScan& scan) {
  std::set<std::string> pooled;
  const auto& tokens = scan.tokens;
  for (std::size_t i = 2; i + 1 < tokens.size(); ++i) {
    if ((ident_is(tokens[i], "reserve") || ident_is(tokens[i], "clear")) &&
        punct_is(tokens[i + 1], "(") &&
        (punct_is(tokens[i - 1], ".") || punct_is(tokens[i - 1], "->")) &&
        tokens[i - 2].kind == TokenKind::kIdentifier) {
      pooled.insert(tokens[i - 2].text);
    }
  }
  return pooled;
}

// ------------------------------------------------------------- closure

struct TU {
  std::string path;
  const FileScan* scan = nullptr;
  std::vector<Function> functions;
  std::vector<Lambda> lambdas;
  std::multimap<std::string, std::size_t> fn_by_name;
  std::set<std::string> pooled;
  std::vector<char> fn_hot;
  std::vector<std::string> fn_origin;
  std::vector<char> fn_root;
  std::vector<char> lambda_hot;
};

struct Region {
  std::size_t tu = 0;
  std::size_t begin = 0;  // index of the region's '{'
  std::size_t end = 0;    // index of the matching '}'
  std::string display;    // "file.cpp:name" for edges/messages
  std::string name;       // bare function name (or "<lambda>")
};

/// Built-in root seeds: (path substring, function name or "" for all).
struct Seed {
  const char* path_substr;
  const char* name;  // empty = every function in the file
  const char* origin;
};

constexpr Seed kSeeds[] = {
    {"sim/event_heap.h", "", "seed:event-kernel"},
    {"sim/simulator.", "", "seed:event-kernel"},
    {"sim/inline_function.h", "", "seed:event-kernel"},
    {"sim/timer_queue.h", "", "seed:event-kernel"},
    {"flow/flow_engine.", "renegotiate", "seed:flow-renegotiation"},
    {"flow/flow_engine.", "on_class_due", "seed:flow-completion"},
    {"flow/flow_engine.", "arm", "seed:flow-completion"},
    {"obs/heartbeat.", "tick", "seed:heartbeat-render"},
    {"obs/heartbeat.", "render_rollup", "seed:heartbeat-render"},
};

/// Sinks whose callback argument the kernel invokes on the hot path.
bool is_hot_callback_sink(const std::string& ident) {
  return ident == "schedule" || ident == "schedule_at" ||
         ident == "PeriodicTimer";
}

std::string display_name(const TU& tu, const Function& f) {
  return basename_of(tu.path) + ":" + f.name;
}

class HotClosure {
 public:
  explicit HotClosure(std::vector<TU>& tus) : tus_(tus) {
    for (const TU& tu : tus_) {
      for (const Function& f : tu.functions) ++def_count_[f.name];
    }
  }

  void mark_function(std::size_t ti, std::size_t fi, const std::string& origin,
                     bool root) {
    TU& tu = tus_[ti];
    if (tu.fn_hot[fi]) {
      if (root && !tu.fn_root[fi]) tu.fn_root[fi] = 1;
      return;
    }
    tu.fn_hot[fi] = 1;
    tu.fn_root[fi] = root ? 1 : 0;
    tu.fn_origin[fi] = origin;
    const Function& f = tu.functions[fi];
    work_.push_back({ti, f.body_begin, f.body_end, display_name(tu, f),
                     f.name});
  }

  void mark_lambda(std::size_t ti, std::size_t li, const std::string& sink) {
    TU& tu = tus_[ti];
    if (tu.lambda_hot[li]) return;
    tu.lambda_hot[li] = 1;
    const Lambda& l = tu.lambdas[li];
    work_.push_back({ti, l.body_begin, l.body_end,
                     basename_of(tu.path) + ":<lambda:" +
                         std::to_string(l.line) + ">",
                     "<lambda>"});
    (void)sink;
  }

  /// Runs the worklist to a fixed point, recording call edges.
  void close(std::vector<HotPathReport::Edge>& edges) {
    while (!work_.empty()) {
      const Region r = work_.front();
      work_.pop_front();
      const TU& tu = tus_[r.tu];
      const auto& tokens = tu.scan->tokens;
      for (std::size_t i = r.begin + 1; i < r.end && i + 1 < tokens.size();
           ++i) {
        const Token& t = tokens[i];
        if (t.kind != TokenKind::kIdentifier || is_call_keyword(t.text)) {
          continue;
        }
        if (!punct_is(tokens[i + 1], "(") && !punct_is(tokens[i + 1], "<")) {
          continue;
        }
        // Same-TU definitions first (any number of overloads)...
        auto [lo, hi] = tu.fn_by_name.equal_range(t.text);
        bool resolved = false;
        for (auto it = lo; it != hi; ++it) {
          resolved = true;
          const Function& callee = tus_[r.tu].functions[it->second];
          if (callee.body_begin == r.begin) continue;  // self
          edges.push_back({r.display, display_name(tu, callee)});
          mark_function(r.tu, it->second, "called-from:" + r.name, false);
        }
        if (resolved) continue;
        // ...then cross-TU, but only through uniquely-defined names.
        auto count = def_count_.find(t.text);
        if (count == def_count_.end() || count->second != 1) continue;
        for (std::size_t tj = 0; tj < tus_.size(); ++tj) {
          auto [lo2, hi2] = tus_[tj].fn_by_name.equal_range(t.text);
          for (auto it = lo2; it != hi2; ++it) {
            edges.push_back(
                {r.display, display_name(tus_[tj], tus_[tj].functions[it->second])});
            mark_function(tj, it->second, "called-from:" + r.name, false);
          }
        }
      }
      closed_.push_back(r);
    }
  }

  const std::vector<Region>& regions() const { return closed_; }

 private:
  std::vector<TU>& tus_;
  std::map<std::string, int> def_count_;
  std::deque<Region> work_;
  std::vector<Region> closed_;
};

// ------------------------------------------------------- alloc checks

struct AllocContext {
  const std::set<std::string>* string_names;
  const std::set<std::string>* map_names;
  const std::set<std::string>* node_names;
};

/// True when the statement containing token `at` constructs a diagnostic:
/// an error Status (`make_error`), a log line (`GDMP_*` macros) or a
/// `throw`. Error paths terminate the hot path — a transfer that fails is
/// off the steady-state loop — so allocations in them are exempt.
bool in_diagnostic_statement(const std::vector<Token>& tokens,
                             std::size_t at) {
  const std::size_t begin = statement_start(tokens, at);
  for (std::size_t i = begin; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || (t.text == "{" && i > at))) {
      break;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "make_error" || t.text == "throw" ||
        t.text.starts_with("GDMP_")) {
      return true;
    }
  }
  return false;
}

void check_alloc_region(const TU& tu, const Region& r, const AllocContext& ctx,
                        Emitter& emitter,
                        std::set<std::pair<int, std::string>>& emitted) {
  const auto& tokens = tu.scan->tokens;
  const auto emit = [&](std::size_t at, const std::string& rule, int line,
                        std::string message) {
    if (in_diagnostic_statement(tokens, at)) return;
    if (!emitted.insert({line, rule}).second) return;
    emitter.emit(rule, line, std::move(message));
  };
  const std::string where = " inside hot function '" + r.name + "'";
  for (std::size_t i = r.begin + 1; i < r.end; ++i) {
    const Token& t = tokens[i];
    // String-literal concatenation builds a std::string temporary.
    if (t.kind == TokenKind::kString && t.text == "\"\"" &&
        i + 1 < r.end && punct_is(tokens[i + 1], "+")) {
      emit(i, "hot-path-alloc", t.line,
           "string concatenation with '+' builds a temporary" + where +
               "; append into a reused buffer or justify with hot-alloc");
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    if (t.text == "new") {
      if (i + 1 < r.end && punct_is(tokens[i + 1], "(")) continue;  // placement
      emit(i, "hot-path-alloc", t.line,
           "'new' allocates" + where +
               "; pool the object or justify with hot-alloc");
    } else if ((t.text == "make_shared" || t.text == "make_unique") &&
               i + 1 < r.end &&
               (punct_is(tokens[i + 1], "(") || punct_is(tokens[i + 1], "<"))) {
      emit(i, "hot-path-alloc", t.line,
           "'" + t.text + "' allocates" + where +
               "; pool the object or justify with hot-alloc");
    } else if (t.text == "function" && i >= 2 && punct_is(tokens[i - 1], "::") &&
               ident_is(tokens[i - 2], "std") && i + 1 < r.end &&
               punct_is(tokens[i + 1], "<")) {
      emit(i, "hot-path-alloc", t.line,
           "'std::function' type-erasure allocates" + where +
               "; use sim::InlineFunction or justify with hot-alloc");
    } else if ((t.text == "push_back" || t.text == "emplace_back" ||
                t.text == "push_front" || t.text == "emplace_front" ||
                t.text == "insert" || t.text == "emplace" ||
                t.text == "append") &&
               i >= 2 && i + 1 < r.end && punct_is(tokens[i + 1], "(") &&
               (punct_is(tokens[i - 1], ".") || punct_is(tokens[i - 1], "->")) &&
               tokens[i - 2].kind == TokenKind::kIdentifier) {
      const std::string& recv = tokens[i - 2].text;
      if (ctx.node_names->contains(recv)) {
        emit(i, "hot-path-alloc", t.line,
             "'" + recv + "." + t.text + "' allocates a node on every insert" +
                 where +
                 "; clear() reuses no nodes, so use a flat or pooled "
                 "structure or justify with hot-alloc");
        continue;
      }
      if (tu.pooled.contains(recv)) continue;  // reserve/clear-ahead idiom
      emit(i, "hot-path-alloc", t.line,
           "'" + recv + "." + t.text + "' may reallocate" + where +
               "; reserve()/clear() '" + recv +
               "' ahead of the hot path or justify with hot-alloc");
    } else if (ctx.string_names->contains(t.text) && i + 1 < r.end) {
      if (punct_is(tokens[i + 1], "+=")) {
        if (tu.pooled.contains(t.text)) continue;
        emit(i, "hot-path-alloc", t.line,
             "'" + t.text + " +=' grows a std::string" + where +
                 "; render into a reused (clear()+append) buffer or justify "
                 "with hot-alloc");
      } else if (punct_is(tokens[i + 1], "+")) {
        emit(i, "hot-path-alloc", t.line,
             "'" + t.text + " + ...' builds a std::string temporary" + where +
                 "; append into a reused buffer or justify with hot-alloc");
      }
    }
    if (ctx.map_names->contains(t.text) && i + 1 < r.end &&
        punct_is(tokens[i + 1], "[") &&
        !(i >= 1 && (punct_is(tokens[i - 1], ".") ||
                     punct_is(tokens[i - 1], "->")))) {
      emit(i, "hot-path-alloc", t.line,
           "'" + t.text + "[...]' inserts on miss" + where +
               "; use find() or justify with hot-alloc");
    }
  }
}

// ----------------------------------------------- handle lifetime rules

std::size_t matching_open(const std::vector<Token>& tokens, std::size_t at) {
  int depth = 0;
  for (std::size_t i = at + 1; i-- > 0;) {
    if (punct_is(tokens[i], ")")) ++depth;
    if (punct_is(tokens[i], "(") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Last identifier of the first argument of the call whose '(' is at
/// `open`, when that identifier names a known EventHandle.
std::string first_arg_handle(const std::vector<Token>& tokens,
                             std::size_t open,
                             const std::set<std::string>& handles) {
  const std::size_t close = matching_close(tokens, open);
  if (close == std::string::npos) return "";
  std::string last;
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    const Token& t = tokens[j];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (depth == 0 && t.text == ",") break;
    }
    if (depth == 0 && t.kind == TokenKind::kIdentifier) last = t.text;
  }
  return handles.contains(last) ? last : "";
}

/// True when the call chain ending in the call at ident index `i` sits in
/// statement position (its result is discarded). Walks the postfix chain
/// backward over `.`/`->`/`::` and call parentheses.
bool result_discarded(const std::vector<Token>& tokens, std::size_t i) {
  std::size_t s = i;
  while (s >= 2) {
    const Token& accessor = tokens[s - 1];
    if (!punct_is(accessor, ".") && !punct_is(accessor, "->") &&
        !punct_is(accessor, "::")) {
      break;
    }
    const Token& before = tokens[s - 2];
    if (before.kind == TokenKind::kIdentifier) {
      s -= 2;
      continue;
    }
    if (punct_is(before, ")")) {
      const std::size_t open = matching_open(tokens, s - 2);
      if (open == std::string::npos) return false;
      if (open > 0 && tokens[open - 1].kind == TokenKind::kIdentifier) {
        s = open - 1;
        continue;
      }
      s = open;
      continue;
    }
    return false;
  }
  if (s == 0) return true;
  const Token& b = tokens[s - 1];
  return punct_is(b, ";") || punct_is(b, "{") || punct_is(b, "}");
}

/// Tokens that end straight-line execution: the per-function lattice is
/// reset at every block boundary and control transfer, so only
/// unconditional same-block sequences are judged.
bool clears_handle_state(const Token& t) {
  if (t.kind == TokenKind::kPunct) {
    return t.text == "{" || t.text == "}" || t.text == "?";
  }
  return ident_is(t, "return") || ident_is(t, "break") ||
         ident_is(t, "continue") || ident_is(t, "goto") ||
         ident_is(t, "else") || ident_is(t, "case") || ident_is(t, "default");
}

void check_handle_lifetimes(const TU& tu, const std::set<std::string>& handles,
                            Emitter& emitter) {
  const auto& tokens = tu.scan->tokens;
  for (const Function& fn : tu.functions) {
    // Locals bound from a schedule() return: `auto h = sim.schedule(...)`.
    std::set<std::string> local = handles;
    for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (!ident_is(tokens[i], "auto") ||
          tokens[i + 1].kind != TokenKind::kIdentifier ||
          !punct_is(tokens[i + 2], "=")) {
        continue;
      }
      for (std::size_t j = i + 3; j < fn.body_end && j < i + 40; ++j) {
        if (punct_is(tokens[j], ";")) break;
        if ((ident_is(tokens[j], "schedule") ||
             ident_is(tokens[j], "schedule_at")) &&
            j + 1 < fn.body_end && punct_is(tokens[j + 1], "(")) {
          local.insert(tokens[i + 1].text);
          break;
        }
      }
    }

    struct HandleState {
      int state = 0;  // 1 = live (owns a pending event), 2 = cancelled
      int line = 0;
    };
    std::map<std::string, HandleState> st;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = tokens[i];
      if (clears_handle_state(t)) {
        st.clear();
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;

      // Assignment into a handle: from schedule() -> live; anything else
      // (including `= {}`) resets to unknown.
      if (local.contains(t.text) && i + 1 < fn.body_end &&
          punct_is(tokens[i + 1], "=")) {
        bool from_schedule = false;
        for (std::size_t j = i + 2; j < fn.body_end && j < i + 60; ++j) {
          if (punct_is(tokens[j], ";")) break;
          if ((ident_is(tokens[j], "schedule") ||
               ident_is(tokens[j], "schedule_at")) &&
              j + 1 < fn.body_end && punct_is(tokens[j + 1], "(")) {
            from_schedule = true;
            break;
          }
        }
        auto it = st.find(t.text);
        if (from_schedule) {
          if (it != st.end() && it->second.state == 1) {
            emitter.emit(
                "handle-overwrite", t.line,
                "'" + t.text + "' still owns the event scheduled at line " +
                    std::to_string(it->second.line) +
                    " — overwriting it leaks that pending event (it fires "
                    "unowned); cancel first or use reschedule");
          }
          st[t.text] = {1, t.line};
        } else {
          st.erase(t.text);
        }
        continue;
      }

      const bool is_cancel = t.text == "cancel";
      const bool is_resched =
          t.text == "reschedule" || t.text == "reschedule_at";
      const bool is_use = is_resched || t.text == "set_daemon";
      if ((is_cancel || is_use) && i + 1 < fn.body_end &&
          punct_is(tokens[i + 1], "(")) {
        const std::string name = first_arg_handle(tokens, i + 1, local);
        if (name.empty()) continue;
        if (is_cancel) {
          st[name] = {2, t.line};
          continue;
        }
        auto it = st.find(name);
        if (it != st.end() && it->second.state == 2) {
          emitter.emit(
              "handle-use-after-cancel", t.line,
              "'" + name + "' was cancelled at line " +
                  std::to_string(it->second.line) +
                  " and never reassigned — the generation tag makes this '" +
                  t.text + "' a guaranteed dead-slot no-op");
        }
        if (is_resched) {
          if (result_discarded(tokens, i)) {
            emitter.emit(
                "handle-reschedule-unchecked", t.line,
                "'" + t.text + "(" + name +
                    ", ...)' discards its result — a stale handle silently "
                    "never re-arms; use `if (sim." + t.text +
                    "(h, d)) return;` and fall back to schedule()");
          }
          st[name] = {1, t.line};
        }
      }
    }
  }
}

}  // namespace

// -------------------------------------------------------------- driver

void lint_hot_paths(const std::vector<std::pair<std::string, FileScan>>& scans,
                    const LintOptions& options, std::vector<Finding>& findings,
                    HotPathReport* report) {
  (void)options;
  std::vector<TU> tus;
  tus.reserve(scans.size());
  static const std::set<std::string> kMapTypes = {
      "map", "multimap", "unordered_map", "unordered_multimap",
      "UnorderedMap"};
  static const std::set<std::string> kNodeTypes = {
      "map", "multimap", "set", "multiset", "unordered_map",
      "unordered_multimap", "unordered_set", "unordered_multiset",
      "UnorderedMap", "UnorderedSet", "list"};
  static const std::set<std::string> kSequenceTypes = {"vector", "deque",
                                                       "array", "span"};
  std::set<std::string> string_names;
  std::set<std::string> map_names;
  std::set<std::string> node_names;
  std::set<std::string> sequence_names;
  std::set<std::string> handle_names;
  for (const auto& [path, scan] : scans) {
    TU tu;
    tu.path = path;
    tu.scan = &scan;
    tu.functions = find_functions(scan.tokens);
    tu.lambdas = find_lambdas(scan.tokens);
    for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
      tu.fn_by_name.emplace(tu.functions[fi].name, fi);
    }
    tu.pooled = collect_pooled_names(scan);
    tu.fn_hot.assign(tu.functions.size(), 0);
    tu.fn_root.assign(tu.functions.size(), 0);
    tu.fn_origin.assign(tu.functions.size(), "");
    tu.lambda_hot.assign(tu.lambdas.size(), 0);
    collect_string_names(scan, string_names);
    collect_template_decl_names(scan, kMapTypes, map_names);
    collect_template_decl_names(scan, kNodeTypes, node_names);
    collect_template_decl_names(scan, kSequenceTypes, sequence_names);
    collect_handle_names(scan, handle_names);
    tus.push_back(std::move(tu));
  }
  // A name declared as both a map and a sequence somewhere in the repo is
  // ambiguous at a subscript site; drop it rather than flag vector indexing.
  // Likewise a node-container name keeps the reserve/clear exemption when a
  // sequence somewhere shares it.
  for (const std::string& name : sequence_names) {
    map_names.erase(name);
    node_names.erase(name);
  }

  HotClosure closure(tus);

  // 1. Built-in kernel/engine seeds (path + name matched).
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    for (const Seed& seed : kSeeds) {
      if (tus[ti].path.find(seed.path_substr) == std::string::npos) continue;
      for (std::size_t fi = 0; fi < tus[ti].functions.size(); ++fi) {
        if (seed.name[0] == '\0' || tus[ti].functions[fi].name == seed.name) {
          closure.mark_function(ti, fi, seed.origin, true);
        }
      }
    }
  }

  // 2. `hot-path` annotations: on a definition they root it directly; on a
  // declaration they contribute the name repo-wide (header-declared members
  // get attributed at their out-of-line definitions).
  std::map<std::string, std::vector<const Suppression*>> annotated_names;
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    const TU& tu = tus[ti];
    for (const Suppression& s : tu.scan->suppressions) {
      if (s.token != "hot-path") continue;
      bool matched = false;
      for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
        const int line = tu.functions[fi].line;
        if (line == s.line || line == s.line + 1) {
          closure.mark_function(ti, fi, "annotation", true);
          matched = true;
        }
      }
      if (matched) {
        s.used = true;
        continue;
      }
      // Declaration form: every `name(` on the annotated line.
      const auto& tokens = tu.scan->tokens;
      for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != TokenKind::kIdentifier ||
            is_call_keyword(tokens[i].text) ||
            (tokens[i].line != s.line && tokens[i].line != s.line + 1) ||
            !punct_is(tokens[i + 1], "(")) {
          continue;
        }
        annotated_names[tokens[i].text].push_back(&s);
      }
    }
  }
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    for (std::size_t fi = 0; fi < tus[ti].functions.size(); ++fi) {
      auto it = annotated_names.find(tus[ti].functions[fi].name);
      if (it == annotated_names.end()) continue;
      closure.mark_function(ti, fi, "annotation", true);
      for (const Suppression* s : it->second) s->used = true;
    }
  }

  // 3. Callback lambdas handed to the kernel.
  for (std::size_t ti = 0; ti < tus.size(); ++ti) {
    const TU& tu = tus[ti];
    const auto& tokens = tu.scan->tokens;
    for (std::size_t li = 0; li < tu.lambdas.size(); ++li) {
      const Lambda& l = tu.lambdas[li];
      if (l.body_begin == 0) continue;
      const std::size_t begin = statement_start(tokens, l.intro);
      for (std::size_t i = begin; i + 1 < l.intro; ++i) {
        if (tokens[i].kind == TokenKind::kIdentifier &&
            is_hot_callback_sink(tokens[i].text) &&
            punct_is(tokens[i + 1], "(")) {
          closure.mark_lambda(ti, li, tokens[i].text);
          break;
        }
      }
    }
  }

  std::vector<HotPathReport::Edge> edges;
  closure.close(edges);

  // Findings: allocation checks over every hot region, handle-lifetime
  // checks over every function of every TU that names an EventHandle.
  const AllocContext ctx{&string_names, &map_names, &node_names};
  std::map<std::size_t, std::set<std::pair<int, std::string>>> emitted;
  {
    // Emitters are per file; keep one per TU for suppression bookkeeping.
    std::vector<Emitter> emitters;
    emitters.reserve(tus.size());
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      emitters.emplace_back(tus[ti].path, *tus[ti].scan, findings);
    }
    for (const Region& r : closure.regions()) {
      check_alloc_region(tus[r.tu], r, ctx, emitters[r.tu], emitted[r.tu]);
    }
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      check_handle_lifetimes(tus[ti], handle_names, emitters[ti]);
    }
    // No finish() here: unused/bare accounting belongs to lint_file.
  }

  if (report != nullptr) {
    for (std::size_t ti = 0; ti < tus.size(); ++ti) {
      const TU& tu = tus[ti];
      for (std::size_t fi = 0; fi < tu.functions.size(); ++fi) {
        if (!tu.fn_hot[fi]) continue;
        report->functions.push_back({tu.path, tu.functions[fi].line,
                                     tu.functions[fi].name, tu.fn_origin[fi],
                                     tu.fn_root[fi] != 0});
      }
      for (std::size_t li = 0; li < tu.lambdas.size(); ++li) {
        if (!tu.lambda_hot[li]) continue;
        report->functions.push_back({tu.path, tu.lambdas[li].line, "<lambda>",
                                     "callback:schedule", true});
      }
    }
    std::ranges::sort(report->functions, [](const auto& a, const auto& b) {
      return std::tie(a.file, a.line, a.name) <
             std::tie(b.file, b.line, b.name);
    });
    std::ranges::sort(edges, [](const auto& a, const auto& b) {
      return std::tie(a.caller, a.callee) < std::tie(b.caller, b.callee);
    });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const auto& a, const auto& b) {
                              return a.caller == b.caller &&
                                     a.callee == b.callee;
                            }),
                edges.end());
    report->edges = std::move(edges);
  }
}

// ------------------------------------------------------------ rendering

std::string format_hot_report_json(const std::vector<Finding>& findings,
                                   const HotPathReport& report) {
  return format_reports_json(findings, &report, nullptr);
}

std::string hot_report_to_dot(const HotPathReport& report) {
  std::string out = "digraph hot_paths {\n  rankdir=LR;\n  node [shape=box, "
                    "fontsize=10];\n";
  std::set<std::string> roots;
  std::set<std::string> nodes;
  for (const auto& f : report.functions) {
    const std::string id = basename_of(f.file) + ":" +
                           (f.name == "<lambda>"
                                ? "<lambda:" + std::to_string(f.line) + ">"
                                : f.name);
    nodes.insert(id);
    if (f.root) roots.insert(id);
  }
  for (const auto& e : report.edges) {
    nodes.insert(e.caller);
    nodes.insert(e.callee);
  }
  for (const std::string& n : nodes) {
    out += "  \"" + n + "\"";
    if (roots.contains(n)) out += " [peripheries=2]";
    out += ";\n";
  }
  for (const auto& e : report.edges) {
    out += "  \"" + e.caller + "\" -> \"" + e.callee + "\";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace gdmp::lint
