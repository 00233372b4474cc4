#include "ingest/spice_parser.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

namespace afp::ingest {

namespace {

using netlist::Device;
using netlist::DeviceType;
using netlist::Netlist;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool is_supply_net(const std::string& net) {
  netlist::Net n{net, {}};
  return n.is_supply();
}

/// One logical (continuation-joined) statement; `line` is the first
/// physical line, for diagnostics.
struct Stmt {
  int line = 0;
  std::vector<std::string> tokens;
};

/// Splits deck text into logical statements: '+' continuations are joined,
/// '*' full-line and '$'/';' trailing comments removed, blank lines
/// dropped.  Enforces the raw line-length cap.
std::vector<Stmt> logical_lines(const std::string& text,
                                const std::string& file,
                                const ParseOptions& opts) {
  std::vector<Stmt> stmts;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  bool skip_title = opts.title_line;
  while (std::getline(in, raw)) {
    ++lineno;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.size() > opts.max_line_bytes) {
      throw ParseError(file, lineno,
                       "line exceeds " + std::to_string(opts.max_line_bytes) +
                           " bytes (overlong line)");
    }
    if (skip_title) {  // SPICE: the first line of a deck is its title
      skip_title = false;
      continue;
    }
    // Trailing comments; '*' only comments at line start.
    for (const char c : {'$', ';'}) {
      const std::size_t at = raw.find(c);
      if (at != std::string::npos) raw.erase(at);
    }
    std::size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (raw[first] == '*') continue;
    const bool continuation = raw[first] == '+';
    if (continuation) {
      if (stmts.empty()) {
        throw ParseError(file, lineno, "continuation '+' with no prior line");
      }
      raw = raw.substr(first + 1);
    }
    std::istringstream ls(raw);
    std::vector<std::string> toks;
    std::string t;
    while (ls >> t) toks.push_back(t);
    if (toks.empty()) continue;
    if (continuation) {
      auto& dst = stmts.back().tokens;
      dst.insert(dst.end(), toks.begin(), toks.end());
    } else {
      stmts.push_back({lineno, std::move(toks)});
    }
  }
  // Re-join '=' assignments split across whitespace ("w = 2", "w= 2").
  for (Stmt& s : stmts) {
    std::vector<std::string> merged;
    for (std::size_t i = 0; i < s.tokens.size(); ++i) {
      std::string tok = s.tokens[i];
      while (true) {
        const bool open_eq = !tok.empty() && tok.back() == '=';
        const bool next_eq = i + 1 < s.tokens.size() &&
                             !s.tokens[i + 1].empty() &&
                             s.tokens[i + 1].front() == '=';
        if ((open_eq || next_eq) && i + 1 < s.tokens.size()) {
          tok += s.tokens[++i];
        } else {
          break;
        }
      }
      merged.push_back(std::move(tok));
    }
    s.tokens = std::move(merged);
  }
  return stmts;
}

using Scope = std::map<std::string, double>;

/// Recursive-descent evaluator for parameter expressions: numbers with
/// SPICE scale suffixes, identifiers, + - * /, unary minus, parentheses.
class ExprEval {
 public:
  ExprEval(const std::string& s, const Scope& scope, const std::string& file,
           int line)
      : s_(s), scope_(scope), file_(file), line_(line) {}

  double run() {
    const double v = expr();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters in expression");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(file_, line_, msg + " in '" + s_ + "'");
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  double expr() {
    double v = term();
    while (true) {
      skip_ws();
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        const char op = s_[pos_++];
        const double r = term();
        v = op == '+' ? v + r : v - r;
      } else {
        return v;
      }
    }
  }
  double term() {
    double v = factor();
    while (true) {
      skip_ws();
      if (pos_ < s_.size() && (s_[pos_] == '*' || s_[pos_] == '/')) {
        const char op = s_[pos_++];
        const double r = factor();
        if (op == '/') {
          if (r == 0.0) fail("division by zero");
          v /= r;
        } else {
          v *= r;
        }
      } else {
        return v;
      }
    }
  }
  double factor() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of expression");
    const char c = s_[pos_];
    if (c == '-') {
      ++pos_;
      return -factor();
    }
    if (c == '(') {
      ++pos_;
      const double v = expr();
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ')') fail("missing ')'");
      ++pos_;
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') return number();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string id;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_')) {
        id += s_[pos_++];
      }
      const auto it = scope_.find(lower(id));
      if (it == scope_.end()) fail("undefined parameter '" + id + "'");
      return it->second;
    }
    fail(std::string("unexpected character '") + c + "'");
  }
  double number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.')) {
      ++pos_;
    }
    // Exponent.
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      std::size_t p = pos_ + 1;
      if (p < s_.size() && (s_[p] == '+' || s_[p] == '-')) ++p;
      if (p < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p]))) {
        pos_ = p;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
          ++pos_;
        }
      }
    }
    double v = 0.0;
    try {
      v = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    // SPICE scale suffix plus optional trailing unit letters ("10k", "8u",
    // "0.4pF", "100meg").
    std::string suffix;
    while (pos_ < s_.size() &&
           std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
      suffix += static_cast<char>(
          std::tolower(static_cast<unsigned char>(s_[pos_])));
      ++pos_;
    }
    if (!suffix.empty()) {
      if (suffix.rfind("meg", 0) == 0) {
        v *= 1e6;
      } else {
        switch (suffix[0]) {
          case 't': v *= 1e12; break;
          case 'g': v *= 1e9; break;
          case 'k': v *= 1e3; break;
          case 'm': v *= 1e-3; break;
          case 'u': v *= 1e-6; break;
          case 'n': v *= 1e-9; break;
          case 'p': v *= 1e-12; break;
          case 'f': v *= 1e-15; break;
          default: break;  // bare unit letters ("5ohm")
        }
      }
    }
    return v;
  }

  const std::string& s_;
  const Scope& scope_;
  const std::string& file_;
  int line_;
  std::size_t pos_ = 0;
};

double eval_value(std::string v, const Scope& scope, const std::string& file,
                  int line) {
  // Strip {..} / '..' expression quoting.
  if (v.size() >= 2 && ((v.front() == '{' && v.back() == '}') ||
                        (v.front() == '\'' && v.back() == '\''))) {
    v = v.substr(1, v.size() - 2);
  }
  return ExprEval(v, scope, file, line).run();
}

/// Gate dimensions accept plain microns (W=8) or meter-scaled SI values
/// (W=8u -> 8e-6); anything below 0.01 is treated as meters.
double to_um(double v) { return v < 0.01 ? v * 1e6 : v; }

struct SubcktDef {
  std::string name;  ///< original case
  int line = 0;
  std::vector<std::string> ports;             ///< formals, deck spelling
  std::vector<std::pair<std::string, std::string>> defaults;  ///< k, raw v
  std::vector<Stmt> body;                     ///< device cards, deck order
};

struct Deck {
  std::string file;
  std::vector<Stmt> toplevel;  ///< device cards outside any subckt
  std::map<std::string, SubcktDef> subckts;  ///< key: lowercased name
  std::vector<std::pair<std::string, std::string>> params;  ///< .param k, v
};

bool split_assign(const std::string& tok, std::string* key,
                  std::string* value) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) return false;
  *key = lower(tok.substr(0, eq));
  *value = tok.substr(eq + 1);
  return true;
}

const std::set<std::string>& ignored_directives() {
  static const std::set<std::string> kIgnored = {
      ".model", ".option", ".options", ".temp",  ".global", ".op",
      ".tran",  ".ac",     ".dc",      ".noise", ".print",  ".plot",
      ".probe", ".ic",     ".nodeset", ".save",  ".width",  ".meas",
      ".measure"};
  return kIgnored;
}

Deck first_pass(const std::string& text, const std::string& file,
                const ParseOptions& opts) {
  Deck deck;
  deck.file = file;
  SubcktDef* current = nullptr;
  for (Stmt& s : logical_lines(text, file, opts)) {
    const std::string head = lower(s.tokens[0]);
    if (head == ".subckt") {
      if (current) {
        throw ParseError(file, s.line,
                         "nested .subckt definition (unsupported; close '" +
                             current->name + "' with .ends first)");
      }
      if (s.tokens.size() < 2) {
        throw ParseError(file, s.line, ".subckt requires a name");
      }
      SubcktDef def;
      def.name = s.tokens[1];
      def.line = s.line;
      for (std::size_t i = 2; i < s.tokens.size(); ++i) {
        std::string k, v;
        if (split_assign(s.tokens[i], &k, &v)) {
          def.defaults.emplace_back(k, v);
        } else if (!def.defaults.empty()) {
          throw ParseError(file, s.line,
                           "port '" + s.tokens[i] +
                               "' after default parameters on .subckt " +
                               def.name);
        } else {
          def.ports.push_back(s.tokens[i]);
        }
      }
      const std::string key = lower(def.name);
      if (deck.subckts.count(key)) {
        throw ParseError(file, s.line,
                         "duplicate .subckt definition '" + def.name + "'");
      }
      current = &deck.subckts.emplace(key, std::move(def)).first->second;
      continue;
    }
    if (head == ".ends") {
      if (!current) {
        throw ParseError(file, s.line, ".ends outside any .subckt");
      }
      if (s.tokens.size() > 1 && lower(s.tokens[1]) != lower(current->name)) {
        throw ParseError(file, s.line,
                         ".ends " + s.tokens[1] + " does not match .subckt " +
                             current->name);
      }
      current = nullptr;
      continue;
    }
    if (head == ".param") {
      for (std::size_t i = 1; i < s.tokens.size(); ++i) {
        std::string k, v;
        if (!split_assign(s.tokens[i], &k, &v)) {
          throw ParseError(file, s.line,
                           ".param expects name=value, got '" + s.tokens[i] +
                               "'");
        }
        if (current) {
          current->defaults.emplace_back(k, v);
        } else {
          deck.params.emplace_back(k, v);
        }
      }
      continue;
    }
    if (head == ".end") break;
    if (head[0] == '.') {
      if (ignored_directives().count(head)) continue;
      throw ParseError(file, s.line, "unsupported directive '" + s.tokens[0] +
                                         "'");
    }
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(head[0])));
    if (kind != 'm' && kind != 'r' && kind != 'c' && kind != 'q' &&
        kind != 'd' && kind != 'x') {
      throw ParseError(file, s.line, "unrecognized card '" + s.tokens[0] +
                                         "' (expected M/R/C/Q/D/X or a "
                                         "directive)");
    }
    (current ? current->body : deck.toplevel).push_back(std::move(s));
  }
  if (current) {
    throw ParseError(file, current->line,
                     "unterminated .subckt '" + current->name +
                         "' (missing .ends)");
  }
  return deck;
}

/// Elaboration context threading the caps and the output netlist.
struct Elab {
  const Deck& deck;
  const ParseOptions& opts;
  Netlist out;
  std::set<std::string> device_names;  ///< lowercased, duplicate guard
  Scope globals;

  explicit Elab(const Deck& d, const ParseOptions& o) : deck(d), opts(o) {}

  void add(Device dev, int line) {
    if (!device_names.insert(lower(dev.name)).second) {
      throw ParseError(deck.file, line,
                       "duplicate device name '" + dev.name + "'");
    }
    if (static_cast<std::size_t>(out.num_devices()) >= opts.max_devices) {
      throw ParseError(deck.file, line,
                       "elaborated netlist exceeds " +
                           std::to_string(opts.max_devices) + " devices");
    }
    out.add_device(std::move(dev));
  }

  /// Expands `body` with device-name prefix `prefix` ("" at top level) and
  /// formal->actual net map `netmap`; unmapped non-supply nets are
  /// instance-local and get the prefix too.
  void expand(const std::vector<Stmt>& body, const std::string& prefix,
              const std::map<std::string, std::string>& netmap,
              const Scope& scope, int depth,
              std::vector<std::string>& stack) {
    for (const Stmt& s : body) {
      const char kind = static_cast<char>(
          std::tolower(static_cast<unsigned char>(s.tokens[0][0])));
      switch (kind) {
        case 'x': expand_instance(s, prefix, netmap, scope, depth, stack); break;
        case 'm': add_mos(s, prefix, netmap, scope); break;
        case 'r': add_rc(s, prefix, netmap, scope, DeviceType::kResistor); break;
        case 'c': add_rc(s, prefix, netmap, scope, DeviceType::kCapacitor); break;
        case 'q': add_bjt(s, prefix, netmap, scope); break;
        case 'd': add_diode(s, prefix, netmap, scope); break;
        default: break;  // unreachable: first_pass filtered
      }
    }
  }

  std::string map_net(const std::string& tok, const std::string& prefix,
                      const std::map<std::string, std::string>& netmap) const {
    if (is_supply_net(tok)) return tok;  // supplies stay global
    const auto it = netmap.find(lower(tok));
    if (it != netmap.end()) return it->second;
    return prefix.empty() ? tok : prefix + tok;
  }

  /// Splits a card into bare (positional) tokens and key=value assignments;
  /// a positional token after the first assignment is malformed.
  void split_card(const Stmt& s, std::vector<std::string>* bare,
                  std::vector<std::pair<std::string, std::string>>* kv) const {
    for (std::size_t i = 1; i < s.tokens.size(); ++i) {
      std::string k, v;
      if (split_assign(s.tokens[i], &k, &v)) {
        kv->emplace_back(k, v);
      } else if (!kv->empty()) {
        throw ParseError(deck.file, s.line,
                         "positional field '" + s.tokens[i] +
                             "' after parameter assignments on '" +
                             s.tokens[0] + "'");
      } else {
        bare->push_back(s.tokens[i]);
      }
    }
  }

  double param_or(const std::vector<std::pair<std::string, std::string>>& kv,
                  const std::string& key, double fallback, const Scope& scope,
                  int line) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return eval_value(v, scope, deck.file, line);
    }
    return fallback;
  }

  void add_mos(const Stmt& s, const std::string& prefix,
               const std::map<std::string, std::string>& netmap,
               const Scope& scope) {
    std::vector<std::string> bare;
    std::vector<std::pair<std::string, std::string>> kv;
    split_card(s, &bare, &kv);
    if (bare.size() != 5) {
      throw ParseError(deck.file, s.line,
                       "MOS card '" + s.tokens[0] +
                           "' needs <d> <g> <s> <b> <model> (got " +
                           std::to_string(bare.size()) + " fields)");
    }
    Device d;
    d.name = prefix + s.tokens[0];
    d.type = lower(bare[4]).find('p') != std::string::npos ? DeviceType::kPmos
                                                           : DeviceType::kNmos;
    for (int i = 0; i < 4; ++i) {
      d.terminals.push_back(map_net(bare[static_cast<std::size_t>(i)], prefix,
                                    netmap));
    }
    d.width_um = to_um(param_or(kv, "w", 1.0, scope, s.line));
    d.length_um = to_um(param_or(kv, "l", 0.18, scope, s.line));
    d.fingers = static_cast<int>(param_or(kv, "nf", 1.0, scope, s.line));
    const double mult = param_or(kv, "m", 1.0, scope, s.line);
    d.width_um *= std::max(1.0, mult);
    if (d.width_um <= 0.0 || d.length_um <= 0.0 || d.fingers < 1) {
      throw ParseError(deck.file, s.line,
                       "bad W/L/NF on '" + s.tokens[0] + "'");
    }
    add(std::move(d), s.line);
  }

  void add_rc(const Stmt& s, const std::string& prefix,
              const std::map<std::string, std::string>& netmap,
              const Scope& scope, DeviceType type) {
    std::vector<std::string> bare;
    std::vector<std::pair<std::string, std::string>> kv;
    split_card(s, &bare, &kv);
    const char* what = type == DeviceType::kResistor ? "resistor" : "capacitor";
    if (bare.size() < 2 || bare.size() > 3) {
      throw ParseError(deck.file, s.line,
                       std::string(what) + " card '" + s.tokens[0] +
                           "' needs <a> <b> <value>");
    }
    Device d;
    d.name = prefix + s.tokens[0];
    d.type = type;
    d.terminals = {map_net(bare[0], prefix, netmap),
                   map_net(bare[1], prefix, netmap)};
    if (bare.size() == 3) {
      d.value = eval_value(bare[2], scope, deck.file, s.line);
    } else {
      const char* key = type == DeviceType::kResistor ? "r" : "c";
      d.value = param_or(kv, key, 0.0, scope, s.line);
    }
    if (d.value <= 0.0) {
      throw ParseError(deck.file, s.line,
                       std::string("missing or non-positive ") + what +
                           " value on '" + s.tokens[0] + "'");
    }
    add(std::move(d), s.line);
  }

  void add_bjt(const Stmt& s, const std::string& prefix,
               const std::map<std::string, std::string>& netmap,
               const Scope& scope) {
    std::vector<std::string> bare;
    std::vector<std::pair<std::string, std::string>> kv;
    split_card(s, &bare, &kv);
    if (bare.size() != 4 && bare.size() != 5) {
      throw ParseError(deck.file, s.line,
                       "BJT card '" + s.tokens[0] +
                           "' needs <c> <b> <e> [<subs>] <model>");
    }
    // MOS-equivalent footprint block: collector->drain, base->gate,
    // emitter->source/bulk; polarity from the model name (pnp -> PMOS-like).
    Device d;
    d.name = prefix + s.tokens[0];
    d.type = lower(bare.back()).find('p') != std::string::npos
                 ? DeviceType::kPmos
                 : DeviceType::kNmos;
    const std::string c = map_net(bare[0], prefix, netmap);
    const std::string b = map_net(bare[1], prefix, netmap);
    const std::string e = map_net(bare[2], prefix, netmap);
    d.terminals = {c, b, e, e};
    const double area = param_or(kv, "area", 1.0, scope, s.line);
    if (area <= 0.0) {
      throw ParseError(deck.file, s.line,
                       "bad AREA on '" + s.tokens[0] + "'");
    }
    d.width_um = 5.0 * area;
    d.length_um = 0.5;
    add(std::move(d), s.line);
  }

  void add_diode(const Stmt& s, const std::string& prefix,
                 const std::map<std::string, std::string>& netmap,
                 const Scope& scope) {
    std::vector<std::string> bare;
    std::vector<std::pair<std::string, std::string>> kv;
    split_card(s, &bare, &kv);
    if (bare.size() != 3) {
      throw ParseError(deck.file, s.line,
                       "diode card '" + s.tokens[0] +
                           "' needs <anode> <cathode> <model>");
    }
    // Diode-connected MOS equivalent: drain = gate = anode.
    Device d;
    d.name = prefix + s.tokens[0];
    d.type = lower(bare[2]).find('p') != std::string::npos ? DeviceType::kPmos
                                                           : DeviceType::kNmos;
    const std::string a = map_net(bare[0], prefix, netmap);
    const std::string c = map_net(bare[1], prefix, netmap);
    d.terminals = {a, a, c, c};
    const double area = param_or(kv, "area", 1.0, scope, s.line);
    if (area <= 0.0) {
      throw ParseError(deck.file, s.line, "bad AREA on '" + s.tokens[0] + "'");
    }
    d.width_um = 2.0 * area;
    d.length_um = 0.5;
    add(std::move(d), s.line);
  }

  void expand_instance(const Stmt& s, const std::string& prefix,
                       const std::map<std::string, std::string>& netmap,
                       const Scope& scope, int depth,
                       std::vector<std::string>& stack) {
    std::vector<std::string> bare;
    std::vector<std::pair<std::string, std::string>> kv;
    split_card(s, &bare, &kv);
    if (bare.empty()) {
      throw ParseError(deck.file, s.line,
                       "X card '" + s.tokens[0] + "' names no subcircuit");
    }
    const std::string subname = lower(bare.back());
    bare.pop_back();
    const auto it = deck.subckts.find(subname);
    if (it == deck.subckts.end()) {
      throw ParseError(deck.file, s.line,
                       "unknown subcircuit '" + subname + "' on '" +
                           s.tokens[0] + "'");
    }
    const SubcktDef& def = it->second;
    if (bare.size() != def.ports.size()) {
      throw ParseError(deck.file, s.line,
                       "'" + s.tokens[0] + "' connects " +
                           std::to_string(bare.size()) + " nets but .subckt " +
                           def.name + " has " +
                           std::to_string(def.ports.size()) + " ports");
    }
    if (std::find(stack.begin(), stack.end(), subname) != stack.end()) {
      std::string cycle;
      for (const auto& n : stack) cycle += n + " -> ";
      throw ParseError(deck.file, s.line,
                       "recursive subcircuit instantiation: " + cycle +
                           subname);
    }
    if (depth >= opts.max_depth) {
      throw ParseError(deck.file, s.line,
                       "subcircuit nesting exceeds depth " +
                           std::to_string(opts.max_depth));
    }
    // Child net map: formal ports -> mapped actuals.
    std::map<std::string, std::string> child_nets;
    for (std::size_t i = 0; i < bare.size(); ++i) {
      child_nets[lower(def.ports[i])] = map_net(bare[i], prefix, netmap);
    }
    // Child scope: globals, then subckt defaults (evaluated in the parent
    // scope), then X-card overrides (also parent scope).
    Scope child = globals;
    for (const auto& [k, v] : def.defaults) {
      child[k] = eval_value(v, scope, deck.file, def.line);
    }
    for (const auto& [k, v] : kv) {
      child[k] = eval_value(v, scope, deck.file, s.line);
    }
    stack.push_back(subname);
    expand(def.body, prefix + s.tokens[0] + ".", child_nets, child, depth + 1,
           stack);
    stack.pop_back();
  }
};

/// Subcircuits never instantiated by another subckt or the top level.
std::vector<const SubcktDef*> uninstantiated(const Deck& deck) {
  std::set<std::string> instantiated;
  auto scan = [&](const std::vector<Stmt>& body) {
    for (const Stmt& s : body) {
      if (std::tolower(static_cast<unsigned char>(s.tokens[0][0])) != 'x')
        continue;
      for (std::size_t i = s.tokens.size(); i-- > 1;) {
        if (s.tokens[i].find('=') == std::string::npos) {
          instantiated.insert(lower(s.tokens[i]));
          break;
        }
      }
    }
  };
  scan(deck.toplevel);
  for (const auto& [_, def] : deck.subckts) scan(def.body);
  std::vector<const SubcktDef*> roots;
  for (const auto& [key, def] : deck.subckts) {
    if (!instantiated.count(key)) roots.push_back(&def);
  }
  return roots;
}

}  // namespace

netlist::Netlist parse_deck(const std::string& text,
                            const std::string& filename,
                            const ParseOptions& opts) {
  const Deck deck = first_pass(text, filename, opts);
  Elab elab(deck, opts);
  for (const auto& [k, v] : deck.params) {
    elab.globals[k] = eval_value(v, elab.globals, filename, 0);
  }

  std::vector<std::string> stack;
  const std::map<std::string, std::string> no_nets;
  if (!opts.top.empty()) {
    const auto it = deck.subckts.find(lower(opts.top));
    if (it == deck.subckts.end()) {
      throw ParseError(filename, 0,
                       "top subcircuit '" + opts.top + "' is not defined");
    }
    const SubcktDef& def = it->second;
    elab.out.set_name(def.name);
    elab.out.set_ports(def.ports);
    Scope scope = elab.globals;
    for (const auto& [k, v] : def.defaults) {
      scope[k] = eval_value(v, elab.globals, filename, def.line);
    }
    elab.expand(def.body, "", no_nets, scope, 0, stack);
  } else if (!deck.toplevel.empty()) {
    elab.out.set_name("top");
    elab.expand(deck.toplevel, "", no_nets, elab.globals, 0, stack);
  } else {
    const auto roots = uninstantiated(deck);
    if (roots.empty()) {
      throw ParseError(filename, 0,
                       deck.subckts.empty()
                           ? "deck has no device cards and no subcircuits"
                           : "no top candidate: every subcircuit is "
                             "instantiated (recursive deck?)");
    }
    if (roots.size() > 1) {
      std::string names;
      for (const auto* def : roots) {
        if (!names.empty()) names += ", ";
        names += def->name;
      }
      throw ParseError(filename, 0,
                       "ambiguous top cell (candidates: " + names +
                           "); pass an explicit top");
    }
    const SubcktDef& def = *roots.front();
    elab.out.set_name(def.name);
    elab.out.set_ports(def.ports);
    Scope scope = elab.globals;
    for (const auto& [k, v] : def.defaults) {
      scope[k] = eval_value(v, elab.globals, filename, def.line);
    }
    elab.expand(def.body, "", no_nets, scope, 0, stack);
  }
  if (elab.out.num_devices() == 0) {
    throw ParseError(filename, 0, "elaborated netlist has no devices");
  }
  return elab.out;
}

netlist::Netlist parse_file(const std::string& path,
                            const ParseOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError(path, 0, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  ParseOptions file_opts = opts;
  file_opts.title_line = true;
  return parse_deck(buf.str(), path, file_opts);
}

}  // namespace afp::ingest
