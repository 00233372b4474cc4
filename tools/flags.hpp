// flags.hpp — the one command-line flag parser of the tools (afp_cli, afpd,
// afp_loadgen).
//
// A tool declares, per command, a table of the flags it accepts and how many
// positional arguments it takes.  Args::parse enforces four rules, each a
// UsageError (the tool prints it with its usage text and exits 2):
//   * an unknown flag is rejected;
//   * a flag that takes a value needs a next token not starting with "--";
//   * a boolean flag never consumes the next token;
//   * positionals beyond the command's count are rejected.
// "-h" is read as "--help".  A repeated flag keeps every value (get_all,
// used by --opt); the scalar getters read the last one.  Numbers go through
// metaheur::parse_strict_* and a [lo, hi] range check.  A flag with an
// environment variable (afpd's AFPD_*) takes it as its default: both values
// pass the same check, and the flag wins.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metaheur/optimizer.hpp"

namespace afp::flags {

/// A malformed command line: message plus usage text on stderr, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One accepted flag, spelled without its leading "--".
struct Flag {
  std::string name;
  bool takes_value = false;
  std::string env = {};  ///< environment variable supplying a default
};

/// One command's grammar: its flags and the most positionals it takes.
struct Command {
  std::string name;  ///< named in errors; empty for single-command tools
  std::vector<Flag> flags;
  std::size_t positionals = 0;
};

/// `s` split on `sep` (std::getline fields: inner empty fields kept, one
/// trailing separator ignored).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, sep)) out.push_back(tok);
  return out;
}

class Args {
 public:
  static constexpr std::uint64_t kMaxU64 =
      std::numeric_limits<std::uint64_t>::max();

  std::vector<std::string> positional;

  static Args parse(int argc, char** argv, int from, const Command& cmd) {
    const std::string where = cmd.name.empty() ? "" : " for '" + cmd.name + "'";
    Args a;
    for (const Flag& f : cmd.flags) {
      if (!f.env.empty()) a.env_[f.name] = f.env;
    }
    for (int i = from; i < argc; ++i) {
      std::string tok = argv[i];
      if (tok == "-h") tok = "--help";
      if (tok.rfind("--", 0) != 0) {
        if (a.positional.size() == cmd.positionals) {
          throw UsageError("unexpected argument '" + tok + "'" + where);
        }
        a.positional.push_back(tok);
        continue;
      }
      const std::string name = tok.substr(2);
      const Flag* flag = nullptr;
      for (const Flag& f : cmd.flags) {
        if (f.name == name) flag = &f;
      }
      if (flag == nullptr) {
        throw UsageError("unknown option '" + tok + "'" + where);
      }
      if (!flag->takes_value) {
        a.values_[name].emplace_back();
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        a.values_[name].push_back(argv[++i]);
      } else {
        throw UsageError("option '" + tok + "' expects a value");
      }
    }
    return a;
  }

  /// Set on the command line or through its environment variable.
  bool has(const std::string& name) const { return !sources(name).empty(); }

  std::string get(const std::string& name, const std::string& dflt) const {
    const auto src = sources(name);
    return src.empty() ? dflt : src.back().text;
  }

  /// Every command-line value of a repeatable flag, in order.
  std::vector<std::string> get_all(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  int get_int(const std::string& name, int dflt,
              int lo = std::numeric_limits<int>::min(),
              int hi = std::numeric_limits<int>::max()) const {
    int v = dflt;
    for (const Source& s : sources(name)) {
      long long x = 0;
      if (!metaheur::parse_strict_int(s.text, &x) || x < lo || x > hi) {
        throw UsageError(s.label + " expects an integer in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) +
                         "], got '" + s.text + "'");
      }
      v = static_cast<int>(x);
    }
    return v;
  }

  std::uint64_t get_u64(const std::string& name, std::uint64_t dflt,
                        std::uint64_t lo = 0,
                        std::uint64_t hi = kMaxU64) const {
    std::uint64_t v = dflt;
    for (const Source& s : sources(name)) v = to_u64(s, s.text, lo, hi);
    return v;
  }

  /// A comma-separated list of unsigned integers, each in [lo, hi].
  std::vector<std::uint64_t> get_u64_list(const std::string& name,
                                          std::vector<std::uint64_t> dflt,
                                          std::uint64_t lo = 0,
                                          std::uint64_t hi = kMaxU64) const {
    for (const Source& s : sources(name)) {
      dflt.clear();
      for (const std::string& tok : split(s.text, ',')) {
        dflt.push_back(to_u64(s, tok, lo, hi));
      }
    }
    return dflt;
  }

  double get_double(const std::string& name, double dflt,
                    double lo = std::numeric_limits<double>::lowest(),
                    double hi = std::numeric_limits<double>::max()) const {
    double v = dflt;
    for (const Source& s : sources(name)) {
      if (!metaheur::parse_strict_double(s.text, &v) || v < lo || v > hi) {
        std::ostringstream range;
        range << "[" << lo << ", " << hi << "]";
        throw UsageError(s.label + " expects a finite number in " +
                         range.str() + ", got '" + s.text + "'");
      }
    }
    return v;
  }

 private:
  /// One value and where it came from, for error messages.
  struct Source {
    std::string label;
    std::string text;
  };

  /// The values setting `name`, weakest first: the environment variable
  /// (when set and non-empty), then the last command-line value.
  std::vector<Source> sources(const std::string& name) const {
    std::vector<Source> out;
    if (const auto e = env_.find(name); e != env_.end()) {
      const char* v = std::getenv(e->second.c_str());
      if (v != nullptr && *v != '\0') out.push_back({e->second, v});
    }
    if (const auto it = values_.find(name); it != values_.end()) {
      out.push_back({"option '--" + name + "'", it->second.back()});
    }
    return out;
  }

  static std::uint64_t to_u64(const Source& s, const std::string& text,
                              std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t v = 0;
    if (!metaheur::parse_strict_uint(text, &v) || v < lo || v > hi) {
      throw UsageError(s.label + " expects an unsigned integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) +
                       "], got '" + text + "'");
    }
    return v;
  }

  std::map<std::string, std::vector<std::string>> values_;
  std::map<std::string, std::string> env_;  ///< flag name -> variable
};

}  // namespace afp::flags
