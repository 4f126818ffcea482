// Minimal command-line option parser for the mcnet tools: --key value and
// --key=value flags with typed accessors and automatic usage text.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mcnet::tools {

class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    program_ = argc > 0 ? argv[0] : "mcnet";
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected positional argument: " + arg);
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";  // boolean flag
      }
    }
  }

  /// Declare an option (for usage text) and fetch it.
  [[nodiscard]] std::string get(const std::string& key, const std::string& def,
                                const std::string& help) {
    declare(key, def, help);
    const auto it = values_.find(key);
    if (it != values_.end()) used_.insert(it->first);
    return it == values_.end() ? def : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key, double def,
                                  const std::string& help) {
    const std::string v = get(key, std::to_string(def), help);
    // std::stod throws bare invalid_argument/out_of_range that name no
    // flag; rewrap so the user learns which option is malformed.
    std::size_t used = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(v, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --" + key + " expects a number, got \"" + v + "\"");
    }
    if (used != v.size()) {
      throw std::invalid_argument("option --" + key + " expects a number, got \"" + v + "\"");
    }
    return parsed;
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def,
                                     const std::string& help) {
    const std::string v = get(key, std::to_string(def), help);
    std::size_t used = 0;
    std::int64_t parsed = 0;
    try {
      parsed = std::stoll(v, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --" + key + " expects an integer, got \"" + v +
                                  "\"");
    }
    if (used != v.size()) {
      throw std::invalid_argument("option --" + key + " expects an integer, got \"" + v +
                                  "\"");
    }
    return parsed;
  }
  /// get_int() checked against [lo, hi] before it is narrowed to T, so an
  /// out-of-range value is an error naming the flag and the range instead
  /// of a silently wrapped or truncated setting.
  template <typename T>
  [[nodiscard]] T get_int_in(const std::string& key, std::int64_t def, std::int64_t lo,
                             std::int64_t hi, const std::string& help) {
    if (!std::in_range<T>(lo) || !std::in_range<T>(hi)) {
      throw std::logic_error("range of option --" + key + " does not fit its type");
    }
    const std::int64_t v = get_int(key, def, help);
    if (v < lo || v > hi) {
      throw std::invalid_argument("option --" + key + " must be in [" + std::to_string(lo) +
                                  ", " + std::to_string(hi) + "], got " + std::to_string(v));
    }
    return static_cast<T>(v);
  }
  [[nodiscard]] bool get_flag(const std::string& key, const std::string& help) {
    declare(key, "", help);
    const auto it = values_.find(key);
    if (it != values_.end()) used_.insert(it->first);
    return it != values_.end();
  }

  [[nodiscard]] bool help_requested() const {
    return values_.contains("help") || values_.contains("h");
  }

  void print_usage() const {
    std::printf("usage: %s [options]\n\noptions:\n", program_.c_str());
    for (const auto& d : declared_) {
      std::printf("  --%-18s %s%s%s\n", d.key.c_str(), d.help.c_str(),
                  d.def.empty() ? "" : " (default: ", d.def.empty() ? "" : (d.def + ")").c_str());
    }
  }

  /// Throw on unknown options (catch typos); call after all get()s.
  void reject_unknown() const {
    for (const auto& [k, v] : values_) {
      if (k == "help" || k == "h") continue;
      if (!used_.contains(k)) throw std::invalid_argument("unknown option --" + k);
    }
  }

 private:
  struct Declared {
    std::string key, def, help;
  };
  void declare(const std::string& key, const std::string& def, const std::string& help) {
    for (const auto& d : declared_) {
      if (d.key == key) return;
    }
    declared_.push_back({key, def, help});
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
  std::vector<Declared> declared_;
};

}  // namespace mcnet::tools
