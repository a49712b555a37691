// Small formatting and parsing helpers shared by benches, examples, the spec
// grammars and trace input.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dowork {

// Fixed-width ASCII table printer used by the benchmark harness to emit the
// paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  // Renders the table (header, rule, rows) to a string.
  std::string render() const;
  void print() const;  // render() to stdout

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// "12345" -> "12,345" for readable large counts.
std::string with_commas(std::uint64_t v);

// Formats a ratio like 1.2345 as "1.23x".
std::string ratio(double v);

// Reads all of `text` as an unsigned decimal in [0, max]: no sign, no
// blanks, nothing after the digits ("3x" is not 3).  Anything else throws
// std::invalid_argument naming `field`, e.g. "FaultSpec crashes".
std::uint64_t parse_u64(const std::string& text, const std::string& field,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace dowork
