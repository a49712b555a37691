#include "util/strings.h"

#include <charconv>
#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace dowork {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      line += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::string out = emit_row(headers_);
  std::string rule = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) rule += std::string(width[c] + 2, '-') + "|";
  out += rule + "\n";
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

void TablePrinter::print() const { std::cout << render() << std::flush; }

std::string with_commas(std::uint64_t v) {
  // Built by appending (not std::string::insert, which trips a GCC 12
  // -Werror=restrict false positive when inlined here).
  const std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (digits.size() - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", v);
  return buf;
}

std::uint64_t parse_u64(const std::string& text, const std::string& field, std::uint64_t max) {
  // from_chars takes no sign, blank or base prefix for an unsigned target.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || stop != end || v > max)
    throw std::invalid_argument(field + ": '" + text + "' is not a number in [0, " +
                                std::to_string(max) + "]");
  return v;
}

}  // namespace dowork
