#include "tglink/eval/report.h"

#include <algorithm>
#include <cstdio>

namespace tglink {

void TextTable::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto render_row = [&widths](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      line += "| ";
      line += cell;
      line.append(widths[i] - cell.size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  if (!header_.empty()) {
    out += render_row(header_);
    std::string rule;
    for (size_t w : widths) {
      rule += '|';
      rule.append(w + 2, '-');
    }
    out += rule + "|\n";
  }
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string TextTable::Percent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, 100.0 * fraction);
  return buf;
}

std::string TextTable::Fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace tglink
