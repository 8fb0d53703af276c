#include "src/util/strings.h"

#include <cstdarg>
#include <cstdio>

#include "src/util/check.h"

namespace anduril {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitN(std::string_view text, char sep, size_t max_pieces) {
  ANDURIL_CHECK_GE(max_pieces, 1u);
  std::vector<std::string> pieces;
  size_t start = 0;
  while (pieces.size() + 1 < max_pieces) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      break;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  pieces.emplace_back(text.substr(start));
  return pieces;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\n' ||
                         text[begin] == '\r')) {
    ++begin;
  }
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t' ||
                         text[end - 1] == '\n' || text[end - 1] == '\r')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ReplaceAll(std::string_view text, std::string_view from, std::string_view to) {
  ANDURIL_CHECK(!from.empty());
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  ANDURIL_CHECK_GE(needed, 0);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string WithThousandsSeparators(int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  if (value < 0) {
    out.push_back('-');
  }
  size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  out.append(digits.substr(0, lead));
  for (size_t i = lead; i < digits.size(); i += 3) {
    out.push_back(',');
    out.append(digits.substr(i, 3));
  }
  return out;
}

}  // namespace anduril
