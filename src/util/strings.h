// Small string helpers shared by the log parser, IR dumper, and benches.

#ifndef ANDURIL_SRC_UTIL_STRINGS_H_
#define ANDURIL_SRC_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace anduril {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

// Splits into at most `max_pieces` pieces; the last piece keeps the rest.
std::vector<std::string> SplitN(std::string_view text, char sep, size_t max_pieces);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);
bool Contains(std::string_view text, std::string_view needle);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from, std::string_view to);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Renders 1234567 as "1,234,567" for bench tables.
std::string WithThousandsSeparators(int64_t value);

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_STRINGS_H_
