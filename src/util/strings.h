// Small string utilities used across tokenization, CSV handling and report
// formatting. Header-light, allocation-conscious where it matters.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace emba {

/// Splits `s` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// ASCII lowercase copy.
std::string AsciiToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII digit (and s is non-empty).
bool IsAsciiDigits(std::string_view s);

/// True if `s` contains at least one ASCII digit.
bool ContainsDigit(std::string_view s);

/// True for ASCII punctuation characters.
bool IsAsciiPunct(char c);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a double with `digits` decimal places ("92.74").
std::string FormatFixed(double value, int digits);

/// Appends `s` escaped for the inside of a JSON string literal: `"` and `\`
/// get a backslash, newline/CR/tab become \n \r \t, every other byte below
/// 0x20 becomes \u00XX, and all other bytes (UTF-8 included) pass through.
void AppendJsonEscaped(std::string* out, std::string_view s);
/// The same escaping, written to a stream.
void AppendJsonEscaped(std::ostream* out, std::string_view s);

}  // namespace emba
