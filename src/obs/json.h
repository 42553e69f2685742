// The one JSON module: every JSON byte the tree writes or reads passes
// through here.
//
// Writers own their layout (BENCH rows one per line, one metric per line,
// the Chrome trace shape, the canonical scenario indent); this module owns
// the three decisions they must agree on:
//   * append_string — one escape rule: '"' and '\' backslash-escaped,
//     \n \t \r by name, every other byte below 0x20 as \u00xx (lowercase
//     hex), everything else (UTF-8 included) verbatim;
//   * append_number — integers in decimal, doubles as the shortest decimal
//     that round-trips (std::to_chars), non-finite doubles as null;
//   * write_file — write a sibling "<path>.tmp" and rename it over `path`,
//     so a reader never sees a half-written file.
//
// The reader is built for hand-written, CI-gated files, so its job is
// diagnostics first: every node carries the 1-based line/column where it
// started, duplicate object keys are rejected, and any syntax error throws
// a json::Error whose message is "<file>:<line>:<col>: <what>". Callers
// that validate a grammar on top (scenario/spec.h) throw the same type, so
// a user always gets one uniform, clickable diagnostic.
//
// Reader grammar: RFC 8259 objects/arrays/strings/numbers/true/false/null
// with \uXXXX escapes restricted to ASCII. No comments, no trailing commas,
// and arrays/objects nest at most kMaxDepth deep (a recursive descent must
// not be handed an unbounded stack).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flattree::obs::json {

// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);

void append_number(std::string& out, std::int64_t v);
void append_number(std::string& out, std::uint64_t v);
void append_number(std::string& out, double v);

// Writes `content` to `path` atomically. Returns false and fills `*error`
// on failure (the temp file is removed).
bool write_file(const std::string& path, std::string_view content,
                std::string* error = nullptr);

// Every reader diagnostic, and every diagnostic of a grammar built on it.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMaxDepth = 256;

struct Node {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind{Kind::kNull};
  bool bool_value{false};
  double number{0.0};
  std::string string;
  std::vector<Node> items;                            // kArray
  std::vector<std::pair<std::string, Node>> members;  // kObject, in order
  std::uint32_t line{1};
  std::uint32_t column{1};

  // Member lookup (kObject); null when absent.
  [[nodiscard]] const Node* find(std::string_view key) const;
  // Human name of the kind ("number", "object", ...), for diagnostics.
  [[nodiscard]] const char* kind_name() const;
};

// Parses exactly one JSON value (plus surrounding whitespace). Throws
// Error with "<file>:<line>:<col>: ..." on any syntax error, duplicate key,
// nesting deeper than kMaxDepth, or trailing content.
[[nodiscard]] Node parse(std::string_view text, std::string_view file);

}  // namespace flattree::obs::json
