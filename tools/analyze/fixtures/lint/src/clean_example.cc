// Conforming counterpart in the lint fixture: patterns that look close to
// the banned ones but must NOT fire. analyze_tokenizer_test runs the lint
// pass over this corpus and requires zero findings; if it starts flagging
// any of these, its matching got too greedy.

#include <cstddef>
#include <memory>
#include <string>

namespace lint_selftest {

// "rand" / "new" / "delete" inside identifiers, comments, and strings are
// not violations.
inline std::size_t operand_count = 0;
inline const char* kBanner = "brand new time(nullptr) printf == 1.0";

struct Widget {
  Widget() = default;
  Widget(const Widget&) = delete;  // deleted function, not raw delete
  Widget& operator=(const Widget&) = delete;
};

inline std::unique_ptr<int> MakeOwned() {
  return std::make_unique<int>(7);  // owning allocation, not raw new
}

inline bool NearOne(double value) {
  const double tolerance = 1e-9;
  return value > 1.0 - tolerance && value < 1.0 + tolerance;
}

inline bool ExactZeroGradientSkip(float gradient) {
  return gradient == 0.0f;  // analyze:allow(float-eq): sparsity guard example
}

// Raw strings are opaque to the tokenizer-backed lint pass: banned patterns
// inside them — including the quote-confusing `")` sequence that broke the
// regex-era stripper — must not fire any rule.
inline const char* kRawBanner = R"(std::rand() time(nullptr) printf("%d"))";
inline const char* kRawDelim = R"doc(
  new int[3]; delete p; value == 1.0; random_device entropy;
  an embedded quote-paren ") does not end a d-char-seq raw string
)doc";

// Digit separators are not char literals; the suffix after `'` must not be
// blanked into invisibility (1'000'000 stays numeric code).
inline constexpr long kBigCount = 1'000'000L;

// A spliced line comment swallows its continuation line, banned words \
   included: std::rand() printf new delete time(nullptr)
inline int AfterSplicedComment() { return 0; }

}  // namespace lint_selftest
