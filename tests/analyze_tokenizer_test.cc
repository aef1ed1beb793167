// Unit tests for the copyattack-analyze C++ tokenizer
// (tools/analyze/tokenizer.h): the translation-phase cases that the
// regex-era linter misread — raw strings, line splices, CRLF files, block
// comments spanning would-be rule matches — plus the blanked per-line view
// the lint pass matches against, the scope scanner, the layers.toml parser,
// the call graph, and the lint pass's rules over its seeded fixture.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/callgraph.h"
#include "analyze/layers.h"
#include "analyze/passes.h"
#include "analyze/report.h"
#include "analyze/structure.h"
#include "analyze/tokenizer.h"
#include "gtest/gtest.h"

namespace copyattack::analyze {
namespace {

std::vector<std::string> IdentifierTexts(const LexedFile& lexed) {
  std::vector<std::string> out;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kIdentifier) out.push_back(token.text);
  }
  return out;
}

bool HasIdentifier(const LexedFile& lexed, const std::string& text) {
  const std::vector<std::string> idents = IdentifierTexts(lexed);
  return std::find(idents.begin(), idents.end(), text) != idents.end();
}

TEST(TokenizerTest, RawStringBodyIsOpaque) {
  const LexedFile lexed = LexString(
      "raw.cc",
      "const char* s = R\"(std::rand() time(nullptr) \"quoted\")\";\n"
      "int after = 1;\n");
  ASSERT_TRUE(lexed.errors.empty());
  EXPECT_FALSE(HasIdentifier(lexed, "rand"));
  EXPECT_FALSE(HasIdentifier(lexed, "time"));
  EXPECT_TRUE(HasIdentifier(lexed, "after"));
  // The blanked view keeps only the delimiting quotes of the literal.
  EXPECT_EQ(lexed.code_lines[0].find("rand"), std::string::npos);
  EXPECT_NE(lexed.code_lines[0].find("const char* s = R\""),
            std::string::npos);
}

TEST(TokenizerTest, RawStringCustomDelimiterSurvivesQuoteParen) {
  // `")` inside the body must not terminate a d-char-seq raw string.
  const LexedFile lexed = LexString(
      "raw.cc",
      "const char* s = R\"doc(embedded \") quote-paren new delete)doc\";\n"
      "int tail = 2;\n");
  ASSERT_TRUE(lexed.errors.empty());
  EXPECT_FALSE(HasIdentifier(lexed, "new"));
  EXPECT_TRUE(HasIdentifier(lexed, "tail"));
}

TEST(TokenizerTest, MultiLineRawStringKeepsLineNumbers) {
  const LexedFile lexed = LexString("raw.cc",
                                    "auto s = R\"(line one\n"
                                    "line two\n"
                                    "line three)\";\n"
                                    "int marker = 3;\n");
  ASSERT_TRUE(lexed.errors.empty());
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kIdentifier && token.text == "marker") {
      EXPECT_EQ(token.line, 4u);
    }
    if (token.kind == TokenKind::kString) {
      EXPECT_EQ(token.line, 1u);  // reported at its opening quote
    }
  }
}

TEST(TokenizerTest, UnterminatedRawStringIsAnError) {
  const LexedFile lexed =
      LexString("raw.cc", "auto s = R\"(never closed\nmore\n");
  ASSERT_FALSE(lexed.errors.empty());
}

TEST(TokenizerTest, LineSpliceJoinsLogicalLine) {
  // The identifier is split across physical lines by a backslash-newline;
  // phase-2 splicing must reassemble it.
  const LexedFile lexed = LexString("splice.cc", "int spli\\\nced = 0;\n");
  EXPECT_TRUE(HasIdentifier(lexed, "spliced"));
  EXPECT_FALSE(HasIdentifier(lexed, "spli"));
}

TEST(TokenizerTest, SplicedLineCommentSwallowsContinuation) {
  const LexedFile lexed = LexString("splice.cc",
                                    "// comment continues \\\n"
                                    "std::rand() on this line too\n"
                                    "int live = 1;\n");
  EXPECT_FALSE(HasIdentifier(lexed, "rand"));
  EXPECT_TRUE(HasIdentifier(lexed, "live"));
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line_begin, 1u);
  EXPECT_EQ(lexed.comments[0].line_end, 2u);
}

TEST(TokenizerTest, CrlfIsNormalized) {
  const LexedFile lexed =
      LexString("crlf.cc", "int a = 1;\r\nint b = 2;\r\nint c = 3;\r\n");
  ASSERT_EQ(lexed.code_lines.size(), 4u);  // 3 lines + empty tail
  EXPECT_EQ(lexed.code_lines[1], "int b = 2;");
  for (const Token& token : lexed.tokens) {
    if (token.text == "c") {
      EXPECT_EQ(token.line, 3u);
    }
  }
}

TEST(TokenizerTest, BlockCommentSpanningRuleMatchIsBlanked) {
  const LexedFile lexed = LexString("block.cc",
                                    "int before = 0; /* std::rand()\n"
                                    "time(nullptr) still commented\n"
                                    "*/ int after = 1;\n");
  EXPECT_FALSE(HasIdentifier(lexed, "rand"));
  EXPECT_FALSE(HasIdentifier(lexed, "time"));
  EXPECT_TRUE(HasIdentifier(lexed, "before"));
  EXPECT_TRUE(HasIdentifier(lexed, "after"));
  // Middle line of the blanked view is all comment, hence all spaces.
  EXPECT_EQ(lexed.code_lines[1].find_first_not_of(' '), std::string::npos);
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line_begin, 1u);
  EXPECT_EQ(lexed.comments[0].line_end, 3u);
}

TEST(TokenizerTest, DigitSeparatorsStayNumeric) {
  // The regex-era stripper treated `'` as a char-literal quote and blanked
  // the rest of the line after 1'000'000.
  const LexedFile lexed =
      LexString("num.cc", "long n = 1'000'000; int visible = 9;\n");
  EXPECT_TRUE(HasIdentifier(lexed, "visible"));
  bool found_number = false;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kNumber && token.text == "1'000'000") {
      found_number = true;
    }
  }
  EXPECT_TRUE(found_number);
  EXPECT_NE(lexed.code_lines[0].find("visible"), std::string::npos);
}

TEST(TokenizerTest, EncodingPrefixedLiteralsAreStrings) {
  const LexedFile lexed = LexString(
      "pfx.cc", "auto a = u8\"x new y\"; auto b = L\"delete\"; auto c = "
                "u'q'; auto d = U\"rand\";\n");
  EXPECT_FALSE(HasIdentifier(lexed, "new"));
  EXPECT_FALSE(HasIdentifier(lexed, "delete"));
  EXPECT_FALSE(HasIdentifier(lexed, "rand"));
  // u8/L/U must not survive as identifiers glued to the literal.
  EXPECT_FALSE(HasIdentifier(lexed, "u8"));
}

TEST(TokenizerTest, IncludePathsBecomeDedicatedTokens) {
  const LexedFile lexed = LexString("inc.cc",
                                    "#include \"util/rng.h\"\n"
                                    "#include <vector>\n");
  std::vector<const Token*> paths;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kIncludePath) paths.push_back(&token);
  }
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0]->text, "util/rng.h");
  EXPECT_FALSE(paths[0]->angled);
  EXPECT_EQ(paths[1]->text, "vector");
  EXPECT_TRUE(paths[1]->angled);
  // Quoted path bodies are blanked like strings; the directive skeleton
  // stays for the header-guard rule.
  EXPECT_EQ(lexed.code_lines[0].find("util"), std::string::npos);
  EXPECT_NE(lexed.code_lines[0].find("#include"), std::string::npos);
}

TEST(TokenizerTest, DirectiveTokensAreMarked) {
  const LexedFile lexed = LexString("def.cc",
                                    "#define HELPER(x) do { (x); } while (0)\n"
                                    "int normal = 0;\n");
  for (const Token& token : lexed.tokens) {
    if (token.line == 1) {
      EXPECT_TRUE(token.in_directive) << token.text;
    }
    if (token.text == "normal") {
      EXPECT_FALSE(token.in_directive);
    }
  }
}

TEST(TokenizerTest, AllowanceAppliesToSpannedAndNextLine) {
  const LexedFile lexed = LexString("allow.cc",
                                    "int a = 1;\n"
                                    "// analyze:allow(some-rule) reason\n"
                                    "int b = 2;\n"
                                    "int c = 3;\n");
  EXPECT_TRUE(lexed.Allows(2, "analyze:allow", "some-rule"));
  EXPECT_TRUE(lexed.Allows(3, "analyze:allow", "some-rule"));
  EXPECT_FALSE(lexed.Allows(4, "analyze:allow", "some-rule"));
  EXPECT_FALSE(lexed.Allows(2, "lint:allow", "some-rule"));
}

TEST(TokenizerTest, Utf8BomIsStrippedBeforeLineOneDirective) {
  // Editors on some platforms prepend a BOM; without the strip the line-1
  // `#pragma once` would no longer start at column 0 and header-guard
  // detection (which anchors at the line start) would misread the file.
  const LexedFile lexed = LexString(
      "bom.h", "\xEF\xBB\xBF#pragma once\nint value = 1;\n");
  ASSERT_TRUE(lexed.errors.empty());
  EXPECT_EQ(lexed.code_lines[0], "#pragma once");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].kind, TokenKind::kDirective);
  EXPECT_EQ(lexed.tokens[0].text, "pragma");
  EXPECT_TRUE(HasIdentifier(lexed, "value"));
}

TEST(TokenizerTest, PragmaOnceAndHeaderGuardKeepDirectiveSkeleton) {
  // The header-guard rule decides `#pragma once` vs `#ifndef GUARD` from
  // the blanked code_lines view, so both spellings must survive blanking
  // verbatim and their tokens must be flagged in_directive.
  const LexedFile pragma_once =
      LexString("p.h", "#pragma once\nstruct P {};\n");
  EXPECT_EQ(pragma_once.code_lines[0].rfind("#pragma once", 0), 0u);

  const LexedFile guarded = LexString("g.h",
                                      "#ifndef COPYATTACK_G_H_\n"
                                      "#define COPYATTACK_G_H_\n"
                                      "struct G {};\n"
                                      "#endif  // COPYATTACK_G_H_\n");
  EXPECT_EQ(guarded.code_lines[0], "#ifndef COPYATTACK_G_H_");
  std::vector<std::string> directives;
  for (const Token& token : guarded.tokens) {
    if (token.kind == TokenKind::kDirective) directives.push_back(token.text);
    if (token.text == "COPYATTACK_G_H_") {
      EXPECT_TRUE(token.in_directive);
    }
  }
  EXPECT_EQ(directives,
            (std::vector<std::string>{"ifndef", "define", "endif"}));
}

TEST(TokenizerTest, NestedRawStringsInsideMacroArgumentsStayOpaque) {
  // Two raw-string arguments of one macro invocation, with parens, quotes
  // and a `")`-lookalike inside the bodies: the closing delimiter of the
  // first must not be found inside the second, and nothing inside either
  // body may surface as an identifier.
  const LexedFile lexed = LexString(
      "macro.cc",
      "CHECK_ROUNDTRIP(R\"a(first (nested \"quoted\") std::rand())a\",\n"
      "                R\"b(second \") quote-paren time(nullptr))b\");\n"
      "int after_macro = 7;\n");
  ASSERT_TRUE(lexed.errors.empty());
  EXPECT_FALSE(HasIdentifier(lexed, "rand"));
  EXPECT_FALSE(HasIdentifier(lexed, "time"));
  EXPECT_FALSE(HasIdentifier(lexed, "nested"));
  EXPECT_TRUE(HasIdentifier(lexed, "CHECK_ROUNDTRIP"));
  EXPECT_TRUE(HasIdentifier(lexed, "after_macro"));
  // Both literals lex as opaque strings on their own physical lines.
  std::size_t strings = 0;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kString) ++strings;
  }
  EXPECT_EQ(strings, 2u);
}

TEST(TokenizerTest, AnnotationSplitAcrossLineSpliceIsReassembled) {
  // A CA_* annotation macro name split by a backslash-newline must lex as
  // one identifier, and the scanner must still harvest the mutex-order
  // annotation from the reassembled head.
  const LexedFile lexed = LexString("splice.h",
                                    "class Recorder {\n"
                                    "  std::mutex mu_ CA_ACQUIRED_\\\n"
                                    "BEFORE(Buffer::mutex);\n"
                                    "};\n");
  ASSERT_TRUE(lexed.errors.empty());
  EXPECT_TRUE(HasIdentifier(lexed, "CA_ACQUIRED_BEFORE"));
  EXPECT_FALSE(HasIdentifier(lexed, "CA_ACQUIRED_"));
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.mutex_orders.size(), 1u);
  EXPECT_EQ(structure.mutex_orders[0].class_name, "Recorder");
  EXPECT_EQ(structure.mutex_orders[0].mutex_name, "mu_");
  ASSERT_EQ(structure.mutex_orders[0].before.size(), 1u);
  EXPECT_EQ(structure.mutex_orders[0].before[0], "Buffer::mutex");
}

TEST(ScannerTest, FindsOutOfClassMethodAndGuardedField) {
  const LexedFile lexed = LexString(
      "worker.cc",
      "class Worker {\n"
      " public:\n"
      "  void Tick();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int count_ CA_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "void Worker::Tick() { std::lock_guard<std::mutex> l(mu_); ++count_; "
      "}\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.fields.size(), 1u);
  EXPECT_EQ(structure.fields[0].class_name, "Worker");
  EXPECT_EQ(structure.fields[0].field_name, "count_");
  EXPECT_EQ(structure.fields[0].mutex_name, "mu_");
  ASSERT_EQ(structure.functions.size(), 1u);
  EXPECT_EQ(structure.functions[0].class_name, "Worker");
  EXPECT_EQ(structure.functions[0].name, "Tick");
  EXPECT_FALSE(structure.functions[0].is_ctor);
}

TEST(ScannerTest, ConstructorInitializerListIsNotABody) {
  const LexedFile lexed = LexString(
      "ctor.cc",
      "Histogram::Histogram(std::vector<double> bounds)\n"
      "    : bounds_(std::move(bounds)), shards_(16) {\n"
      "  total_ = 0;\n"
      "}\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.functions.size(), 1u);
  EXPECT_TRUE(structure.functions[0].is_ctor);
  EXPECT_EQ(structure.functions[0].class_name, "Histogram");
}

TEST(ScannerTest, ExportsTypesAliasesEnumeratorsAndMacros) {
  const LexedFile lexed = LexString("exports.h",
                                    "#define MY_MACRO(x) (x)\n"
                                    "struct Tensor { int rank; };\n"
                                    "enum class Mode { kFast, kSafe };\n"
                                    "using Row = int;\n"
                                    "typedef double Scalar;\n"
                                    "inline int Clamp(int v) { return v; }\n");
  const FileStructure structure = ScanStructure(lexed);
  for (const char* name :
       {"MY_MACRO", "Tensor", "Mode", "kFast", "kSafe", "Row", "Scalar",
        "Clamp"}) {
    EXPECT_EQ(structure.exported.count(name), 1u) << name;
  }
}

TEST(ScannerTest, HarvestsCheckpointedTypeAndFields) {
  const LexedFile lexed = LexString(
      "snap.h",
      "struct Snapshot CA_CHECKPOINTED(WriteSnap, Owner::ReadSnap) {\n"
      "  std::uint64_t episodes = 0;\n"
      "  double reward = 0.0;\n"
      "  double scratch CA_NOT_CHECKPOINTED(\"per-step scratch\") = 0.0;\n"
      "};\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.checkpointed_types.size(), 1u);
  const CheckpointedType& type = structure.checkpointed_types[0];
  EXPECT_EQ(type.class_name, "Snapshot");
  EXPECT_EQ(type.save_qualifier, "");
  EXPECT_EQ(type.save_name, "WriteSnap");
  EXPECT_EQ(type.load_qualifier, "Owner");
  EXPECT_EQ(type.load_name, "ReadSnap");
  ASSERT_EQ(structure.checkpoint_fields.size(), 3u);
  EXPECT_EQ(structure.checkpoint_fields[0].field_name, "episodes");
  EXPECT_FALSE(structure.checkpoint_fields[0].exempt);
  EXPECT_EQ(structure.checkpoint_fields[1].field_name, "reward");
  EXPECT_FALSE(structure.checkpoint_fields[1].exempt);
  EXPECT_EQ(structure.checkpoint_fields[2].field_name, "scratch");
  EXPECT_TRUE(structure.checkpoint_fields[2].exempt);
}

TEST(ScannerTest, CheckpointedWithEmptyArgsDefaultsToSaveLoadState) {
  const LexedFile lexed =
      LexString("s.h", "class Rng CA_CHECKPOINTED() {\n"
                       "  std::uint64_t state_ = 0;\n"
                       "};\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.checkpointed_types.size(), 1u);
  EXPECT_EQ(structure.checkpointed_types[0].save_name, "SaveState");
  EXPECT_EQ(structure.checkpointed_types[0].load_name, "LoadState");
}

TEST(ScannerTest, InlineMethodBodiesDoNotLeakIntoFieldExtraction) {
  // Statements inside an inline method must not be misread as member
  // declarations of the checkpointed class.
  const LexedFile lexed = LexString(
      "m.h",
      "struct Baseline CA_CHECKPOINTED(Save, Load) {\n"
      "  double Update(double r) { double delta = r - value; return delta; }\n"
      "  double value = 0.0;\n"
      "};\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.checkpoint_fields.size(), 1u);
  EXPECT_EQ(structure.checkpoint_fields[0].field_name, "value");
}

TEST(ScannerTest, ZeroArgAcquiredBeforeIsTrackedLeaf) {
  const LexedFile lexed =
      LexString("p.h", "class Pool {\n"
                       "  mutable std::mutex mutex_ CA_ACQUIRED_BEFORE();\n"
                       "};\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.mutex_orders.size(), 1u);
  EXPECT_EQ(structure.mutex_orders[0].class_name, "Pool");
  EXPECT_EQ(structure.mutex_orders[0].mutex_name, "mutex_");
  EXPECT_TRUE(structure.mutex_orders[0].before.empty());
}

TEST(ReportTest, SarifEmitsRuleIdsAndLocations) {
  const std::vector<Violation> violations = {
      {"src/core/a.cc", 12, "ckpt-missing-member", "member 'x' missing"},
  };
  std::ostringstream out;
  EXPECT_EQ(ReportSarif(violations, out), 1u);
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"ckpt-missing-member\""),
            std::string::npos);
  EXPECT_NE(sarif.find("src/core/a.cc"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
}

TEST(ReportTest, BaselineDiffSplitsFreshGrandfatheredAndStale) {
  Baseline baseline;
  baseline[BaselineKey({"a.cc", 1, "rule-x", "msg"})] = 1;
  baseline[BaselineKey({"gone.cc", 9, "rule-y", "fixed long ago"})] = 1;
  const std::vector<Violation> violations = {
      {"a.cc", 42, "rule-x", "msg"},        // line moved: still matches
      {"b.cc", 7, "rule-z", "brand new"},   // fresh
  };
  const BaselineDiff diff = DiffBaseline(violations, baseline);
  EXPECT_EQ(diff.grandfathered, 1u);
  ASSERT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.fresh[0].file, "b.cc");
  ASSERT_EQ(diff.stale.size(), 1u);
  EXPECT_NE(diff.stale[0].find("gone.cc"), std::string::npos);
}

TEST(LayersTest, ParsesContractAndValidatesEdges) {
  LayerContract contract;
  std::string error;
  ASSERT_TRUE(ParseLayerContract("# comment\n"
                                 "[modules]\n"
                                 "obs = []\n"
                                 "util = [\"obs\"]  # trailing comment\n"
                                 "[top]\n"
                                 "modules = [\"tools\"]\n"
                                 "[pure]\n"
                                 "headers = [\"src/util/annotations.h\"]\n",
                                 &contract, &error))
      << error;
  EXPECT_TRUE(contract.AllowsEdge("util", "obs"));
  EXPECT_FALSE(contract.AllowsEdge("obs", "util"));
  EXPECT_TRUE(contract.AllowsEdge("tools", "util"));
  // Pure entries are repo-relative paths, matched against rel_path.
  EXPECT_TRUE(contract.IsPureHeader("src/util/annotations.h"));
  EXPECT_FALSE(contract.IsPureHeader("util/annotations.h"));

  LayerContract bad;
  EXPECT_FALSE(ParseLayerContract("[modules]\nutil = [\"typo\"]\n", &bad,
                                  &error));
  EXPECT_NE(error.find("typo"), std::string::npos);
}

// ---- Call-expression tokenization (ISSUE 9) -------------------------------
// The call-graph builder keys off exact token shapes: `::` and `->` must
// stay single punct tokens, template argument lists must not swallow the
// call's `(`, and calls nested in macro arguments must still be visible.

std::vector<std::string> PunctTexts(const LexedFile& lexed) {
  std::vector<std::string> out;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::kPunct) out.push_back(token.text);
  }
  return out;
}

TEST(TokenizerTest, QualifiedCallKeepsScopeResolutionAtomic) {
  const LexedFile lexed =
      LexString("call.cc", "int x = ns::Widget::Make(1);\n");
  const std::vector<std::string> punct = PunctTexts(lexed);
  // `::` lexes as one token, never `:` `:` — the builder walks back over
  // ident `::` pairs to recover the qualifier chain.
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "::"), 2);
  EXPECT_EQ(std::count(punct.begin(), punct.end(), ":"), 0);
}

TEST(TokenizerTest, ArrowChainsLexAsSingleArrowTokens) {
  const LexedFile lexed =
      LexString("chain.cc", "auto v = a->b()->c(d->e);\n");
  const std::vector<std::string> punct = PunctTexts(lexed);
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "->"), 3);
  // No stray `-` `>` pairs from mis-splitting the arrows.
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "-"), 0);
}

TEST(TokenizerTest, AngleBracketsLexAsSingleCharTokens) {
  const LexedFile lexed = LexString(
      "tmpl.cc",
      "auto a = Make<int, 4>(x);\n"
      "auto b = total << Make(y);\n");
  const std::vector<std::string> punct = PunctTexts(lexed);
  // The lexer never fuses shifts: `<<` is `<` `<`. SkipTemplateArgs
  // relies on this — a shift expression's angles never balance, so it
  // cannot be mistaken for a template argument list.
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "<<"), 0);
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "<"), 3);
  EXPECT_EQ(std::count(punct.begin(), punct.end(), ">"), 1);
}

TEST(TokenizerTest, OperatorCallSpellingsAreVisible) {
  const LexedFile lexed = LexString(
      "op.cc",
      "int a = obj.operator()(1);\n"
      "bool eq = Lhs::operator==(l, r);\n");
  EXPECT_TRUE(HasIdentifier(lexed, "operator"));
  // `operator()` contributes its own paren pair plus the argument list's.
  const std::vector<std::string> punct = PunctTexts(lexed);
  EXPECT_GE(std::count(punct.begin(), punct.end(), "("), 3);
}

TEST(TokenizerTest, CallsInsideMacroArgumentsRemainVisible) {
  const LexedFile lexed = LexString(
      "macro.cc", "void F() { CA_CHECK(Validate(x)) << Render(y); }\n");
  // Macro names lex as plain identifiers; the nested calls keep their
  // `name (` shape for the extractor.
  EXPECT_TRUE(HasIdentifier(lexed, "CA_CHECK"));
  EXPECT_TRUE(HasIdentifier(lexed, "Validate"));
  EXPECT_TRUE(HasIdentifier(lexed, "Render"));
}

TEST(StructureTest, HotPathAnnotationsLandOnTheFunction) {
  const LexedFile lexed = LexString(
      "hot.cc",
      "float Score(int n) CA_HOT_PATH { return 1.0f; }\n"
      "void Rebuild() CA_COLD_OK(\"episode setup\") { }\n"
      "void Plain() { }\n");
  const FileStructure structure = ScanStructure(lexed);
  ASSERT_EQ(structure.functions.size(), 3u);
  EXPECT_TRUE(structure.functions[0].hot_path);
  EXPECT_FALSE(structure.functions[0].cold_ok);
  EXPECT_TRUE(structure.functions[1].cold_ok);
  EXPECT_FALSE(structure.functions[2].hot_path);
  EXPECT_FALSE(structure.functions[2].cold_ok);
}

TEST(StructureTest, RecordsDefinedClassesIncludingPureInterfaces) {
  const LexedFile lexed = LexString(
      "iface.h",
      "class Strategy {\n"
      " public:\n"
      "  virtual ~Strategy() = default;\n"
      "  virtual double Run(int episodes) = 0;\n"
      "};\n");
  const FileStructure structure = ScanStructure(lexed);
  EXPECT_EQ(structure.classes.count("Strategy"), 1u);
}

// ---- Call-graph construction (ISSUE 9) ------------------------------------

struct BuiltGraph {
  SourceTree tree;
  std::vector<FileStructure> structures;
  CallGraph graph;
};

BuiltGraph BuildFrom(
    const std::vector<std::pair<std::string, std::string>>& files) {
  BuiltGraph built;
  for (const auto& [path, content] : files) {
    built.tree.files.push_back({path, LexString(path, content)});
  }
  for (const ScannedFile& file : built.tree.files) {
    built.structures.push_back(ScanStructure(file.lexed));
  }
  built.graph = BuildCallGraph(built.tree, built.structures);
  return built;
}

std::size_t NodeByDisplay(const CallGraph& graph, const std::string& name) {
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    if (graph.Display(n) == name) return n;
  }
  return CallGraph::kNoNode;
}

bool HasEdge(const CallGraph& graph, const std::string& from,
             const std::string& to) {
  const std::size_t a = NodeByDisplay(graph, from);
  const std::size_t b = NodeByDisplay(graph, to);
  if (a == CallGraph::kNoNode || b == CallGraph::kNoNode) return false;
  const auto& out = graph.edges[a];
  return std::find(out.begin(), out.end(), b) != out.end();
}

TEST(CallGraphTest, ResolvesMemberCallsThroughTypedLocals) {
  const BuiltGraph built = BuildFrom({
      {"src/core/widget.h",
       "class Widget {\n"
       " public:\n"
       "  int Poke() { return 1; }\n"
       "};\n"},
      {"src/core/use.cc",
       "#include \"widget.h\"\n"
       "int Use() {\n"
       "  Widget w;\n"
       "  return w.Poke();\n"
       "}\n"},
  });
  EXPECT_TRUE(HasEdge(built.graph, "Use", "Widget::Poke"));
}

TEST(CallGraphTest, InterfaceReceiverFansOutToImplementations) {
  const BuiltGraph built = BuildFrom({
      {"src/core/strategy.h",
       "class Strategy {\n"
       " public:\n"
       "  virtual double Run(int n) = 0;\n"
       "};\n"},
      {"src/core/impls.cc",
       "#include \"strategy.h\"\n"
       "class Greedy : public Strategy {\n"
       " public:\n"
       "  double Run(int n) override { return 1.0; }\n"
       "};\n"
       "class Random : public Strategy {\n"
       " public:\n"
       "  double Run(int n) override { return 2.0; }\n"
       "};\n"
       "double Drive(int n) {\n"
       "  std::unique_ptr<Strategy> strategy = MakeStrategy();\n"
       "  return strategy->Run(n);\n"
       "}\n"},
  });
  // No Strategy::Run definition exists, so the call over-approximates to
  // every same-name method — the token-level model of virtual dispatch.
  EXPECT_TRUE(HasEdge(built.graph, "Drive", "Greedy::Run"));
  EXPECT_TRUE(HasEdge(built.graph, "Drive", "Random::Run"));
}

TEST(CallGraphTest, ConstructionShapesResolveToTheCtor) {
  const BuiltGraph built = BuildFrom({
      {"src/core/maker.cc",
       "class Widget {\n"
       " public:\n"
       "  Widget(int n) { }\n"
       "};\n"
       "void Stack() { Widget w(3); }\n"
       "void Heap() { auto p = std::make_unique<Widget>(4); }\n"},
  });
  EXPECT_TRUE(HasEdge(built.graph, "Stack", "Widget"));
  EXPECT_TRUE(HasEdge(built.graph, "Heap", "Widget"));
}

TEST(CallGraphTest, AmbiguousCallsCountAsUnresolvedWithReason) {
  const BuiltGraph built = BuildFrom({
      {"src/core/amb.cc",
       "class A { public: int Go() { return 1; } };\n"
       "class B { public: int Go() { return 2; } };\n"
       "int Use(int which) { return untyped->Go(); }\n"},
  });
  EXPECT_GE(built.graph.stats.unresolved_calls, 1u);
  const std::size_t use = NodeByDisplay(built.graph, "Use");
  ASSERT_NE(use, CallGraph::kNoNode);
  bool found = false;
  for (const CallSite& site : built.graph.nodes[use].calls) {
    if (site.name == "Go") {
      EXPECT_TRUE(site.targets.empty());
      EXPECT_FALSE(site.why_unresolved.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CallGraphTest, ExternalCallsDoNotCountAsUnresolved) {
  const BuiltGraph built = BuildFrom({
      {"src/core/ext.cc",
       "void Use() { std::sort(v.begin(), v.end()); }\n"},
  });
  EXPECT_GE(built.graph.stats.external_calls, 1u);
  EXPECT_EQ(built.graph.stats.unresolved_calls, 0u);
}

TEST(CallGraphTest, ReachStopsAtBarrierAndRendersPath) {
  const BuiltGraph built = BuildFrom({
      {"src/core/chain.cc",
       "void Leaf() { }\n"
       "void Cold() { Leaf(); }\n"
       "void Mid() { Cold(); }\n"
       "void Root() { Mid(); }\n"},
  });
  const std::size_t root = NodeByDisplay(built.graph, "Root");
  const std::size_t cold = NodeByDisplay(built.graph, "Cold");
  const std::size_t leaf = NodeByDisplay(built.graph, "Leaf");
  ASSERT_NE(root, CallGraph::kNoNode);
  std::vector<std::size_t> parent;
  built.graph.Reach({root}, /*use_reverse=*/false,
                    [&](std::size_t n) { return n == cold; }, &parent);
  // The barrier node is reached (reported at the frontier) but not
  // expanded: nothing past it is visited.
  EXPECT_NE(parent[cold], CallGraph::kNoNode);
  EXPECT_EQ(parent[leaf], CallGraph::kNoNode);
  EXPECT_EQ(built.graph.PathFrom(parent, cold), "Root -> Mid -> Cold");
}

TEST(CallGraphTest, TemplateCallsResolveAcrossArgumentList) {
  const BuiltGraph built = BuildFrom({
      {"src/core/tmpl.cc",
       "template <typename T, int N>\n"
       "int Make(int x) { return x + N; }\n"
       "int Use(int x) { return Make<int, 4>(x); }\n"
       "int Shift(int total, int y) { return total << Make(y); }\n"},
  });
  EXPECT_TRUE(HasEdge(built.graph, "Use", "Make"));
  EXPECT_TRUE(HasEdge(built.graph, "Shift", "Make"));
}

TEST(CallGraphTest, MacroArgumentCallsBecomeEdges) {
  const BuiltGraph built = BuildFrom({
      {"src/core/mac.cc",
       "bool Validate(int x) { return x > 0; }\n"
       "void F(int x) { CA_CHECK(Validate(x)); }\n"},
  });
  EXPECT_TRUE(HasEdge(built.graph, "F", "Validate"));
}

// ---- Lint pass ------------------------------------------------------------

/// The lint fixture (tools/analyze/fixtures/lint), loaded under the same
/// root-relative paths the analyzer gives it.
SourceTree LintFixture(const std::vector<std::string>& rel_paths) {
  SourceTree tree;
  for (const std::string& rel_path : rel_paths) {
    ScannedFile file{rel_path, {}};
    std::string error;
    EXPECT_TRUE(LexFileFromDisk(
        std::string(CA_LINT_FIXTURE_DIR) + "/" + rel_path, &file.lexed,
        &error))
        << error;
    tree.files.push_back(std::move(file));
  }
  return tree;
}

std::vector<Violation> LintOf(const SourceTree& tree) {
  std::vector<Violation> violations;
  RunLintPass(tree, &violations);
  return violations;
}

TEST(LintPassTest, EachRuleFiresOnceOnItsSeededLine) {
  const std::vector<Violation> violations = LintOf(LintFixture(
      {"src/seeded_violations.h", "src/core/raw_clock_violation.h"}));
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"header-guard", 10}, {"std-rand", 11}, {"raw-new", 19},
      {"printf-family", 23}, {"float-eq", 27}, {"raw-clock", 12},
  };
  ASSERT_EQ(violations.size(), expected.size());
  for (const auto& [rule, line] : expected) {
    const auto hits = std::count_if(
        violations.begin(), violations.end(),
        [&](const Violation& v) { return v.rule == rule; });
    EXPECT_EQ(hits, 1) << rule;
    for (const Violation& v : violations) {
      if (v.rule == rule) {
        EXPECT_EQ(v.line, line) << rule;
      }
    }
  }
  for (const Violation& v : violations) {
    EXPECT_EQ(v.rule == "raw-clock",
              v.file == "src/core/raw_clock_violation.h")
        << v.rule;
  }
}

TEST(LintPassTest, NearMissCorpusIsClean) {
  for (const Violation& v : LintOf(LintFixture({"src/clean_example.cc"}))) {
    ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message;
  }
}

TEST(LintPassTest, AllowMarkerSuppressesFloatEq) {
  const std::string code = "bool Zero(double g) { return g == 0.0; }";
  SourceTree tree;
  tree.files.push_back({"src/nn/a.cc", LexString("src/nn/a.cc", code)});
  tree.files.push_back(
      {"src/nn/b.cc",
       LexString("src/nn/b.cc",
                 code + "  // analyze:allow(float-eq): sparsity skip")});
  const std::vector<Violation> violations = LintOf(tree);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].file, "src/nn/a.cc");
  EXPECT_EQ(violations[0].rule, "float-eq");
}

TEST(LintPassTest, WallClockSeedingIsLeftToTheDeterminismPass) {
  // The lint pass has no wall-clock rule: time(nullptr) seeding is
  // det-raw-entropy, which also covers tools/, bench/ and tests/.
  const SourceTree tree = LintFixture({"src/seeded_violations.h"});
  std::vector<FileStructure> structures;
  for (const ScannedFile& file : tree.files) {
    structures.push_back(ScanStructure(file.lexed));
  }
  std::vector<Violation> violations;
  RunDeterminismPass(tree, structures, &violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "det-raw-entropy");
  EXPECT_EQ(violations[0].line, 15u);
  for (const Violation& v : LintOf(tree)) EXPECT_NE(v.line, 15u) << v.rule;
}

}  // namespace
}  // namespace copyattack::analyze
