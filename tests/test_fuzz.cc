// Mutation fuzzing of the two text front doors: the mini-C compiler and
// the textual IR parser. Every mutant of a well-formed input must either
// go through (compile to machine code; parse to a verified module) or be
// rejected with a diagnostic — mc::CompileError, ir::IrParseError or the
// verifier's std::runtime_error. A crash fails the whole test binary, any
// other exception fails the test. The seeds are fixed, so a failure
// reproduces; the inputs are the six benchmarks and generated programs
// (the property tests' generator).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "frontend/codegen.h"
#include "frontend/lexer.h"
#include "ir/irparser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "program_generator.h"
#include "support/rng.h"

namespace faultlab {
namespace {

/// Applies one to three random edits: delete a short run, insert a token,
/// copy a slice of the text elsewhere, or overwrite one character.
std::string mutate(const std::string& text,
                   const std::vector<std::string>& tokens, Rng& rng) {
  static const char kChars[] = "(){}[];,.*&-+=<>!~%/^|0129xaz \n";
  std::string out = text;
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.below(out.size() + 1);
    switch (rng.below(4)) {
      case 0:
        out.erase(pos, 1 + rng.below(8));
        break;
      case 1:
        out.insert(pos, tokens[rng.below(tokens.size())]);
        break;
      case 2: {
        const std::size_t from = rng.below(out.size() + 1);
        out.insert(pos, out.substr(from, 1 + rng.below(40)));
        break;
      }
      default:
        if (pos < out.size()) out[pos] = kChars[rng.below(sizeof kChars - 1)];
        break;
    }
  }
  return out;
}

/// The six benchmarks plus `generated` programs from the generator.
std::vector<std::string> seed_sources(std::uint64_t generated) {
  std::vector<std::string> sources;
  for (const apps::Benchmark& b : apps::all_benchmarks())
    sources.push_back(b.source);
  for (std::uint64_t s = 0; s < generated; ++s)
    sources.push_back(ProgramGenerator(0xF022ull + s).generate());
  return sources;
}

TEST(MutationFuzz, CompilerRejectsOrCompilesSourceMutants) {
  const std::vector<std::string> tokens = {
      ";", "{", "}", "(", ")", "[", "]", "*", "&", "->", ".", ",", "=",
      "0", "-1", "4294967296", "int ", "long ", "double ", "char* ",
      "struct Rec ", "void ", "return ", "return;", "while (1) { }",
      "if (", "else ", "break;", "continue;", "sizeof(int)", "x", "/ 0",
      "% 0", "<< 70", "(int*)", "(double)", "main", "malloc(8)", "free(",
      "print_int(", "int f(int a) { return a; }\n"};
  const std::vector<std::string> sources = seed_sources(10);
  Rng rng(0x5EEDF022ull);
  constexpr int kMutants = 1200;
  int compiled = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& base = sources[rng.below(sources.size())];
    const std::string mutant = mutate(base, tokens, rng);
    try {
      driver::compile(mutant, "fuzz");
      ++compiled;
    } catch (const mc::CompileError&) {
    } catch (const std::runtime_error&) {  // the IR verifier
    }
  }
  // Most edits break the syntax, but not all of them.
  EXPECT_GT(compiled, 0);
}

TEST(MutationFuzz, IrParserRejectsOrParsesDumpMutants) {
  const std::vector<std::string> tokens = {
      " ", ",", "%", "@", "*", "%t0", "%t1", "%arg0", "%bb0", "bb9:\n",
      "label ", "i1 ", "i32 ", "i64 ", "double ", "i8* ", "void ",
      "[4 x i32]",      "phi ", "br ", "ret ", "ret i32 0\n", "call ", "load ", "store ",
      "alloca ", "getelementptr ", "-1", "99999999999999999999", "\n",
      "define i32 @f() {\n", "}\n"};
  std::vector<std::string> dumps;
  for (const std::string& src : seed_sources(4)) {
    dumps.push_back(ir::to_string(*mc::compile_to_ir(src, "fuzz")));
    dumps.push_back(ir::to_string(driver::compile(src, "fuzz").module()));
  }
  Rng rng(0x1EF022ull);
  constexpr int kMutants = 800;
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& base = dumps[rng.below(dumps.size())];
    const std::string mutant = mutate(base, tokens, rng);
    try {
      const std::unique_ptr<ir::Module> module = ir::parse_module(mutant);
      ir::verify_or_throw(*module);
      ++parsed;
    } catch (const std::runtime_error&) {  // IrParseError or the verifier
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace faultlab
