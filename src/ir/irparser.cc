#include "ir/irparser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <vector>

#include "ir/verifier.h"

namespace faultlab::ir {

IrParseError::IrParseError(const std::string& message, std::size_t line)
    : std::runtime_error("IR parse error at line " + std::to_string(line) +
                         ": " + message),
      line_(line) {}

namespace {

/// Cursor over one line of IR text.
class Line {
 public:
  Line(std::string text, std::size_t number)
      : text_(std::move(text)), number_(number) {
    // Strip trailing comments ("; ...") — but not inside x"..." data. The
    // comment body is kept: label lines carry the block's source name.
    bool in_string = false;
    for (std::size_t i = 0; i < text_.size(); ++i) {
      if (text_[i] == '"') in_string = !in_string;
      if (text_[i] == ';' && !in_string) {
        std::size_t c = i + 1;
        while (c < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[c])))
          ++c;
        comment_ = text_.substr(c);
        while (!comment_.empty() &&
               std::isspace(static_cast<unsigned char>(comment_.back())))
          comment_.pop_back();
        text_.resize(i);
        break;
      }
    }
  }

  const std::string& comment() const noexcept { return comment_; }

  std::size_t number() const noexcept { return number_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const std::string& word) {
    skip_ws();
    if (text_.compare(pos_, word.size(), word) == 0) {
      const std::size_t after = pos_ + word.size();
      if (after >= text_.size() ||
          (!std::isalnum(static_cast<unsigned char>(text_[after])) &&
           text_[after] != '_' && text_[after] != '.')) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  void expect(char c, const char* what) {
    if (!consume(c)) fail(std::string("expected '") + c + "' (" + what + ")");
  }

  /// Identifier: letters, digits, '_', '.'.
  std::string ident() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.'))
      ++pos_;
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  /// Signed integer or floating literal; returns the raw spelling.
  std::string number_token() {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '+' || text_[pos_] == '-')) {
      // Allow exponent signs only right after e/E.
      if ((text_[pos_] == '+' || text_[pos_] == '-') &&
          !(text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))
        break;
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return text_.substr(start, pos_ - start);
  }

  std::string rest() {
    skip_ws();
    return text_.substr(pos_);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw IrParseError(message + " in: '" + text_ + "'", number_);
  }

 private:
  std::string text_;
  std::string comment_;
  std::size_t number_;
  std::size_t pos_ = 0;
};

class ModuleParser {
 public:
  ModuleParser(const std::string& text, const std::string& name)
      : module_(std::make_unique<Module>(name)) {
    std::size_t start = 0, line_number = 1;
    while (start <= text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines_.emplace_back(text.substr(start, end - start), line_number++);
      start = end + 1;
    }
  }

  std::unique_ptr<Module> run() {
    // Pass 1: struct declarations (so pointers to later structs resolve),
    // then struct bodies, globals, and function signatures.
    for (Line line : lines_) {
      diagnose(line, [&] {
        if (line.consume('%')) {
          const std::string name = line.ident();
          if (line.consume('=') && line.consume_word("type"))
            module_->types().declare_struct(name);
        }
      });
    }
    for (Line line : lines_)
      diagnose(line, [&] { parse_header_line(line); });
    // Pass 2: function bodies.
    parse_bodies();
    for (const auto& f : module_->functions()) f->renumber();
    verify_or_throw(*module_);
    return std::move(module_);
  }

 private:
  // -- types ---------------------------------------------------------------

  const Type* parse_type(Line& line) {
    const Type* base = nullptr;
    auto& types = module_->types();
    if (line.consume('[')) {
      const std::string count = line.number_token();
      if (!line.consume_word("x")) line.fail("expected 'x' in array type");
      const Type* elem = parse_type(line);
      line.expect(']', "array type");
      errno = 0;
      char* end = nullptr;
      const std::uint64_t n = std::strtoull(count.c_str(), &end, 10);
      if (errno == ERANGE)
        line.fail("array length '" + count + "' overflows 64 bits");
      if (end != count.c_str() + count.size() || count.empty())
        line.fail("malformed array length '" + count + "'");
      base = types.array_of(elem, n);
    } else if (line.consume('%')) {
      const std::string name = line.ident();
      base = types.struct_by_name(name);
      if (base == nullptr) line.fail("unknown struct %" + name);
    } else if (line.consume_word("void")) {
      base = types.void_type();
    } else if (line.consume_word("double")) {
      base = types.double_type();
    } else if (line.peek() == 'i') {
      const std::string word = line.ident();
      if (word.size() < 2 || word[0] != 'i')
        line.fail("expected a type, found '" + word + "'");
      const std::string bits = word.substr(1);
      if (bits != "1" && bits != "8" && bits != "16" && bits != "32" &&
          bits != "64")
        line.fail("unsupported integer type '" + word + "'");
      base = types.int_type(static_cast<unsigned>(std::stoul(bits)));
    } else {
      line.fail("expected a type");
    }
    while (line.consume('*')) base = types.ptr_to(base);
    return base;
  }

  // -- module-level entities -------------------------------------------------

  void parse_header_line(Line& line) {
    if (line.at_end()) return;
    if (line.consume('%')) {
      const std::string name = line.ident();
      if (!line.consume('=') || !line.consume_word("type")) return;
      line.expect('{', "struct body");
      std::vector<const Type*> fields;
      if (!line.consume('}')) {
        do {
          fields.push_back(parse_type(line));
        } while (line.consume(','));
        line.expect('}', "struct body");
      }
      module_->types().define_struct(module_->types().struct_by_name(name),
                                     std::move(fields));
      return;
    }
    if (line.consume('@')) {
      const std::string name = line.ident();
      line.expect('=', "global");
      if (!line.consume_word("global")) line.fail("expected 'global'");
      const Type* type = parse_type(line);
      std::vector<std::uint8_t> init;
      if (line.consume_word("zeroinitializer")) {
        init.assign(type->size_in_bytes(), 0);
      } else if (line.consume('x')) {
        line.expect('"', "hex initializer");
        const std::string rest = line.rest();
        std::size_t i = 0;
        auto nibble = [&](char c) -> int {
          if (c >= '0' && c <= '9') return c - '0';
          if (c >= 'a' && c <= 'f') return c - 'a' + 10;
          if (c >= 'A' && c <= 'F') return c - 'A' + 10;
          return -1;
        };
        while (i + 1 < rest.size() && rest[i] != '"') {
          const int hi = nibble(rest[i]), lo = nibble(rest[i + 1]);
          if (hi < 0 || lo < 0) line.fail("bad hex initializer");
          init.push_back(static_cast<std::uint8_t>(hi * 16 + lo));
          i += 2;
        }
        if (init.size() != type->size_in_bytes())
          line.fail("initializer size does not match type");
      } else {
        line.fail("expected zeroinitializer or x\"..\"");
      }
      module_->create_global(type, name, std::move(init));
      return;
    }
    const bool is_declare = line.consume_word("declare");
    const bool is_define = !is_declare && line.consume_word("define");
    if (!is_declare && !is_define) return;
    const Type* ret = parse_type(line);
    line.expect('@', "function name");
    const std::string name = line.ident();
    line.expect('(', "parameter list");
    std::vector<const Type*> params;
    if (!line.consume(')')) {
      do {
        params.push_back(parse_type(line));
        line.expect('%', "parameter name");
        line.ident();  // positional; the name is ignored
      } while (line.consume(','));
      line.expect(')', "parameter list");
    }
    module_->create_function(module_->types().func_type(ret, std::move(params)),
                             name, is_declare);
  }

  // -- function bodies ---------------------------------------------------------

  struct PendingFixup {
    Instruction* user;
    unsigned operand;
    std::string name;  // %tN placeholder to resolve
  };

  void parse_bodies() {
    Function* current = nullptr;
    BasicBlock* block = nullptr;
    for (Line line : lines_)
      diagnose(line, [&] { parse_body_line(line, current, block); });
  }

  void parse_body_line(Line& line, Function*& current, BasicBlock*& block) {
    if (line.at_end()) return;
    Line probe = line;
    if (probe.consume_word("define")) {
      parse_type(probe);
      probe.expect('@', "function name");
      const std::string name = probe.ident();
      current = module_->find_function(name);
      begin_function(*current);
      block = nullptr;
      return;
    }
    if (current == nullptr) return;
    Line closer = line;
    if (closer.consume('}')) {
      finish_function(*current);
      current = nullptr;
      return;
    }
    // Label?
    Line label = line;
    if (label.peek() != '%' && label.peek() != '@') {
      Line l2 = label;
      const std::string word = l2.ident();
      if (l2.consume(':')) {
        block = blocks_.at(word);
        return;
      }
    }
    if (block == nullptr) line.fail("instruction outside a block");
    parse_instruction(line, *current, block);
  }

  /// Runs `parse` on `line` and reports the IR classes' precondition
  /// failures (std::logic_error: an unknown label, a duplicate function,
  /// a non-constant struct index, ...) as an IrParseError at that line.
  template <typename Parse>
  static void diagnose(const Line& line, Parse&& parse) {
    try {
      parse();
    } catch (const std::logic_error& e) {
      line.fail(e.what());
    }
  }

  void begin_function(Function& fn) {
    blocks_.clear();
    values_.clear();
    fixups_.clear();
    placeholders_.clear();
    for (std::size_t i = 0; i < fn.num_args(); ++i)
      values_["arg" + std::to_string(i)] = fn.arg(i);
    // Pre-scan this function's lines for labels so forward branch targets
    // resolve; labels are unique ids (bbN) within a function.
    bool in_this = false;
    for (Line line : lines_) {
      Line probe = line;
      if (probe.consume_word("define")) {
        parse_type(probe);
        probe.expect('@', "function name");
        in_this = probe.ident() == fn.name();
        continue;
      }
      if (!in_this) continue;
      Line closer = line;
      if (closer.consume('}')) break;
      Line label = line;
      if (label.at_end() || label.peek() == '%' || label.peek() == '@')
        continue;
      Line l2 = label;
      const std::string word = l2.ident();
      // The label itself is the unique id (bbN); the stripped comment
      // carries the original human-readable block name, if any.
      if (l2.consume(':')) blocks_[word] = fn.create_block(line.comment());
    }
  }

  void finish_function(Function& fn) {
    // Resolve forward references through the placeholder arguments.
    for (const PendingFixup& fix : fixups_) {
      auto it = values_.find(fix.name);
      if (it == values_.end())
        throw IrParseError("undefined value %" + fix.name + " in @" + fn.name(),
                           0);
      if (it->second->type() != fix.user->operand(fix.operand)->type())
        throw IrParseError("%" + fix.name + " used with another type in @" +
                               fn.name(),
                           0);
      fix.user->set_operand(fix.operand, it->second);
    }
    placeholders_.clear();
  }

  // -- values -------------------------------------------------------------------

  /// Parses a value reference of the given type. Forward references get a
  /// typed placeholder resolved in finish_function.
  Value* parse_value(Line& line, const Type* type) {
    if (line.consume('%')) {
      const std::string name = line.ident();
      auto it = values_.find(name);
      if (it != values_.end()) {
        if (it->second->type() != type)
          line.fail("%" + name + " does not have the stated type");
        return it->second;
      }
      // Forward reference: typed placeholder, recorded when used.
      placeholders_.push_back(
          std::make_unique<Argument>(type, "fwd." + name, 0));
      pending_placeholder_ = name;
      return placeholders_.back().get();
    }
    if (line.consume('@')) {
      const std::string name = line.ident();
      GlobalVariable* g = module_->find_global(name);
      if (g == nullptr) line.fail("unknown global @" + name);
      return g;
    }
    if (line.consume_word("null")) {
      if (!type->is_ptr()) line.fail("null of a non-pointer type");
      return module_->const_null(type);
    }
    if (line.consume_word("true")) return module_->const_i1(true);
    if (line.consume_word("false")) return module_->const_i1(false);
    const std::string token = line.number_token();
    if (type->is_double())
      return module_->const_double(std::strtod(token.c_str(), nullptr));
    if (type->is_int())
      return module_->const_int(
          type, static_cast<std::uint64_t>(std::strtoll(token.c_str(), nullptr, 10)));
    line.fail("constant of unsupported type");
  }

  /// parse_value + fixup registration, for one operand slot.
  Value* operand(Line& line, const Type* type, std::vector<std::string>& fwd) {
    pending_placeholder_.clear();
    Value* v = parse_value(line, type);
    fwd.push_back(pending_placeholder_);
    return v;
  }

  void register_fixups(Instruction* instr,
                       const std::vector<std::string>& fwd) {
    for (unsigned i = 0; i < fwd.size(); ++i)
      if (!fwd[i].empty()) fixups_.push_back({instr, i, fwd[i]});
  }

  BasicBlock* parse_label_ref(Line& line) {
    if (!line.consume_word("label")) line.fail("expected 'label'");
    line.expect('%', "block label");
    const std::string name = line.ident();
    auto it = blocks_.find(name);
    if (it == blocks_.end()) line.fail("unknown block %" + name);
    return it->second;
  }

  // -- instructions --------------------------------------------------------------

  void parse_instruction(Line& line, Function& fn, BasicBlock* block) {
    std::string result_name;
    {
      Line probe = line;
      if (probe.consume('%')) {
        const std::string name = probe.ident();
        if (probe.consume('=')) {
          result_name = name;
          line = probe;
        }
      }
    }

    auto& types = module_->types();
    std::vector<std::string> fwd;
    Instruction* made = nullptr;

    auto finish = [&](std::unique_ptr<Instruction> instr) {
      made = block->append(std::move(instr));
      register_fixups(made, fwd);
      if (!result_name.empty()) values_[result_name] = made;
    };

    // Terminators and memory first; casts/binaries by opcode name.
    if (line.consume_word("ret")) {
      if (line.consume_word("void")) {
        finish(std::make_unique<RetInst>(types.void_type(), nullptr));
        return;
      }
      const Type* t = parse_type(line);
      Value* v = operand(line, t, fwd);
      finish(std::make_unique<RetInst>(types.void_type(), v));
      return;
    }
    if (line.consume_word("br")) {
      Line probe = line;
      if (probe.consume_word("label")) {
        line = probe;
        line.expect('%', "block label");
        const std::string name = line.ident();
        finish(std::make_unique<BranchInst>(types.void_type(),
                                            blocks_.at(name)));
        return;
      }
      const Type* t = parse_type(line);
      Value* cond = operand(line, t, fwd);
      line.expect(',', "br");
      BasicBlock* then_bb = parse_label_ref(line);
      line.expect(',', "br");
      BasicBlock* else_bb = parse_label_ref(line);
      finish(std::make_unique<BranchInst>(types.void_type(), cond, then_bb,
                                          else_bb));
      return;
    }
    if (line.consume_word("store")) {
      const Type* vt = parse_type(line);
      Value* v = operand(line, vt, fwd);
      line.expect(',', "store");
      const Type* pt = parse_type(line);
      if (!pt->is_ptr()) line.fail("store to a non-pointer");
      Value* p = operand(line, pt, fwd);
      finish(std::make_unique<StoreInst>(types.void_type(), v, p));
      return;
    }
    if (line.consume_word("load")) {
      parse_type(line);  // result type (redundant with the pointer's)
      line.expect(',', "load");
      const Type* pt = parse_type(line);
      if (!pt->is_ptr()) line.fail("load from a non-pointer");
      Value* p = operand(line, pt, fwd);
      finish(std::make_unique<LoadInst>(p, result_name));
      return;
    }
    if (line.consume_word("alloca")) {
      const Type* allocated = parse_type(line);
      finish(std::make_unique<AllocaInst>(types.ptr_to(allocated), allocated,
                                          result_name));
      return;
    }
    if (line.consume_word("getelementptr")) {
      const Type* base_type = parse_type(line);
      if (!base_type->is_ptr()) line.fail("getelementptr on a non-pointer");
      Value* base = operand(line, base_type, fwd);
      std::vector<Value*> indices;
      while (line.consume(',')) {
        const Type* it = parse_type(line);
        indices.push_back(operand(line, it, fwd));
      }
      const Type* result = GepInst::result_type(types, base_type, indices);
      finish(std::make_unique<GepInst>(result, base, std::move(indices),
                                       result_name));
      return;
    }
    if (line.consume_word("phi")) {
      const Type* t = parse_type(line);
      auto phi = std::make_unique<PhiInst>(t, result_name);
      PhiInst* raw = phi.get();
      made = block->append(std::move(phi));
      if (!result_name.empty()) values_[result_name] = made;
      unsigned index = 0;
      do {
        line.expect('[', "phi incoming");
        pending_placeholder_.clear();
        Value* v = parse_value(line, t);
        const std::string placeholder = pending_placeholder_;
        line.expect(',', "phi incoming");
        line.expect('%', "phi incoming block");
        const std::string bname = line.ident();
        line.expect(']', "phi incoming");
        raw->add_incoming(v, blocks_.at(bname));
        if (!placeholder.empty())
          fixups_.push_back({raw, index, placeholder});
        ++index;
      } while (line.consume(','));
      return;
    }
    if (line.consume_word("select")) {
      const Type* ct = parse_type(line);
      Value* c = operand(line, ct, fwd);
      line.expect(',', "select");
      const Type* tt = parse_type(line);
      Value* tv = operand(line, tt, fwd);
      line.expect(',', "select");
      const Type* ft = parse_type(line);
      Value* fv = operand(line, ft, fwd);
      finish(std::make_unique<SelectInst>(c, tv, fv, result_name));
      return;
    }
    if (line.consume_word("call")) {
      parse_type(line);  // return type (redundant)
      line.expect('@', "callee");
      const std::string callee_name = line.ident();
      Function* callee = module_->find_function(callee_name);
      if (callee == nullptr) line.fail("unknown function @" + callee_name);
      line.expect('(', "call arguments");
      std::vector<Value*> args;
      if (!line.consume(')')) {
        do {
          const Type* at = parse_type(line);
          args.push_back(operand(line, at, fwd));
        } while (line.consume(','));
        line.expect(')', "call arguments");
      }
      finish(std::make_unique<CallInst>(callee->return_type(), callee,
                                        std::move(args), result_name));
      return;
    }
    if (line.consume_word("icmp")) {
      const std::string pred = line.ident();
      const Type* t = parse_type(line);
      Value* a = operand(line, t, fwd);
      line.expect(',', "icmp");
      Value* b = operand(line, t, fwd);
      finish(std::make_unique<ICmpInst>(types.i1(), icmp_pred(line, pred), a,
                                        b, result_name));
      return;
    }
    if (line.consume_word("fcmp")) {
      const std::string pred = line.ident();
      const Type* t = parse_type(line);
      Value* a = operand(line, t, fwd);
      line.expect(',', "fcmp");
      Value* b = operand(line, t, fwd);
      finish(std::make_unique<FCmpInst>(types.i1(), fcmp_pred(line, pred), a,
                                        b, result_name));
      return;
    }

    // Casts: `<op> <type> <val> to <type>`.
    static const std::pair<const char*, Opcode> kCasts[] = {
        {"trunc", Opcode::Trunc},     {"zext", Opcode::ZExt},
        {"sext", Opcode::SExt},       {"fptosi", Opcode::FPToSI},
        {"sitofp", Opcode::SIToFP},   {"bitcast", Opcode::Bitcast},
        {"ptrtoint", Opcode::PtrToInt}, {"inttoptr", Opcode::IntToPtr},
    };
    for (const auto& [word, op] : kCasts) {
      if (line.consume_word(word)) {
        const Type* from = parse_type(line);
        Value* v = operand(line, from, fwd);
        if (!line.consume_word("to")) line.fail("expected 'to'");
        const Type* to = parse_type(line);
        finish(std::make_unique<CastInst>(op, v, to, result_name));
        return;
      }
    }

    // Binary operations: `<op> <type> <a>, <b>`.
    static const std::pair<const char*, Opcode> kBinary[] = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},   {"mul", Opcode::Mul},
        {"sdiv", Opcode::SDiv}, {"udiv", Opcode::UDiv}, {"srem", Opcode::SRem},
        {"urem", Opcode::URem}, {"and", Opcode::And},   {"or", Opcode::Or},
        {"xor", Opcode::Xor},   {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
        {"ashr", Opcode::AShr}, {"fadd", Opcode::FAdd}, {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul}, {"fdiv", Opcode::FDiv},
    };
    for (const auto& [word, op] : kBinary) {
      if (line.consume_word(word)) {
        const Type* t = parse_type(line);
        Value* a = operand(line, t, fwd);
        line.expect(',', "binary operand");
        Value* b = operand(line, t, fwd);
        finish(std::make_unique<BinaryInst>(op, a, b, result_name));
        return;
      }
    }
    line.fail("unknown instruction");
    (void)fn;
  }

  static ICmpPred icmp_pred(Line& line, const std::string& name) {
    static const std::pair<const char*, ICmpPred> kPreds[] = {
        {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},  {"slt", ICmpPred::SLT},
        {"sle", ICmpPred::SLE}, {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
        {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE}, {"ugt", ICmpPred::UGT},
        {"uge", ICmpPred::UGE},
    };
    for (const auto& [word, pred] : kPreds)
      if (name == word) return pred;
    line.fail("unknown icmp predicate " + name);
  }

  static FCmpPred fcmp_pred(Line& line, const std::string& name) {
    static const std::pair<const char*, FCmpPred> kPreds[] = {
        {"oeq", FCmpPred::OEQ}, {"one", FCmpPred::ONE}, {"olt", FCmpPred::OLT},
        {"ole", FCmpPred::OLE}, {"ogt", FCmpPred::OGT}, {"oge", FCmpPred::OGE},
    };
    for (const auto& [word, pred] : kPreds)
      if (name == word) return pred;
    line.fail("unknown fcmp predicate " + name);
  }

  std::unique_ptr<Module> module_;
  std::vector<Line> lines_;

  // Per-function state.
  std::map<std::string, BasicBlock*> blocks_;
  std::map<std::string, Value*> values_;  // "t3" / "arg0" -> value
  std::vector<PendingFixup> fixups_;
  std::vector<std::unique_ptr<Argument>> placeholders_;
  std::string pending_placeholder_;
};

}  // namespace

std::unique_ptr<Module> parse_module(const std::string& text,
                                     const std::string& name) {
  return ModuleParser(text, name).run();
}

}  // namespace faultlab::ir
