#include "frontend/sema.h"

#include <algorithm>
#include <cstring>

#include "frontend/lexer.h"
#include "machine/memory.h"
#include "support/bitutil.h"

namespace faultlab::mc {

const std::vector<BuiltinSpec>& builtin_specs() {
  static const std::vector<BuiltinSpec> specs = {
      {"print_int", "void print_int(long)"},
      {"print_double", "void print_double(double)"},
      {"print_char", "void print_char(int)"},
      {"print_str", "void print_str(char*)"},
      {"malloc", "char* malloc(long)"},
      {"free", "void free(char*)"},
      {"sqrt", "double sqrt(double)"},
      {"fabs", "double fabs(double)"},
      {"floor", "double floor(double)"},
  };
  return specs;
}

SemaContext::SemaContext(ir::Module& module, const TranslationUnit& tu)
    : module_(module), tu_(tu) {
  declare_structs();
  declare_builtins();
  declare_functions();
  define_globals();
}

void SemaContext::declare_structs() {
  // Two phases so that struct fields may point to any struct, including the
  // one being defined (linked data structures).
  for (const auto& s : tu_.structs) types().declare_struct(s.name);
  for (const auto& s : tu_.structs) {
    const ir::Type* declared = types().struct_by_name(s.name);
    std::vector<const ir::Type*> fields;
    std::vector<std::string> names;
    for (const auto& f : s.fields) {
      const ir::Type* ft = apply_dims(resolve(f.type, s.line), f.array_dims);
      if (ft->is_struct() && ft->struct_fields().empty())
        throw CompileError("field of incomplete struct type (use a pointer)",
                           s.line, 1);
      fields.push_back(ft);
      names.push_back(f.name);
    }
    types().define_struct(declared, std::move(fields));
    struct_field_names_[declared] = std::move(names);
  }
}

void SemaContext::declare_builtins() {
  auto& t = types();
  const ir::Type* charp = t.ptr_to(t.i8());
  auto declare = [&](const char* name, const ir::Type* ret,
                     std::vector<const ir::Type*> params) {
    module_.create_function(t.func_type(ret, std::move(params)), name,
                            /*is_builtin=*/true);
  };
  declare("print_int", t.void_type(), {t.i64()});
  declare("print_double", t.void_type(), {t.double_type()});
  declare("print_char", t.void_type(), {t.i32()});
  declare("print_str", t.void_type(), {charp});
  declare("malloc", charp, {t.i64()});
  declare("free", t.void_type(), {charp});
  declare("sqrt", t.double_type(), {t.double_type()});
  declare("fabs", t.double_type(), {t.double_type()});
  declare("floor", t.double_type(), {t.double_type()});
}

void SemaContext::declare_functions() {
  for (const auto& fn : tu_.functions) {
    if (module_.find_function(fn.name) != nullptr)
      throw CompileError("redefinition of function " + fn.name, fn.line, 1);
    std::vector<const ir::Type*> params;
    for (const auto& p : fn.params) {
      const ir::Type* pt = resolve(p.type, fn.line);
      if (!pt->is_scalar())
        throw CompileError("parameter '" + p.name + "' must be scalar "
                           "(pass aggregates by pointer)", fn.line, 1);
      params.push_back(pt);
    }
    const ir::Type* ret = resolve(fn.return_type, fn.line);
    if (!ret->is_void() && !ret->is_scalar())
      throw CompileError("function must return void or a scalar", fn.line, 1);
    module_.create_function(types().func_type(ret, std::move(params)), fn.name);
  }
}

void SemaContext::define_globals() {
  // Globals are laid out one after another between the global base and
  // the heap (machine::Layout). Their raw sizes must fit in that gap, so
  // no initializer below is larger; driver::compile checks the exact
  // layout, with padding, string literals and the double pool.
  constexpr std::uint64_t kGlobalBytes =
      machine::Layout::kHeapBase - machine::Layout::kGlobalBase;
  std::uint64_t total = 0;
  for (const auto& g : tu_.globals) {
    const ir::Type* elem = resolve(g.type, g.line);
    if (!elem->is_scalar() && !elem->is_struct())
      throw CompileError("global '" + g.name + "' has unsupported type",
                         g.line, 1);
    std::uint64_t size = elem->size_in_bytes();
    for (const std::int64_t dim : g.array_dims) {
      if (dim < 0 || (dim != 0 && size > (kGlobalBytes - total) /
                                             static_cast<std::uint64_t>(dim)))
        throw CompileError("global '" + g.name + "' is too large", g.line, 1);
      size *= static_cast<std::uint64_t>(dim);
    }
    if (size > kGlobalBytes - total)
      throw CompileError("global '" + g.name + "' is too large", g.line, 1);
    total += size;
    const ir::Type* value_type = apply_dims(elem, g.array_dims);

    std::vector<std::uint8_t> bytes(value_type->size_in_bytes(), 0);
    if (!g.init.empty()) {
      if (!g.array_dims.empty()) {
        if (g.array_dims.size() > 1)
          throw CompileError("initializer lists are 1-D only", g.line, 1);
        if (g.init.size() > static_cast<std::size_t>(g.array_dims[0]))
          throw CompileError("too many initializers for " + g.name, g.line, 1);
        const std::uint64_t esize = elem->size_in_bytes();
        for (std::size_t i = 0; i < g.init.size(); ++i)
          encode_scalar(bytes, i * esize, elem, eval_const(*g.init[i]));
      } else {
        if (g.init.size() != 1)
          throw CompileError("scalar global takes one initializer", g.line, 1);
        encode_scalar(bytes, 0, elem, eval_const(*g.init[0]));
      }
    }
    module_.create_global(value_type, g.name, std::move(bytes));
  }
}

const ir::Type* SemaContext::apply_dims(
    const ir::Type* elem, const std::vector<std::int64_t>& dims) const {
  ir::TypeContext& types = module_.types();
  const ir::Type* out = elem;
  for (auto it = dims.rbegin(); it != dims.rend(); ++it)
    out = types.array_of(out, static_cast<std::uint64_t>(*it));
  return out;
}

const ir::Type* SemaContext::resolve(const AstType& t, int line) const {
  const ir::Type* base = nullptr;
  ir::TypeContext& types = module_.types();
  switch (t.base) {
    case BaseType::Void: base = types.void_type(); break;
    case BaseType::Char: base = types.int_type(8); break;
    case BaseType::Short: base = types.int_type(16); break;
    case BaseType::Int: base = types.int_type(32); break;
    case BaseType::Long: base = types.int_type(64); break;
    case BaseType::Double: base = types.double_type(); break;
    case BaseType::Struct:
      base = types.struct_by_name(t.struct_name);
      if (base == nullptr)
        throw CompileError("unknown struct " + t.struct_name, line, 1);
      break;
  }
  if (base->is_void() && t.pointer_depth > 0)
    throw CompileError("void* is not supported; use char*", line, 1);
  for (int i = 0; i < t.pointer_depth; ++i) base = types.ptr_to(base);
  return base;
}

unsigned SemaContext::field_index(const ir::Type* struct_type,
                                  const std::string& name, int line) const {
  auto it = struct_field_names_.find(struct_type);
  if (it == struct_field_names_.end())
    throw CompileError("member access on non-struct type", line, 1);
  for (unsigned i = 0; i < it->second.size(); ++i)
    if (it->second[i] == name) return i;
  throw CompileError("struct " + struct_type->struct_name() +
                         " has no field '" + name + "'",
                     line, 1);
}

const ir::Type* SemaContext::usual_arithmetic(const ir::Type* a,
                                              const ir::Type* b) const {
  ir::TypeContext& types = module_.types();
  if (a->is_double() || b->is_double()) return types.double_type();
  const unsigned bits = std::max({a->int_bits(), b->int_bits(), 32u});
  return types.int_type(bits);
}

bool SemaContext::implicitly_convertible(const ir::Type* from,
                                         const ir::Type* to) const {
  if (from == to) return true;
  if (from->is_int() && to->is_int()) return true;
  if (from->is_int() && to->is_double()) return true;
  if (from->is_double() && to->is_int()) return true;
  return false;
}

SemaContext::ConstValue SemaContext::eval_const(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::IntLit: {
      ConstValue v;
      v.i = static_cast<std::int64_t>(e.int_value);
      return v;
    }
    case ExprKind::FloatLit: {
      ConstValue v;
      v.is_double = true;
      v.d = e.float_value;
      return v;
    }
    case ExprKind::Unary: {
      if (e.unary_op == UnaryOp::Neg) {
        ConstValue v = eval_const(*e.child(0));
        if (v.is_double)
          v.d = -v.d;
        else
          v.i = -v.i;
        return v;
      }
      break;
    }
    case ExprKind::SizeofType: {
      ConstValue v;
      v.i = static_cast<std::int64_t>(
          resolve(e.ast_type, e.line)->size_in_bytes());
      return v;
    }
    default:
      break;
  }
  throw CompileError("global initializers must be constant expressions",
                     e.line, 1);
}

void SemaContext::encode_scalar(std::vector<std::uint8_t>& bytes,
                                std::size_t offset, const ir::Type* type,
                                const ConstValue& v) const {
  std::uint64_t raw = 0;
  if (type->is_double()) {
    raw = bits_of(v.is_double ? v.d : static_cast<double>(v.i));
  } else if (type->is_int()) {
    raw = static_cast<std::uint64_t>(
        v.is_double ? static_cast<std::int64_t>(v.d) : v.i);
  } else {
    throw CompileError("unsupported global initializer target", 0, 0);
  }
  const std::size_t size = type->size_in_bytes();
  for (std::size_t b = 0; b < size; ++b)
    bytes.at(offset + b) = static_cast<std::uint8_t>(raw >> (8 * b));
}

}  // namespace faultlab::mc
