#include "ir/type.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace faultlab::ir {

namespace {
std::uint64_t align_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}
}  // namespace

std::uint64_t Type::size_in_bytes() const {
  switch (kind_) {
    case TypeKind::Void:
    case TypeKind::Func:
      return 0;
    case TypeKind::Int:
      return bits_ <= 8 ? 1 : bits_ / 8;
    case TypeKind::Double:
    case TypeKind::Ptr:
      return 8;
    case TypeKind::Array:
      return elem_->size_in_bytes() * count_;
    case TypeKind::Struct: {
      std::uint64_t size = 0;
      for (const Type* f : fields_) {
        size = align_up(size, f->alignment());
        size += f->size_in_bytes();
      }
      return align_up(std::max<std::uint64_t>(size, 1), alignment());
    }
  }
  return 0;
}

std::uint64_t Type::alignment() const {
  switch (kind_) {
    case TypeKind::Void:
    case TypeKind::Func:
      return 1;
    case TypeKind::Int:
      return bits_ <= 8 ? 1 : bits_ / 8;
    case TypeKind::Double:
    case TypeKind::Ptr:
      return 8;
    case TypeKind::Array:
      return elem_->alignment();
    case TypeKind::Struct: {
      std::uint64_t a = 1;
      for (const Type* f : fields_) a = std::max(a, f->alignment());
      return a;
    }
  }
  return 1;
}

std::uint64_t Type::struct_field_offset(std::size_t index) const {
  assert(is_struct() && index < fields_.size());
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i <= index; ++i) {
    offset = align_up(offset, fields_[i]->alignment());
    if (i == index) return offset;
    offset += fields_[i]->size_in_bytes();
  }
  return offset;
}

std::string Type::to_string() const {
  switch (kind_) {
    case TypeKind::Void:
      return "void";
    case TypeKind::Int: {
      // Built by appending: GCC's -Wrestrict misfires on
      // `"literal" + std::string&&`.
      std::string name = "i";
      name += std::to_string(bits_);
      return name;
    }
    case TypeKind::Double:
      return "double";
    case TypeKind::Ptr:
      return pointee_->to_string() + "*";
    case TypeKind::Array: {
      std::string name = "[";
      name += std::to_string(count_);
      name += " x ";
      name += elem_->to_string();
      name += "]";
      return name;
    }
    case TypeKind::Struct:
      return "%" + name_;
    case TypeKind::Func: {
      std::ostringstream os;
      os << return_type_->to_string() << " (";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) os << ", ";
        os << fields_[i]->to_string();
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

TypeContext::TypeContext() {
  Type* v = intern();
  v->kind_ = TypeKind::Void;
  void_ = v;
  Type* d = intern();
  d->kind_ = TypeKind::Double;
  double_ = d;
}

Type* TypeContext::intern() {
  pool_.push_back(std::unique_ptr<Type>(new Type()));
  return pool_.back().get();
}

const Type* TypeContext::int_type(unsigned bits) {
  if (bits != 1 && bits != 8 && bits != 16 && bits != 32 && bits != 64)
    throw std::invalid_argument("unsupported integer width i" + std::to_string(bits));
  for (const auto& t : pool_)
    if (t->kind_ == TypeKind::Int && t->bits_ == bits) return t.get();
  Type* t = intern();
  t->kind_ = TypeKind::Int;
  t->bits_ = bits;
  return t;
}

const Type* TypeContext::ptr_to(const Type* pointee) {
  for (const auto& t : pool_)
    if (t->kind_ == TypeKind::Ptr && t->pointee_ == pointee) return t.get();
  Type* t = intern();
  t->kind_ = TypeKind::Ptr;
  t->pointee_ = pointee;
  return t;
}

const Type* TypeContext::array_of(const Type* element, std::uint64_t count) {
  for (const auto& t : pool_)
    if (t->kind_ == TypeKind::Array && t->elem_ == element && t->count_ == count)
      return t.get();
  Type* t = intern();
  t->kind_ = TypeKind::Array;
  t->elem_ = element;
  t->count_ = count;
  return t;
}

const Type* TypeContext::make_struct(std::string name,
                                     std::vector<const Type*> fields) {
  const Type* t = declare_struct(std::move(name));
  define_struct(t, std::move(fields));
  return t;
}

const Type* TypeContext::declare_struct(std::string name) {
  if (struct_by_name(name) != nullptr)
    throw std::invalid_argument("duplicate struct name: " + name);
  Type* t = intern();
  t->kind_ = TypeKind::Struct;
  t->name_ = std::move(name);
  return t;
}

void TypeContext::define_struct(const Type* declared,
                                std::vector<const Type*> fields) {
  assert(declared->is_struct());
  for (const auto& t : pool_) {
    if (t.get() == declared) {
      if (!t->fields_.empty())
        throw std::invalid_argument("struct defined twice: " + t->name_);
      t->fields_ = std::move(fields);
      return;
    }
  }
  throw std::invalid_argument("struct from another context");
}

const Type* TypeContext::struct_by_name(const std::string& name) const noexcept {
  for (const auto& t : pool_)
    if (t->kind_ == TypeKind::Struct && t->name_ == name) return t.get();
  return nullptr;
}

std::vector<const Type*> TypeContext::struct_types() const {
  std::vector<const Type*> out;
  for (const auto& t : pool_)
    if (t->is_struct()) out.push_back(t.get());
  return out;
}

const Type* TypeContext::func_type(const Type* ret,
                                   std::vector<const Type*> params) {
  for (const auto& t : pool_)
    if (t->kind_ == TypeKind::Func && t->return_type_ == ret && t->fields_ == params)
      return t.get();
  Type* t = intern();
  t->kind_ = TypeKind::Func;
  t->return_type_ = ret;
  t->fields_ = std::move(params);
  return t;
}

}  // namespace faultlab::ir
