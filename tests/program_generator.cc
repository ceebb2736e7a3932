#include "program_generator.h"

namespace faultlab {

namespace {

/// Helpers every program carries. sum_span walks an int* window by
/// pointer increment, rec_mix and rec_sum reach the struct array through
/// pointers (-> and indexing), and rdepth recurses a bounded number of
/// levels with live work after each return, so frames really stack.
constexpr const char* kFixedHelpers = R"(
int sum_span(int* p, int n) {
  int s = 0;
  int* end = p + n;
  while (p < end) {
    s = (s + *p) & 0xfffff;
    p = p + 1;
  }
  return s;
}

void rec_mix(struct Rec* r, int v) {
  r->a = (r->a ^ v) & 0xffff;
  r->b = r->b + (long)v * 3;
  r->c = r->c * 0.5 + (double)(v & 255);
}

long rec_sum(struct Rec* r, int n) {
  long s = 0;
  int i;
  for (i = 0; i < n; i++) s = s + r[i].a + (r + i)->b + (long)r[i].c;
  return s;
}
)";

}  // namespace

std::string ProgramGenerator::generate() {
  std::ostringstream os;
  os << "struct Rec { int a; long b; double c; };\n";
  os << "int garr[16];\n";
  os << "long gacc = 7;\n";
  os << "struct Rec recs[8];\n";
  emit_helpers(os);

  scope_ = Scope{{"i0", "i1", "i2"}, {"l0", "l1"}, {"d0", "d1"}, "garr", 15,
                 "k", true};
  os << "int main() {\n";
  os << "  int i0 = " << rng_.below(100) << ";\n";
  os << "  int i1 = " << rng_.below(100) << ";\n";
  os << "  int i2 = " << rng_.below(100) << ";\n";
  os << "  long l0 = " << rng_.below(1000) << ";\n";
  os << "  long l1 = " << rng_.below(1000) << ";\n";
  os << "  double d0 = " << rng_.below(100) << ".25;\n";
  os << "  double d1 = " << rng_.below(100) << ".5;\n";
  os << "  int k;\n  int w;\n  int* ip;\n  struct Rec* rp;\n";
  os << "  for (k = 0; k < 16; k++) garr[k] = k * " << (1 + rng_.below(9))
     << ";\n";
  os << "  for (k = 0; k < 8; k++) {\n"
     << "    recs[k].a = k * " << (1 + rng_.below(9)) << ";\n"
     << "    recs[k].b = (long)k * 1000;\n"
     << "    recs[k].c = (double)k * 0.75;\n  }\n";
  // Every big helper is called at least once.
  for (int i = 0; i < big_helpers_; ++i)
    os << "  " << int_var() << " = big" << i << "(" << int_expr(1)
       << ", garr + " << index_expr(7) << ");\n";
  const int statements = 8 + static_cast<int>(rng_.below(12));
  for (int s = 0; s < statements; ++s) {
    if (rng_.chance(0.45)) {
      emit_main_statement(os);
    } else {
      emit_statement(os, 2);
    }
  }
  os << "  print_int(i0); print_int(i1); print_int(i2);\n";
  os << "  print_int(l0); print_int(l1);\n";
  os << "  print_int((long)(d0 * 1024.0)); print_int((long)(d1 * 1024.0));\n";
  os << "  print_int(gacc);\n";
  os << "  for (k = 0; k < 16; k++) print_int(garr[k]);\n";
  os << "  for (k = 0; k < 8; k++) {\n"
     << "    print_int(recs[k].a); print_int(recs[k].b);\n"
     << "    print_int((long)(recs[k].c * 16.0));\n  }\n";
  os << "  return 0;\n}\n";
  return os.str();
}

std::string ProgramGenerator::pick(const std::vector<std::string>& names) {
  return names[rng_.below(names.size())];
}

std::string ProgramGenerator::int_expr(int depth) {
  if (depth <= 0 || rng_.chance(0.35)) {
    switch (rng_.below(scope_.calls ? 6 : 4)) {
      case 0: return int_var();
      case 1: return std::to_string(rng_.below(64));
      case 2:
        return scope_.array + "[" + int_var() + " & " +
               std::to_string(scope_.array_mask) + "]";
      case 3:
        return scope_.longs.empty() ? std::to_string(rng_.below(64))
                                    : "(int)" + long_var();
      case 4:
        return "small" + std::to_string(rng_.below(small_helpers_)) + "(" +
               int_var() + ", " + std::to_string(rng_.below(64)) + ")";
      default:
        return "recs[" + int_var() + " & 7].a";
    }
  }
  const std::string a = int_expr(depth - 1);
  const std::string b = int_expr(depth - 1);
  switch (rng_.below(8)) {
    case 0: return "(" + a + " + " + b + ")";
    case 1: return "(" + a + " - " + b + ")";
    case 2: return "(" + a + " * " + b + ")";
    case 3: return "(" + a + " & " + b + ")";
    case 4: return "(" + a + " | " + b + ")";
    case 5: return "(" + a + " ^ " + b + ")";
    case 6: return "(" + a + " >> " + std::to_string(rng_.below(8)) + ")";
    default:
      // Division guarded against zero and INT_MIN/-1.
      return "((" + a + " & 0xffff) / " + std::to_string(1 + rng_.below(9)) +
             ")";
  }
}

std::string ProgramGenerator::index_expr(unsigned mask) {
  const std::string e = int_expr(1);
  return "(" + e + " & " + std::to_string(mask) + ")";
}

std::string ProgramGenerator::cond_expr() {
  const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
  return int_expr(1) + " " + ops[rng_.below(6)] + " " + int_expr(1);
}

void ProgramGenerator::emit_helpers(std::ostringstream& os) {
  os << kFixedHelpers;
  // Non-tail recursion, at most 15 levels deep (callers mask the depth).
  os << "\nint rdepth(int n, int acc) {\n"
     << "  if (n <= 0) return acc;\n"
     << "  return rdepth(n - 1, (acc * " << (3 + rng_.below(5))
     << " + n) & 0xffff) ^ n;\n}\n";
  small_helpers_ = 1 + static_cast<int>(rng_.below(3));
  for (int i = 0; i < small_helpers_; ++i) emit_small_helper(os, i);
  big_helpers_ = 1 + static_cast<int>(rng_.below(2));
  for (int i = 0; i < big_helpers_; ++i) emit_big_helper(os, i);
}

void ProgramGenerator::emit_small_helper(std::ostringstream& os, int index) {
  // Small enough to inline; two returns make the inliner merge them
  // with a phi.
  scope_ = Scope{{"a", "b"}, {}, {}, "garr", 15, "", false};
  os << "\nint small" << index << "(int a, int b) {\n";
  if (rng_.chance(0.5))
    os << "  if (" << cond_expr() << ") return " << int_expr(1) << ";\n";
  os << "  return " << int_expr(2) << ";\n}\n";
}

void ProgramGenerator::emit_big_helper(std::ostringstream& os, int index) {
  // Far more instructions and blocks than the inliner's thresholds
  // (opt/inline.cc), so the call reaches the backend. `p` points at an
  // 8-int window of garr.
  scope_ = Scope{{"s", "t", "u"}, {"v"}, {"q"}, "p", 7, "j", false};
  os << "\nint big" << index << "(int a, int* p) {\n"
     << "  int s = a;\n  int t = p[0];\n  int u = a ^ " << rng_.below(64)
     << ";\n  long v = 0;\n  double q = 0.5;\n  int j;\n";
  const int statements = 24 + static_cast<int>(rng_.below(10));
  for (int s = 0; s < statements; ++s) emit_statement(os, 2);
  os << "  return s ^ t ^ u ^ (int)v ^ (int)q;\n}\n";
}

void ProgramGenerator::emit_statement(std::ostringstream& os, int depth) {
  switch (rng_.below(7)) {
    case 0:
      os << "  " << int_var() << " = " << int_expr(2) << ";\n";
      return;
    case 1:
      os << "  " << long_var() << " += " << int_expr(2) << ";\n";
      return;
    case 2:
      os << "  " << double_var() << " = " << double_var()
         << " * 0.5 + (double)(" << int_expr(1) << ");\n";
      return;
    case 3:
      os << "  " << scope_.array << "[" << int_var() << " & "
         << scope_.array_mask << "] = " << int_expr(2) << ";\n";
      return;
    case 4:
      os << "  if (" << cond_expr() << ") { " << int_var() << " = "
         << int_expr(1) << "; } else { gacc += 3; }\n";
      return;
    case 5: {
      // Bounded loop.
      const std::string& j = scope_.loop;
      os << "  for (" << j << " = 0; " << j << " < " << (2 + rng_.below(10))
         << "; " << j << "++) {\n";
      os << "    gacc = gacc * 3 + " << int_expr(1) << ";\n";
      os << "    gacc = gacc & 0xffffffffL;\n";
      if (depth > 0 && rng_.chance(0.4)) {
        os << "    if (" << cond_expr() << ") continue;\n";
      }
      os << "    " << int_var() << " ^= " << j << ";\n";
      os << "  }\n";
      return;
    }
    default:
      os << "  " << int_var() << " = (" << cond_expr() << ") ? "
         << int_expr(1) << " : " << int_expr(1) << ";\n";
      return;
  }
}

void ProgramGenerator::emit_main_statement(std::ostringstream& os) {
  switch (rng_.below(9)) {
    case 0:
      os << "  " << int_var() << " = big" << rng_.below(big_helpers_) << "("
         << int_expr(1) << ", garr + " << index_expr(7) << ");\n";
      return;
    case 1:
      os << "  " << long_var() << " += rdepth(" << index_expr(15) << ", "
         << int_expr(1) << ");\n";
      return;
    case 2:
      os << "  " << int_var() << " = sum_span(garr + " << index_expr(7)
         << ", 1 + " << index_expr(7) << ");\n";
      return;
    case 3:
      os << "  ip = garr + " << index_expr(7) << ";\n"
         << "  *(ip + " << index_expr(7) << ") = " << int_expr(2) << ";\n"
         << "  " << int_var() << " = ip[" << index_expr(7) << "] + *ip;\n";
      return;
    case 4:
      os << "  rp = recs + " << index_expr(7) << ";\n"
         << "  rp->a = " << int_expr(1) << ";\n"
         << "  rp->b += (long)" << int_expr(1) << ";\n"
         << "  rp->c = rp->c * 0.25 + (double)(rp->a & 0xfff);\n"
         << "  rec_mix(&recs[" << index_expr(7) << "], " << int_expr(1)
         << ");\n";
      return;
    case 5:
      os << "  " << long_var() << " = rec_sum(recs, 1 + " << index_expr(7)
         << ");\n";
      return;
    case 6:
      // A heap buffer of ints: fill, read back through the helper, free.
      os << "  ip = (int*)malloc(sizeof(int) * 8);\n"
         << "  for (k = 0; k < 8; k++) ip[k] = " << int_expr(1) << " ^ k;\n"
         << "  " << int_var() << " = sum_span(ip, 8) + ip[" << index_expr(7)
         << "];\n"
         << "  free((char*)ip);\n";
      return;
    case 7:
      // Heap structs, walked by rec_sum.
      os << "  rp = (struct Rec*)malloc(sizeof(struct Rec) * 2);\n"
         << "  rp->a = " << int_expr(1) << ";\n"
         << "  rp->b = (long)" << int_expr(1) << ";\n"
         << "  rp->c = (double)(" << index_expr(255) << ");\n"
         << "  (rp + 1)->a = rp->a * 3;\n"
         << "  (rp + 1)->b = rp->b - 7;\n"
         << "  (rp + 1)->c = rp->c * 0.5;\n"
         << "  " << long_var() << " += rec_sum(rp, 2);\n"
         << "  free((char*)rp);\n";
      return;
    default:
      // While loops whose trip counts depend on data but are bounded: a
      // countdown that steps by 1 or 2, and a pointer scan over garr.
      if (rng_.chance(0.5)) {
        os << "  w = " << index_expr(31) << ";\n"
           << "  while (w > 0) {\n"
           << "    gacc = (gacc * 5 + w) & 0xffffffffL;\n"
           << "    " << int_var() << " ^= garr[w & 15];\n"
           << "    w = w - 1 - (garr[w & 15] & 1);\n  }\n";
      } else {
        os << "  ip = garr;\n"
           << "  while (ip < garr + 16 && *ip != " << int_expr(1)
           << ") ip = ip + 1;\n"
           << "  " << int_var() << " = (int)(ip - garr);\n";
      }
      return;
  }
}

}  // namespace faultlab
