// Quickstart: the 60-second tour of FaultLab's public API.
//
//   1. Compile a mini-C program through the full pipeline.
//   2. Run it on both execution engines (IR interpreter, x86 simulator).
//   3. Inject one fault with each tool (LLFI at the IR level, PINFI at the
//      assembly level) and classify the outcome.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"

int main() {
  using namespace faultlab;

  const char* source = R"(
    int primes[32];
    int main() {
      int count = 0;
      int n = 2;
      while (count < 32) {
        int is_prime = 1;
        int d;
        for (d = 2; d * d <= n; d++) {
          if (n % d == 0) { is_prime = 0; break; }
        }
        if (is_prime) { primes[count] = n; count++; }
        n++;
      }
      print_int(primes[31]);    // the 32nd prime: 131
      long sum = 0;
      int i;
      for (i = 0; i < 32; i++) sum += primes[i];
      print_int(sum);
      return 0;
    }
  )";

  // 1. Compile: frontend -> optimizer -> backend, one call.
  driver::CompiledProgram prog = driver::compile(source, "primes");
  std::cout << "compiled: " << prog.module().functions().size()
            << " IR functions, " << prog.program().code.size()
            << " machine instructions\n";
  std::cout << "optimizer: " << prog.opt_stats().instructions_before << " -> "
            << prog.opt_stats().instructions_after << " IR instructions, "
            << prog.opt_stats().phis_after << " phis created\n\n";

  // 2. Execute on both engines.
  const vm::RunResult ir_run = prog.run_ir();
  const x86::SimResult asm_run = prog.run_asm();
  std::cout << "golden output (both engines agree: "
            << (ir_run.output == asm_run.output ? "yes" : "NO") << ")\n"
            << ir_run.output << "\n";

  // 3. Inject one fault with each tool.
  fault::LlfiEngine llfi(prog.module());
  fault::PinfiEngine pinfi(prog.program());

  Rng rng(2014);  // the year of the paper
  // profile_all() is each engine's one fault-free run: golden output,
  // category counts and checkpoint snapshots.
  const std::uint64_t llfi_targets = llfi.profile_all()[ir::Category::All];
  const std::uint64_t pinfi_targets = pinfi.profile_all()[ir::Category::All];
  std::cout << "dynamic injection targets ('all'): LLFI " << llfi_targets
            << ", PINFI " << pinfi_targets << "\n\n";

  Rng trial1 = rng.fork();
  const fault::TrialRecord l =
      llfi.inject(ir::Category::All, rng.range(1, llfi_targets), trial1);
  std::cout << "LLFI  trial: flipped bit " << l.bit << " of dynamic instr #"
            << l.dynamic_target << " -> " << fault::outcome_name(l.outcome)
            << "\n";

  Rng trial2 = rng.fork();
  const fault::TrialRecord p =
      pinfi.inject(ir::Category::All, rng.range(1, pinfi_targets), trial2);
  std::cout << "PINFI trial: flipped bit " << p.bit << " of dynamic instr #"
            << p.dynamic_target << " -> " << fault::outcome_name(p.outcome)
            << "\n";
  return 0;
}
