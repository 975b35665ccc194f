// main() for single-bench driver binaries: each bench_<name> executable
// compiles its driver .cpp (which self-registers into the Registry) together
// with this file.

#include <iostream>

#include "bench/lib/runner.hpp"

int main(int argc, char** argv) {
  try {
    return ehpc::bench::standalone_main(argc, argv);
  } catch (const ehpc::ConfigError& err) {  // a flag value that does not parse
    std::cerr << "error: " << err.what() << "\n";
    return 2;
  }
}
