// Shared scaffolding for the parser fuzz targets (tools/fuzz/).
//
// Every strict parser in the project takes a file path, so each iteration
// dumps the fuzz input to one per-process scratch file and hands the parser
// that path. The targets build in two modes:
//
//   * libFuzzer (-DSPIDER_FUZZ_LIBFUZZER=ON, clang): the CI sanitize job
//     runs each target for a 30 s smoke budget over the checked-in corpus
//     plus the bench/data reference files.
//   * standalone (default, any compiler): main() below replays every file
//     (or directory of files) given on argv through the same
//     LLVMFuzzerTestOneInput, so the corpus doubles as a ctest regression
//     suite on toolchains without libFuzzer.
//
// Oracle conventions: strict parsers reject malformed input with
// std::runtime_error / std::invalid_argument naming the offender — those
// are caught and ignored. Anything else escaping (SPIDER_ASSERT's
// AssertionError, std::bad_alloc from an unvalidated length, a sanitizer
// report, a crash) is a finding.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <unistd.h>

namespace spider_fuzz {

/// The per-process scratch file dump_input() writes (empty before its
/// first call).
inline std::string& scratch_path() {
  static std::string path;
  return path;
}

/// Writes the input to a per-process scratch file and returns its path.
inline const std::string& dump_input(const std::uint8_t* data,
                                     std::size_t size, const char* ext) {
  std::string& path = scratch_path();
  if (path.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    path = std::string(tmp != nullptr ? tmp : "/tmp") + "/spider_fuzz_" +
           std::to_string(::getpid()) + ext;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("fuzz: cannot open " + path);
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    std::fclose(f);
    throw std::runtime_error("fuzz: short write to " + path);
  }
  std::fclose(f);
  return path;
}

/// True for the exception types the strict parsers are specified to throw
/// on malformed input; everything else is a bug the fuzzer should surface.
template <typename Fn>
void expect_parse_or_reject(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {  // documented rejection
  } catch (const std::runtime_error&) {     // documented rejection
  }
  // AssertionError (std::logic_error), bad_alloc, ... propagate: the parser
  // let malformed input reach an internal invariant instead of rejecting it.
}

}  // namespace spider_fuzz

#ifdef SPIDER_FUZZ_STANDALONE
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

/// Corpus replay driver: each argv entry is a file or a directory of files.
int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p))
        if (e.is_regular_file()) inputs.push_back(e.path().string());
    } else {
      inputs.push_back(p.string());
    }
  }
  std::sort(inputs.begin(), inputs.end());
  // The replay leaves no scratch file behind, on either exit.
  struct RemoveScratch {
    ~RemoveScratch() {
      if (!spider_fuzz::scratch_path().empty())
        std::remove(spider_fuzz::scratch_path().c_str());
    }
  } remove_scratch;
  for (const std::string& in : inputs) {
    std::ifstream file(in, std::ios::binary);
    if (!file) {
      std::cerr << "fuzz: cannot read " << in << "\n";
      return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    std::cout << "ok " << in << " (" << bytes.size() << " bytes)\n";
  }
  std::cout << inputs.size() << " corpus inputs replayed\n";
  return 0;
}
#endif  // SPIDER_FUZZ_STANDALONE
