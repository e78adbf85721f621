#include "util/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace ab {

void write_file_atomic(const std::string& path, const void* data,
                       std::size_t n) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  bool written = false;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    AB_REQUIRE(os.good(), "write_file_atomic: cannot open " + tmp);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n));
    os.flush();
    written = os.good();
  }
  if (!written || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    AB_REQUIRE(false, written ? "write_file_atomic: cannot rename " + tmp +
                                    " over " + path
                              : "write_file_atomic: write failed on " + tmp);
  }
}

}  // namespace ab
