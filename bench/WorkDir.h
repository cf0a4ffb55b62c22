//===- WorkDir.h - A private work directory for one bench run ---*- C++ -*-===//
//
// Benches that write corpus files, stores, sockets or reports put them in
// a fresh mkdtemp directory under $TMPDIR (default /tmp), removed when the
// run ends. A fixed path would be shared by a bench's smoke and full runs,
// which remove_all their stores, so under `ctest -j` one run could clear
// the other's.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_BENCH_WORKDIR_H
#define HGLIFT_BENCH_WORKDIR_H

#include <filesystem>
#include <string>
#include <system_error>

#include <stdlib.h>

namespace hglift::bench {

struct WorkDir {
  /// Empty when the directory could not be created.
  std::string Path;

  /// Creates $TMPDIR/<Prefix>.XXXXXX.
  explicit WorkDir(const std::string &Prefix) {
    std::string T =
        (std::filesystem::temp_directory_path() / (Prefix + ".XXXXXX"))
            .string();
    if (::mkdtemp(T.data()))
      Path = T;
  }
  ~WorkDir() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
  }
  WorkDir(const WorkDir &) = delete;
  WorkDir &operator=(const WorkDir &) = delete;
};

} // namespace hglift::bench

#endif // HGLIFT_BENCH_WORKDIR_H
