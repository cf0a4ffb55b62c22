#include "store/Store.h"

#include "export/HoareChecker.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <unistd.h>

namespace hglift::store {

namespace fs = std::filesystem;

namespace {

std::string hex16(uint64_t V) {
  char Buf[17];
  snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

uint64_t contentDigest(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::optional<std::vector<uint8_t>> readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof())
    return std::nullopt;
  return Bytes;
}

/// Atomic publish: write to a unique tempfile in Dir, then rename onto
/// Name. A concurrent reader sees the old file or the new one, never a
/// torn write; concurrent writers of the same name race benignly (last
/// rename wins, both contents are valid).
bool writeFileAtomic(const fs::path &Dir, const std::string &Name,
                     const void *Data, size_t Size) {
  static std::atomic<uint64_t> Counter{0};
  fs::path Tmp = Dir / (".tmp-" + std::to_string(getpid()) + "-" +
                        std::to_string(Counter.fetch_add(1)));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(static_cast<const char *>(Data), Size);
    if (!Out.good())
      return false;
  }
  std::error_code EC;
  fs::rename(Tmp, Dir / Name, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return false;
  }
  return true;
}

} // namespace

CacheStore::CacheStore(Options O) : Opt(std::move(O)) {
  std::error_code EC;
  fs::create_directories(fs::path(Opt.Dir) / "objects", EC);
  fs::create_directories(fs::path(Opt.Dir) / "index", EC);
}

std::optional<hg::FunctionResult>
CacheStore::lookup(const elf::BinaryImage &Img, const hg::LiftConfig &Cfg,
                   uint64_t Entry) {
  std::optional<hg::FunctionResult> R = lookupImpl(Img, Cfg, Entry);
  std::lock_guard<std::mutex> G(Mu);
  if (R)
    ++Stats.Hits;
  else
    ++Stats.Misses;
  return R;
}

std::optional<hg::FunctionResult>
CacheStore::lookupImpl(const elf::BinaryImage &Img, const hg::LiftConfig &Cfg,
                       uint64_t Entry) {
  fs::path Ref = fs::path(Opt.Dir) / "index" /
                 (hex16(Entry) + "-" + hex16(configDigest(Cfg)) + ".ref");
  std::optional<std::vector<uint8_t>> RefBytes = readFile(Ref);
  if (!RefBytes)
    return std::nullopt;
  std::string Digest(RefBytes->begin(), RefBytes->end());
  while (!Digest.empty() && (Digest.back() == '\n' || Digest.back() == ' '))
    Digest.pop_back();
  if (Digest.size() != 16 ||
      Digest.find_first_not_of("0123456789abcdef") != std::string::npos)
    return std::nullopt;

  fs::path Obj = fs::path(Opt.Dir) / "objects" / (Digest + ".hgfn");
  std::optional<std::vector<uint8_t>> Bytes = readFile(Obj);
  if (!Bytes)
    return std::nullopt;

  // Gate on the header before paying for deserialization: schema +
  // semantics versions and the whole-entry checksum (readHeader), then
  // the identity and content digests against the *current* image.
  EntryHeader H;
  if (!readHeader(*Bytes, H))
    return std::nullopt;
  if (H.Entry != Entry || H.ConfigDigest != configDigest(Cfg))
    return std::nullopt;
  std::optional<uint64_t> BD = byteDigest(Img, H.Spans);
  if (!BD || *BD != H.ByteDigest)
    return std::nullopt;

  std::optional<hg::FunctionResult> F =
      deserializeFunction(*Bytes, Img, Cfg);
  if (!F)
    return std::nullopt;

  // Never trust the stored graph: re-prove every edge (the paper's
  // Step-2, one theorem per edge). This also covers byte dependencies the
  // spans cannot see, e.g. jump-table rodata — re-running the semantics
  // re-reads them from the current image.
  exporter::CheckResult CR =
      exporter::checkFunction(exporter::CheckContext{Img, Cfg.Sym}, *F);
  {
    std::lock_guard<std::mutex> G(Mu);
    if (!CR.allProven()) {
      ++Stats.ValidationFailures;
      return std::nullopt;
    }
    ++Stats.Validated;
  }
  F->Reproven = CR.Theorems;

  // LRU touch: refresh the object's mtime so the byte-budget sweep
  // removes cold entries first.
  std::error_code EC;
  fs::last_write_time(Obj, fs::file_time_type::clock::now(), EC);
  return F;
}

void CacheStore::store(const elf::BinaryImage &Img, const hg::LiftConfig &Cfg,
                       const hg::FunctionResult &F) {
  if (F.Outcome != hg::LiftOutcome::Lifted)
    return;
  std::vector<Span> Spans = instructionSpans(F);
  if (!byteDigest(Img, Spans))
    return; // spans not mapped (should not happen for a lifted result)

  std::vector<uint8_t> Bytes = serializeFunction(F, Img, Cfg);
  std::string Digest = hex16(contentDigest(Bytes));

  fs::path Objects = fs::path(Opt.Dir) / "objects";
  fs::path Index = fs::path(Opt.Dir) / "index";
  if (!writeFileAtomic(Objects, Digest + ".hgfn", Bytes.data(), Bytes.size()))
    return;
  std::string RefContent = Digest + "\n";
  std::string RefName =
      hex16(F.Entry) + "-" + hex16(configDigest(Cfg)) + ".ref";
  if (!writeFileAtomic(Index, RefName, RefContent.data(), RefContent.size()))
    return;

  {
    std::lock_guard<std::mutex> G(Mu);
    ++Stats.Stored;
  }
  if (Opt.MaxBytes > 0)
    evictOverBudget();
}

void CacheStore::evictOverBudget() {
  std::error_code EC;
  struct ObjInfo {
    fs::path Path;
    uint64_t Size;
    fs::file_time_type MTime;
  };
  std::vector<ObjInfo> Objs;
  uint64_t Total = 0;
  for (const fs::directory_entry &E :
       fs::directory_iterator(fs::path(Opt.Dir) / "objects", EC)) {
    if (EC)
      return;
    if (E.path().filename().string().rfind(".tmp-", 0) == 0)
      continue;
    std::error_code SEC;
    uint64_t Size = E.file_size(SEC);
    fs::file_time_type MT = E.last_write_time(SEC);
    if (SEC)
      continue;
    Objs.push_back({E.path(), Size, MT});
    Total += Size;
  }
  if (Total <= Opt.MaxBytes)
    return;
  std::sort(Objs.begin(), Objs.end(), [](const ObjInfo &A, const ObjInfo &B) {
    return A.MTime < B.MTime;
  });
  uint64_t Evicted = 0;
  for (const ObjInfo &O : Objs) {
    if (Total <= Opt.MaxBytes)
      break;
    std::error_code REC;
    if (fs::remove(O.Path, REC) && !REC) {
      Total -= O.Size;
      ++Evicted;
    }
  }
  if (Evicted) {
    std::lock_guard<std::mutex> G(Mu);
    Stats.Evictions += Evicted;
  }
}

CacheStats CacheStore::stats() const {
  std::lock_guard<std::mutex> G(Mu);
  return Stats;
}

} // namespace hglift::store
