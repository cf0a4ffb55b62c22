#include "support/Format.h"

#include <cstdio>

namespace hglift {

std::string hexStr(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

std::string dispStr(int64_t V) {
  if (V == 0)
    return "";
  char Buf[32];
  if (V < 0)
    std::snprintf(Buf, sizeof(Buf), "-0x%llx",
                  static_cast<unsigned long long>(-V));
  else
    std::snprintf(Buf, sizeof(Buf), "+0x%llx",
                  static_cast<unsigned long long>(V));
  return Buf;
}

std::string hmsStr(double Seconds) {
  if (Seconds < 0)
    Seconds = 0;
  uint64_t S = static_cast<uint64_t>(Seconds + 0.5);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu:%02llu:%02llu",
                static_cast<unsigned long long>(S / 3600),
                static_cast<unsigned long long>((S / 60) % 60),
                static_cast<unsigned long long>(S % 60));
  return Buf;
}

std::string padLeft(const std::string &S, size_t W) {
  if (S.size() >= W)
    return S;
  return std::string(W - S.size(), ' ') + S;
}

std::string padRight(const std::string &S, size_t W) {
  if (S.size() >= W)
    return S;
  return S + std::string(W - S.size(), ' ');
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  for (size_t Pos = 0, Comma; Pos <= S.size(); Pos = Comma + 1) {
    Comma = std::min(S.find(',', Pos), S.size());
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
  }
  return Out;
}

std::string groupedStr(uint64_t V) {
  std::string Raw = std::to_string(V);
  std::string Out;
  size_t N = Raw.size();
  for (size_t I = 0; I < N; ++I) {
    if (I != 0 && (N - I) % 3 == 0)
      Out += ' ';
    Out += Raw[I];
  }
  return Out;
}

} // namespace hglift
