// Small file helpers shared by the checkpoint, signature, and service
// layers: whole-file reads and atomic whole-file writes.
//
// WriteFileAtomic follows the repo's crash-safety convention: write to a
// sibling "<path>.tmp" and rename() over the destination, so a reader (or a
// process killed mid-write) only ever observes the old bytes or the new
// bytes, never a torn file.

#ifndef ANDURIL_SRC_UTIL_FILE_H_
#define ANDURIL_SRC_UTIL_FILE_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace anduril {

inline bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

inline bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out << content;
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_FILE_H_
