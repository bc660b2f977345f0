#include "lorasched/io/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace lorasched::io {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path,
                       int error) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(error));
}

}  // namespace

void replace_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot create", tmp, errno);
  // Any failure past this point removes the half-written temp file.
  const auto abandon = [&](const char* what) {
    const int error = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(what, tmp, error);
  };
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      abandon("cannot write");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) abandon("cannot fsync");
  if (::close(fd) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    fail("cannot close", tmp, error);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    fail("cannot replace", path, error);
  }
}

}  // namespace lorasched::io
