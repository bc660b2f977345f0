// Atomic file replacement for the files a running daemon rewrites in place
// (checkpoints, the --metrics-out Prometheus exposition). The contents go
// to `<path>.tmp`, are flushed and fsync'ed, and only then renamed over
// `path`, so a reader or a restart after a crash sees either the previous
// complete file or the new complete file — never a torn one.
#pragma once

#include <string>
#include <string_view>

namespace lorasched::io {

/// Replaces `path` with `contents` atomically (write temp, fsync, rename).
/// Throws std::runtime_error naming the failed step; on failure `path` is
/// untouched and the temp file is removed.
void replace_file(const std::string& path, std::string_view contents);

}  // namespace lorasched::io
