// Fixture: a raw madvise in the one file allowed to hold it -- the
// huge-page allocator.  madvise-confined must stay quiet here (suffix match
// against MADVISE_ALLOWED_FILES).
#pragma once

#include <sys/mman.h>

#include <cstddef>

namespace disco::util {

inline void advise_whole_pages(void* p, std::size_t bytes) {
  (void)madvise(p, bytes, MADV_HUGEPAGE);
}

}  // namespace disco::util
