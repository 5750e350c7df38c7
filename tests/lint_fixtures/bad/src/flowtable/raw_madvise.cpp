// Fixture: seeded madvise-confined violation.  Raw madvise/mmap/munmap are
// only allowed in src/util/huge_pages.hpp; this file advises its own array
// and must be flagged.
#include <sys/mman.h>

#include <cstddef>

namespace disco::flowtable {

void advise_buckets(void* buckets, std::size_t bytes) {
  (void)madvise(buckets, bytes, MADV_HUGEPAGE);  // VIOLATION
}

}  // namespace disco::flowtable
