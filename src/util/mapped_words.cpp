#include "util/mapped_words.h"

#include <sys/mman.h>

#include <limits>
#include <new>
#include <utility>

namespace xlv::util {

MappedWords::MappedWords(std::size_t count) {
  if (count == 0) return;
  if (count > std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t)) {
    throw std::bad_alloc();
  }
  // Populated up front: every user writes the whole table, so faulting the
  // pages in one call saves a trap per page.
  void* p = mmap(nullptr, count * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::uint64_t*>(p);
  size_ = count;
}

MappedWords::~MappedWords() { release(); }

MappedWords::MappedWords(MappedWords&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

MappedWords& MappedWords::operator=(MappedWords&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedWords::release() noexcept {
  if (data_ != nullptr) munmap(data_, size_ * sizeof(std::uint64_t));
  data_ = nullptr;
  size_ = 0;
}

}  // namespace xlv::util
