// MappedWords: a fixed-size array of 64-bit words in a private anonymous
// mapping, unmapped — its pages handed back to the OS — on destruction.
//
// For large tables recorded on campaign worker threads that live as long
// as a cache entry (golden traces: megabytes per analysis). Through malloc,
// such a block comes from the allocating thread's arena once glibc has
// raised its mmap threshold (it does after the first large free), and that
// arena keeps the pages after the free: every worker then holds freed
// traces of its own and peak RSS grows with the thread count. A mapping of
// its own is returned whole.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xlv::util {

class MappedWords {
 public:
  MappedWords() noexcept = default;
  /// `count` zero-initialized words, their pages mapped in up front (made
  /// for tables that are filled whole). Throws std::bad_alloc when the
  /// mapping cannot be made. Zero words map nothing.
  explicit MappedWords(std::size_t count);
  ~MappedWords();
  MappedWords(MappedWords&& other) noexcept;
  MappedWords& operator=(MappedWords&& other) noexcept;
  MappedWords(const MappedWords&) = delete;
  MappedWords& operator=(const MappedWords&) = delete;

  std::size_t size() const noexcept { return size_; }
  std::uint64_t* data() noexcept { return data_; }
  const std::uint64_t* data() const noexcept { return data_; }
  std::uint64_t& operator[](std::size_t i) noexcept { return data_[i]; }
  std::uint64_t operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  void release() noexcept;

  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace xlv::util
