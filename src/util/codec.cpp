#include "util/codec.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace xlv::util {

namespace {

/// The strto* parsers skip leading whitespace and accept '+'; the canonical
/// renderings the encoder emits never contain either, so a strict decoder
/// must reject them explicitly (byte-stability: re-encoding a decoded value
/// must reproduce the input bytes).
bool nonCanonicalNumber(const std::string& s) {
  return s.empty() || s[0] == '+' ||
         std::isspace(static_cast<unsigned char>(s[0])) != 0;
}

std::string preview(std::string_view s, std::size_t limit = 40) {
  std::string out;
  for (char c : s.substr(0, limit)) {
    out += (c == '\n' ? ' ' : c);
  }
  if (s.size() > limit) out += "...";
  return out;
}

}  // namespace

std::string peekDocumentTag(std::string_view data) {
  const std::size_t nl = data.find('\n');
  if (nl == std::string_view::npos) {
    throw DecodeError("truncated header: '" + preview(data) + "'");
  }
  const std::string_view header = data.substr(0, nl);
  if (header.substr(0, 4) != "xlv ") {
    throw DecodeError("header mismatch: missing 'xlv ' magic in '" +
                      std::string(header) + "'");
  }
  const std::size_t tagEnd = header.rfind(" v");
  if (tagEnd == std::string_view::npos || tagEnd <= 4) {
    throw DecodeError("header mismatch: no version suffix in '" + std::string(header) +
                      "'");
  }
  return std::string(header.substr(4, tagEnd - 4));
}

// --- Encoder -----------------------------------------------------------------

Encoder::Encoder(std::string_view tag, int version) {
  out_ = "xlv ";
  out_.append(tag);
  out_ += " v";
  out_ += std::to_string(version);
  out_ += '\n';
}

void Encoder::field(std::string_view name, std::string_view payload) {
  out_.append(name);
  out_ += '=';
  out_ += std::to_string(payload.size());
  out_ += ':';
  out_.append(payload);
  out_ += '\n';
}

void Encoder::u64(std::string_view name, std::uint64_t v) { field(name, std::to_string(v)); }

void Encoder::i64(std::string_view name, std::int64_t v) { field(name, std::to_string(v)); }

void Encoder::f64(std::string_view name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  field(name, buf);
}

void Encoder::boolean(std::string_view name, bool v) { field(name, v ? "1" : "0"); }

void Encoder::str(std::string_view name, std::string_view v) { field(name, v); }

void Encoder::beginList(std::string_view name, std::size_t count) {
  std::string countName(name);
  countName += "[]";
  field(countName, std::to_string(count));
}

// --- Decoder -----------------------------------------------------------------

Decoder::Decoder(std::string_view data, std::string_view tag, int version) : data_(data) {
  const std::size_t nl = data_.find('\n');
  if (nl == std::string_view::npos) {
    throw DecodeError("truncated header: '" + preview(data_) + "'");
  }
  const std::string_view header = data_.substr(0, nl);
  std::string expected = "xlv ";
  expected.append(tag);
  expected += " v";
  expected += std::to_string(version);
  if (header != expected) {
    throw DecodeError("header mismatch: expected '" + expected + "', found '" +
                      std::string(header) + "'");
  }
  pos_ = nl + 1;
}

std::string_view Decoder::payload(std::string_view name) {
  if (pos_ >= data_.size()) {
    throw DecodeError("truncated input: expected field '" + std::string(name) +
                      "', found end of data");
  }
  const std::size_t eq = data_.find('=', pos_);
  if (eq == std::string_view::npos) {
    throw DecodeError("malformed field near '" + preview(data_.substr(pos_)) + "'");
  }
  const std::string_view found = data_.substr(pos_, eq - pos_);
  if (found != name) {
    throw DecodeError("field order mismatch: expected '" + std::string(name) +
                      "', found '" + std::string(found) + "'");
  }
  const std::size_t colon = data_.find(':', eq + 1);
  if (colon == std::string_view::npos) {
    throw DecodeError("truncated length prefix of field '" + std::string(name) + "'");
  }
  std::size_t len = 0;
  if (colon == eq + 1) {
    throw DecodeError("malformed length prefix of field '" + std::string(name) + "'");
  }
  for (std::size_t i = eq + 1; i < colon; ++i) {
    const char c = data_[i];
    if (c < '0' || c > '9') {
      throw DecodeError("malformed length prefix of field '" + std::string(name) + "'");
    }
    len = len * 10 + static_cast<std::size_t>(c - '0');
    if (len > data_.size()) {
      throw DecodeError("truncated payload of field '" + std::string(name) + "' (need " +
                        std::to_string(len) + " bytes)");
    }
  }
  const std::size_t start = colon + 1;
  // Need the payload plus its terminating newline.
  if (data_.size() - start < len + 1) {
    throw DecodeError("truncated payload of field '" + std::string(name) + "' (need " +
                      std::to_string(len) + " bytes)");
  }
  if (data_[start + len] != '\n') {
    throw DecodeError("length prefix of field '" + std::string(name) +
                      "' does not end at a field boundary");
  }
  pos_ = start + len + 1;
  return data_.substr(start, len);
}

std::uint64_t Decoder::u64(std::string_view name) {
  const std::string s(payload(name));
  if (nonCanonicalNumber(s) || s[0] == '-') {
    throw DecodeError("field '" + std::string(name) + "': invalid u64 '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  // Canonical-form check: re-rendering must reproduce the payload bytes
  // (rejects leading zeros and overflow along with outright garbage), so
  // encode(decode(x)) == x holds field by field.
  if (errno == ERANGE || end != s.c_str() + s.size() || std::to_string(v) != s) {
    throw DecodeError("field '" + std::string(name) + "': invalid u64 '" + s + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t Decoder::i64(std::string_view name) {
  const std::string s(payload(name));
  if (nonCanonicalNumber(s)) {
    throw DecodeError("field '" + std::string(name) + "': invalid i64 '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size() || std::to_string(v) != s) {
    throw DecodeError("field '" + std::string(name) + "': invalid i64 '" + s + "'");
  }
  return static_cast<std::int64_t>(v);
}

double Decoder::f64(std::string_view name) {
  const std::string s(payload(name));
  if (nonCanonicalNumber(s)) {
    throw DecodeError("field '" + std::string(name) + "': invalid double '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  char canonical[48];
  std::snprintf(canonical, sizeof(canonical), "%a", v);
  // Only the exact "%a" rendering (the encoder's output) is accepted:
  // decimal text, uppercase hexfloat, leading zeros and values strtod
  // saturates (1e999 -> inf) all re-render differently and are rejected.
  if (end != s.c_str() + s.size() || s != canonical) {
    throw DecodeError("field '" + std::string(name) + "': non-canonical double '" + s +
                      "' (expected the hexfloat rendering)");
  }
  return v;
}

bool Decoder::boolean(std::string_view name) {
  const std::string_view s = payload(name);
  if (s == "1") return true;
  if (s == "0") return false;
  throw DecodeError("field '" + std::string(name) + "': invalid bool '" + std::string(s) +
                    "'");
}

std::string Decoder::str(std::string_view name) { return std::string(payload(name)); }

std::size_t Decoder::beginList(std::string_view name) {
  std::string countName(name);
  countName += "[]";
  const std::size_t count = static_cast<std::size_t>(u64(countName));
  // Plausibility bound before any caller resizes a vector from this count:
  // every element contributes at least one field line of >= 5 bytes
  // ("a=0:\n"), so a count beyond remaining/4 is certainly corrupt — throw
  // a diagnostic instead of letting the caller attempt a huge allocation.
  const std::size_t remaining = data_.size() - pos_;
  if (count > remaining / 4) {
    throw DecodeError("field '" + std::string(name) + "': implausible list count " +
                      std::to_string(count) + " with " + std::to_string(remaining) +
                      " bytes of input left");
  }
  return count;
}

void Decoder::finish() const {
  if (pos_ != data_.size()) {
    throw DecodeError("trailing data after the last field: '" +
                      preview(data_.substr(pos_)) + "'");
  }
}

std::string packWords(const std::uint64_t* words, std::size_t count) {
  std::string out(count * 8, '\0');
  for (std::size_t i = 0; i < count; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[i * 8 + b] = static_cast<char>((words[i] >> (8 * b)) & 0xff);
    }
  }
  return out;
}

void unpackWords(std::string_view bytes, std::uint64_t* out, std::size_t count,
                 const char* what) {
  if (bytes.size() != count * 8) {
    throw DecodeError(std::string(what) + ": expected " + std::to_string(count * 8) +
                      " bytes, found " + std::to_string(bytes.size()));
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i * 8 + b])) << (8 * b);
    }
    out[i] = w;
  }
}

}  // namespace xlv::util
