// Versioned, length-prefixed text codec for cross-process artifacts.
//
// The campaign worker pool and socket service (campaign/dispatch.h) move
// specs and unit results between processes, and the artifact store
// (util/artifact_store.h) keeps artifacts on disk. The format must be
// (a) byte-stable — encode(decode(encode(x))) == encode(x), so results can
// be diffed and content-addressed with util/fnv.h like the in-process cache
// keys — and (b) strict: a truncated file, a version bump or a field
// written out of order is a hard DecodeError with a diagnostic, never a
// silently skewed result merged into a campaign.
//
// Wire format (text, one field per line):
//
//   xlv <tag> v<version>\n          header: domain tag + domain version
//   <name>=<len>:<payload>\n        every field, in a fixed schema order
//
// The payload is length-prefixed raw bytes (strings may contain '=' , ':'
// or newlines without escaping); numbers are rendered canonically — decimal
// for integers, hexfloat ("%a") for doubles so every finite value
// round-trips exactly. Lists are a count field named "<name>[]" followed by
// the elements' fields. The decoder checks each field's *name* against the
// schema the caller asks for, which is what rejects reordered or
// version-skewed inputs even when the header matches.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>  // std::in_range
#include <vector>

namespace xlv::util {

/// Strict decode failure: truncation, header/version mismatch, field-name
/// mismatch (reordering), or a malformed scalar rendering.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error("codec: " + what) {}
};

/// Parse the document header "xlv <tag> v<version>" and return its tag
/// without consuming any fields — how a stream multiplexing several
/// document kinds (the dispatcher's submit/status/result/heartbeat frames)
/// picks the decoder to run. Throws DecodeError on a malformed header; the
/// version is still validated by the actual Decoder afterwards.
std::string peekDocumentTag(std::string_view data);

/// Pack `count` words as little-endian 8-byte words: fixed-width binary for
/// one length-prefixed str field (byte-stable, compact, endianness-explicit).
/// A table's words are its rows in order (row-major).
std::string packWords(const std::uint64_t* words, std::size_t count);

/// Inverse of packWords into `count` words at `out`; DecodeError naming
/// `what` unless `bytes` holds exactly count * 8 bytes.
void unpackWords(std::string_view bytes, std::uint64_t* out, std::size_t count,
                 const char* what);

class Encoder {
 public:
  Encoder(std::string_view tag, int version);

  void u64(std::string_view name, std::uint64_t v);
  void i64(std::string_view name, std::int64_t v);
  /// Hexfloat rendering: exact for every finite double, byte-stable across
  /// encode→decode→encode (also accepts inf/nan).
  void f64(std::string_view name, double v);
  void boolean(std::string_view name, bool v);
  void str(std::string_view name, std::string_view v);
  /// Emit the "<name>[]" count field; the caller then encodes `count`
  /// elements' fields.
  void beginList(std::string_view name, std::size_t count);

  const std::string& out() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void field(std::string_view name, std::string_view payload);
  std::string out_;
};

class Decoder {
 public:
  /// Parses and validates the header; throws DecodeError when the magic,
  /// tag or version does not match what the caller expects.
  Decoder(std::string_view data, std::string_view tag, int version);

  std::uint64_t u64(std::string_view name);
  std::int64_t i64(std::string_view name);
  double f64(std::string_view name);
  bool boolean(std::string_view name);
  std::string str(std::string_view name);
  std::size_t beginList(std::string_view name);

  /// Asserts the input was fully consumed (rejects trailing data).
  void finish() const;

 private:
  /// Read the next "<name>=<len>:<payload>\n" entry, checking the name.
  std::string_view payload(std::string_view name);
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- field lists -------------------------------------------------------------
//
// A record's codec is written ONCE, as a visitor listing its fields in wire
// order:
//
//   template <class Ar> void fields(Ar& ar, sta::Corner& c) {
//     ar.str("corner.name", c.name);
//     ar.f64("corner.process", c.processFactor);
//     ...
//   }
//
// FieldWriter walks the list to encode and FieldReader to decode, so the two
// directions cannot drift apart: a new field is one line. A scalar keeps its
// wire type whatever its C++ type (an `int` travels as i64), and the reader
// is strict about the C++ type too: a value that does not fit its field is
// a DecodeError naming the field, never a silently wrapped value.

class FieldWriter {
 public:
  explicit FieldWriter(Encoder& e) noexcept : e_(e) {}

  template <class T>
  void u64(std::string_view name, const T& v) {
    static_assert(std::is_unsigned_v<T>);
    e_.u64(name, v);
  }
  template <class T>
  void i64(std::string_view name, const T& v) {
    static_assert(std::is_signed_v<T>);
    e_.i64(name, v);
  }
  void f64(std::string_view name, const double& v) { e_.f64(name, v); }
  void boolean(std::string_view name, const bool& v) { e_.boolean(name, v); }
  void str(std::string_view name, const std::string& v) { e_.str(name, v); }

  /// Optional: the `hasName` flag; true when the value's fields follow.
  template <class T>
  bool has(std::string_view hasName, const std::optional<T>& v) {
    e_.boolean(hasName, v.has_value());
    return v.has_value();
  }
  /// List: the "<name>[]" count, then each(element) for every element.
  template <class T, class Each>
  void list(std::string_view name, std::vector<T>& v, Each each) {
    e_.beginList(name, v.size());
    for (T& x : v) each(x);
  }
  /// A value that travels as text: render(v) here, parse(text) on read.
  template <class T, class Render, class Parse>
  void text(std::string_view name, const T& v, Render render, Parse) {
    e_.str(name, render(v));
  }
  /// An enum by its canonical name; the reader scans `values` for it.
  template <class E, class Name, std::size_t N>
  void enumeration(std::string_view name, const E& v, Name nameOf, const E (&)[N]) {
    e_.str(name, nameOf(v));
  }

 private:
  Encoder& e_;
};

class FieldReader {
 public:
  explicit FieldReader(Decoder& d) noexcept : d_(d) {}

  template <class T>
  void u64(std::string_view name, T& v) { v = fit<T>(name, d_.u64(name)); }
  template <class T>
  void i64(std::string_view name, T& v) { v = fit<T>(name, d_.i64(name)); }
  void f64(std::string_view name, double& v) { v = d_.f64(name); }
  void boolean(std::string_view name, bool& v) { v = d_.boolean(name); }
  void str(std::string_view name, std::string& v) { v = d_.str(name); }

  template <class T>
  bool has(std::string_view hasName, std::optional<T>& v) {
    v.reset();
    if (d_.boolean(hasName)) v.emplace();
    return v.has_value();
  }
  template <class T, class Each>
  void list(std::string_view name, std::vector<T>& v, Each each) {
    v = std::vector<T>(d_.beginList(name));
    for (T& x : v) each(x);
  }
  template <class T, class Render, class Parse>
  void text(std::string_view name, T& v, Render, Parse parse) {
    v = parse(d_.str(name));
  }
  template <class E, class Name, std::size_t N>
  void enumeration(std::string_view name, E& v, Name nameOf, const E (&values)[N]) {
    const std::string s = d_.str(name);
    for (const E value : values) {
      if (s == nameOf(value)) {
        v = value;
        return;
      }
    }
    throw DecodeError("field '" + std::string(name) + "': unknown value '" + s + "'");
  }

 private:
  template <class T, class V>
  static T fit(std::string_view name, V v) {
    if (!std::in_range<T>(v)) {
      throw DecodeError("field '" + std::string(name) + "': " + std::to_string(v) +
                        " does not fit a " + std::to_string(8 * sizeof(T)) + "-bit field");
    }
    return static_cast<T>(v);
  }
  Decoder& d_;
};

/// One document: the header, then `walk(writer, x)` over the record.
template <class T, class Walk>
std::string writeDocument(std::string_view tag, int version, const T& x, Walk walk) {
  Encoder e(tag, version);
  FieldWriter w(e);
  walk(w, const_cast<T&>(x));  // FieldWriter only reads what it visits
  return e.take();
}

/// The inverse: `walk(reader, x)` over a default-constructed record, then
/// Decoder::finish.
template <class T, class Walk>
T readDocument(std::string_view data, std::string_view tag, int version, Walk walk) {
  Decoder d(data, tag, version);
  FieldReader r(d);
  T x{};
  walk(r, x);
  d.finish();
  return x;
}

}  // namespace xlv::util
