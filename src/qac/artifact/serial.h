/**
 * @file
 * Binary substrate of the artifact subsystem: an endian-fixed
 * (little-endian, fixed-width) byte writer/reader pair plus the
 * checksummed frame every artifact file uses:
 *
 *   magic (4 bytes) | format version (u32) | payload size (u64) |
 *   payload FNV-1a digest (u64) | payload bytes
 *
 * unframe() distinguishes the three ways a file can be unusable —
 * wrong magic, version mismatch, truncation/corruption — so callers
 * can report a structured error and fall back to recompute instead of
 * failing the compile.
 */

#ifndef QAC_ARTIFACT_SERIAL_H
#define QAC_ARTIFACT_SERIAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qac::artifact {

/**
 * Version of every artifact byte format (.qo objects and cache
 * entries).  Bump on any layout *or semantic* change — it is part of
 * the cache key, so stale entries from older toolchains never load.
 *
 * v2 (PR 9): .qo records the producing frontend key and optional
 * DIMACS decode metadata (clause list + variable<->spin map) so
 * executors can print model lines without the original source.
 */
constexpr uint32_t kArtifactFormatVersion = 2;

/** Append-only little-endian byte sink. */
class Writer
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f64(double v); ///< IEEE-754 bit pattern, little-endian

    /** u64 length prefix + raw contents. */
    void str(std::string_view s);

    void raw(const void *data, size_t size);

    const std::string &buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian reader.  Reads past the end set the
 * fail flag and return zero values; check ok() once after parsing.
 */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    double f64();
    std::string str();

    bool ok() const { return ok_; }
    size_t remaining() const { return data_.size() - pos_; }

    /** Set the fail flag for structurally invalid input, so the caller
     *  reports a malformed payload instead of acting on it. */
    void fail() { ok_ = false; }

  private:
    bool take(void *out, size_t n);

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * The ways a frame can fail to validate.  The numeric values are wire
 * ABI: the service protocol's error frames (service/wire.h) carry
 * exactly these codes for frame-level failures, so a daemon and an
 * artifact loader report the same condition with the same number.
 * Append only; never renumber.
 */
enum class FrameError : uint32_t {
    Ok = 0,
    TruncatedHeader = 1,   ///< file shorter than the fixed header
    BadMagic = 2,          ///< not this kind of artifact at all
    VersionMismatch = 3,   ///< produced by a different toolchain
    TruncatedPayload = 4,  ///< payload shorter than the header claims
    ChecksumMismatch = 5,  ///< payload bytes corrupt
};

/** Stable lowercase identifier ("ok", "bad_magic", ...). */
const char *frameErrorName(FrameError code);

/** Wrap @p payload in the checksummed artifact frame. */
std::string frame(const char magic[4], std::string_view payload);

/**
 * Validate an artifact frame and return a view of its payload.
 * On failure returns nullopt and reports the reason two ways: a
 * structured one-line message in @p error and the FrameError code in
 * @p code (both optional).
 */
std::optional<std::string_view>
unframe(std::string_view file, const char magic[4],
        std::string *error = nullptr, FrameError *code = nullptr);

} // namespace qac::artifact

#endif // QAC_ARTIFACT_SERIAL_H
