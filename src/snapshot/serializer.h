/**
 * @file
 * Binary serialization primitives for system snapshots.
 *
 * Writer appends fixed-width little-endian fields to a growable byte
 * buffer; Reader consumes them with bounds checking. Serialization is
 * *canonical*: a given logical state always produces the same bytes,
 * so byte-equality of two images is state-equality — the property the
 * snapshot round-trip invariant (save → restore → save is the
 * identity on images) and the lockstep digest comparison both rest
 * on. A CRC-32 over every section makes torn or corrupted images
 * detectable before any state is overwritten.
 */

#ifndef CHERIOT_SNAPSHOT_SERIALIZER_H
#define CHERIOT_SNAPSHOT_SERIALIZER_H

#include "cap/capability.h"
#include "util/stats.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::snapshot
{

/** CRC-32 (IEEE, reflected) over @p size bytes, computed eight bytes
 * per step (slicing-by-8); equal to the bytewise definition. A
 * @p seed of a previous result continues that CRC. */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

class Writer
{
  public:
    void u8(uint8_t value) { buffer_.push_back(value); }
    void u16(uint16_t value);
    void u32(uint32_t value);
    void u64(uint64_t value);
    void b(bool value) { u8(value ? 1 : 0); }
    void bytes(const uint8_t *data, size_t size);
    void str(const std::string &value);

    /** A capability: packed 64-bit image plus the out-of-band tag.
     * toBits()/fromBits() are exact inverses, so this is lossless. */
    void cap(const cap::Capability &value)
    {
        u64(value.toBits());
        b(value.tag());
    }

    /** A monotonic counter's current value. */
    void counter(const Counter &value) { u64(value.value()); }

    const std::vector<uint8_t> &buffer() const { return buffer_; }
    std::vector<uint8_t> take() { return std::move(buffer_); }
    size_t size() const { return buffer_.size(); }

  private:
    std::vector<uint8_t> buffer_;
};

/**
 * Bounds-checked reader over a byte span. Overruns latch the error
 * flag and yield zeros rather than touching out-of-range memory, so
 * restore paths can run to completion and check ok() once.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    bool b() { return u8() != 0; }
    void bytes(uint8_t *out, size_t size);
    void skip(size_t size);
    std::string str();

    cap::Capability cap()
    {
        const uint64_t bits = u64();
        const bool tag = b();
        return cap::Capability::fromBits(bits, tag);
    }

    void counter(Counter &value)
    {
        value.set(u64());
    }

    /** False once any read has run past the end of the span. */
    bool ok() const { return ok_; }
    /** True when every byte has been consumed (and no overrun). */
    bool exhausted() const { return ok_ && offset_ == size_; }
    size_t remaining() const { return size_ - offset_; }

  private:
    bool take(size_t count);

    const uint8_t *data_;
    size_t size_;
    size_t offset_ = 0;
    bool ok_ = true;
};

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_SERIALIZER_H
