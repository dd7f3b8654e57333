/**
 * @file
 * Binary serialization primitives for system snapshots, and the
 * one-layout rule every stateful component follows.
 *
 * A component states its snapshot layout once, as
 *
 *     template <class Self, class Archive>
 *     static bool transfer(Self &self, Archive &a);
 *
 * Writer runs it over a const object to save; Reader runs it over a
 * mutable one to restore. Each archive call names one field:
 * `a.u32(self.x)` appends x when saving and assigns it when
 * restoring, so the save and restore field lists cannot drift apart.
 * Logic only the restorer needs (a geometry or name check, rebuilding
 * a host-side object) sits beside the field it guards, under
 * `if constexpr (Archive::kLoading)`. The `serialize`/`deserialize`
 * members are one-line forwarders to transfer().
 *
 * Writer appends fixed-width little-endian fields to a growable byte
 * buffer; Reader consumes them with bounds checking. Serialization is
 * *canonical*: a given logical state always produces the same bytes,
 * so byte-equality of two images is state-equality — the property the
 * snapshot round-trip invariant (save → restore → save is the
 * identity on images) and the lockstep digest comparison both rest
 * on. A CRC-32 over every section makes torn or corrupted images
 * detectable before any state is overwritten.
 *
 * Failure latches: the first overrun, refused count or mismatched
 * expect() stops the restore. Every later field keeps its value and
 * every later read yields zero, so a transfer runs to its end and
 * reports once, through ok().
 */

#ifndef CHERIOT_SNAPSHOT_SERIALIZER_H
#define CHERIOT_SNAPSHOT_SERIALIZER_H

#include "cap/capability.h"
#include "util/stats.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cheriot::snapshot
{

/** CRC-32 (IEEE, reflected) over @p size bytes, computed eight bytes
 * per step (slicing-by-8); equal to the bytewise definition. A
 * @p seed of a previous result continues that CRC. */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

/**
 * Counts the bytes a layout writes and stores nothing. Reader runs an
 * element's layout over a default element with it to learn the least
 * number of bytes one element occupies (containers inside it empty).
 */
class Sizer
{
  public:
    template <class T> void u8(const T &) { size_ += 1; }
    template <class T> void u32(const T &) { size_ += 4; }
    template <class T> void u64(const T &) { size_ += 8; }
    void b(bool) { size_ += 1; }
    void cap(const cap::Capability &) { size_ += 9; }
    template <class C, class Fn> void seq(const C &, Fn &&) { size_ += 4; }
    template <class M, class Fn> void map(const M &, Fn &&) { size_ += 4; }

    size_t size() const { return size_; }

  private:
    size_t size_ = 0;
};

class Writer
{
  public:
    static constexpr bool kLoading = false;

    /** @name Fixed-width fields. Enums and narrower or wider integers
     * are cast to the stated width. @{ */
    template <class T> void u8(T value) { put(static_cast<uint8_t>(value), 1); }
    template <class T> void u32(T value)
    {
        put(static_cast<uint32_t>(value), 4);
    }
    template <class T> void u64(T value)
    {
        put(static_cast<uint64_t>(value), 8);
    }
    void b(bool value) { u8(value ? 1 : 0); }
    /** @} */
    void bytes(const uint8_t *data, size_t size);
    /** u32 length, then the bytes. */
    void str(const std::string &value);
    void blob(const std::vector<uint8_t> &value);

    /** A capability: packed 64-bit image plus the out-of-band tag.
     * toBits()/fromBits() are exact inverses, so this is lossless. */
    void cap(const cap::Capability &value)
    {
        u64(value.toBits());
        b(value.tag());
    }

    /** A monotonic counter's current value. */
    void counter(const Counter &value) { u64(value.value()); }

    /** @name Values the restorer must already hold (geometry, names,
     * presence flags): written like any field, compared on load. @{ */
    template <class T> void expectU8(T value) { u8(value); }
    template <class T> void expectU32(T value) { u32(value); }
    void expectU64(uint64_t value) { u64(value); }
    void expectB(bool value) { b(value); }
    void expectStr(const std::string &value) { str(value); }
    /** @} */

    /** A component whose layout sits behind its serialize(). */
    template <class T> void part(const T &component)
    {
        component.serialize(*this);
    }

    /** A u32 count, then @p fn(archive, element) for each element. */
    template <class C, class Fn> void seq(const C &items, Fn &&fn)
    {
        u32(items.size());
        for (const auto &item : items) {
            fn(*this, item);
        }
    }

    /** A u32 count, then @p fn(archive, key, value) for each entry in
     * key order (std::map order, so equal maps give equal bytes). */
    template <class M, class Fn> void map(const M &items, Fn &&fn)
    {
        u32(items.size());
        for (const auto &[key, value] : items) {
            fn(*this, key, value);
        }
    }

    static constexpr bool ok() { return true; }

    const std::vector<uint8_t> &buffer() const { return buffer_; }
    std::vector<uint8_t> take() { return std::move(buffer_); }
    size_t size() const { return buffer_.size(); }

  private:
    /** The low @p size bytes of @p bits, little-endian. */
    void put(uint64_t bits, size_t size);

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
    static constexpr bool kLoading = true;

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

    /** @name Field overloads for transfer(): assign @p out, or leave
     * it untouched once the reader has failed. @{ */
    template <class T> void u8(T &out) { assign(out, u8()); }
    template <class T> void u32(T &out) { assign(out, u32()); }
    template <class T> void u64(T &out) { assign(out, u64()); }
    void b(bool &out) { assign(out, b()); }
    void str(std::string &out) { assign(out, str()); }
    void blob(std::vector<uint8_t> &out);
    void cap(cap::Capability &out) { assign(out, cap()); }
    void counter(Counter &value)
    {
        const uint64_t v = u64();
        if (ok_) {
            value.set(v);
        }
    }
    /** @} */

    /** @name Fields the restorer must already hold: fail unless the
     * image carries exactly @p want. @{ */
    template <class T> void expectU8(T want)
    {
        check(u8() == static_cast<uint8_t>(want));
    }
    template <class T> void expectU32(T want)
    {
        check(u32() == static_cast<uint32_t>(want));
    }
    void expectU64(uint64_t want) { check(u64() == want); }
    void expectB(bool want) { check(b() == want); }
    void expectStr(const std::string &want) { check(str() == want); }
    /** @} */

    /** A component whose layout sits behind its deserialize(). */
    template <class T> void part(T &component)
    {
        if (ok_ && !component.deserialize(*this)) {
            ok_ = false;
        }
    }

    /**
     * A length-prefixed container, replaced by the image's elements.
     * A count whose elements cannot fit in the bytes left is refused
     * before the container is cleared or grown; reading stops at the
     * first overrun.
     */
    template <class C, class Fn> void seq(C &items, Fn &&fn)
    {
        typename C::value_type probe{};
        const uint32_t count = admitCount([&](Sizer &s) { fn(s, probe); });
        if (!ok_) {
            return;
        }
        items.clear();
        for (uint32_t i = 0; i < count; ++i) {
            typename C::value_type item{};
            fn(*this, item);
            if (!ok_) {
                return;
            }
            items.insert(items.end(), std::move(item));
        }
    }

    /** A length-prefixed map; same count rule as seq(). */
    template <class M, class Fn> void map(M &items, Fn &&fn)
    {
        typename M::key_type probeKey{};
        typename M::mapped_type probeValue{};
        const uint32_t count =
            admitCount([&](Sizer &s) { fn(s, probeKey, probeValue); });
        if (!ok_) {
            return;
        }
        items.clear();
        for (uint32_t i = 0; i < count; ++i) {
            typename M::key_type key{};
            typename M::mapped_type value{};
            fn(*this, key, value);
            if (!ok_) {
                return;
            }
            items.insert_or_assign(items.end(), key, std::move(value));
        }
    }

    /** Latch failure (restorer-side validation). */
    void fail() { ok_ = false; }

    /** False once any read has run past the end of the span. */
    bool ok() const { return ok_; }
    /** True when every byte has been consumed (and no overrun). */
    bool exhausted() const { return ok_ && offset_ == size_; }
    size_t remaining() const { return size_ - offset_; }

  private:
    bool take(size_t count);

    template <class T, class V> void assign(T &out, V &&value)
    {
        if (ok_) {
            out = static_cast<T>(std::forward<V>(value));
        }
    }

    void check(bool match)
    {
        if (!match) {
            ok_ = false;
        }
    }

    /** Reads a count; fails unless that many elements of at least the
     * size @p measure reports fit in the bytes left. */
    template <class Measure> uint32_t admitCount(Measure &&measure)
    {
        const uint32_t count = u32();
        Sizer element;
        measure(element);
        check(count <= remaining() / std::max<size_t>(element.size(), 1));
        return count;
    }

    const uint8_t *data_;
    size_t size_;
    size_t offset_ = 0;
    bool ok_ = true;
};

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_SERIALIZER_H
