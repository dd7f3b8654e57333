/**
 * @file
 * Versioned, checksummed system-snapshot images.
 *
 * An image is a manifest of named *sections*, one per stateful
 * component ("machine", "sram", "revoker", "kernel", …), each
 * independently CRC-protected, followed by a whole-image CRC:
 *
 *   u32 magic 'CHSN'   u32 version   u32 sectionCount
 *   sectionCount × { str name, u32 payloadSize, u32 payloadCrc,
 *                    payload bytes }
 *   u32 imageCrc       (over everything above)
 *
 * The component manifest makes partial restores and forward
 * compatibility explicit: a reader knows exactly which components an
 * image carries before touching any state, and a version bump or a
 * flipped bit is rejected up front rather than surfacing as a
 * half-restored machine.
 *
 * File writes are crash-consistent: the image is written to a
 * temporary sibling and atomically renamed over the target, so a
 * checkpoint file is either the complete old image or the complete
 * new one, never a tear.
 */

#ifndef CHERIOT_SNAPSHOT_SNAPSHOT_H
#define CHERIOT_SNAPSHOT_SNAPSHOT_H

#include "snapshot/serializer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::snapshot
{

/** Current image format version.
 * v2: quota ledger + chunk-owner map + heap-pressure counters in the
 * allocator stream; alloc-failure budget in FaultRecoveryState.
 * v3: refill-timeout counter + ARQ peer state (sequence/retransmit/
 * dedup queues) in the net-stack stream.
 * v4: object-capability table (entries, derivation tree, pending
 * revocations, counters) in the kernel stream; time-cap deferral
 * counter + slot width in the scheduler stream; monitor-action
 * counters in the watchdog stream. */
constexpr uint32_t kSnapshotVersion = 4;
/** 'CHSN' little-endian. */
constexpr uint32_t kSnapshotMagic = 0x4e534843;

/** A complete serialized system image. */
struct SnapshotImage
{
    std::vector<uint8_t> data;

    bool empty() const { return data.empty(); }
    /**
     * Digest of the image contents; state-equality when canonical.
     * The image's own trailing CRC is excluded: CRC-32 over a message
     * with its CRC appended is the fixed residue 0x2144df1c for
     * *every* valid image, which would make the digest constant. The
     * trailing CRC already covers all preceding bytes, so it *is* the
     * content digest.
     */
    uint32_t digest() const
    {
        if (data.size() < 4) {
            return crc32(data.data(), data.size());
        }
        const size_t n = data.size();
        return static_cast<uint32_t>(data[n - 4]) |
               (static_cast<uint32_t>(data[n - 3]) << 8) |
               (static_cast<uint32_t>(data[n - 2]) << 16) |
               (static_cast<uint32_t>(data[n - 1]) << 24);
    }
};

/** Builds an image section by section. */
class SnapshotWriter
{
  public:
    /** Start a named section; returns the Writer for its payload. */
    Writer &beginSection(const std::string &name);

    /** Finish the current section (computes its CRC). */
    void endSection();

    /** Section @p name, its payload laid out by @p fn(Writer &); the
     * image-level twin of SnapshotReader::section(name, fn). */
    template <class Fn> bool section(const std::string &name, Fn &&fn)
    {
        fn(beginSection(name));
        endSection();
        return true;
    }

    /**
     * The whole-image CRC that finish() appends, equal to the image's
     * digest(), without assembling the image: the CRC of the header
     * and manifest bytes joined with each section's CRC (computed by
     * endSection) through crc32Combine, so no payload is read twice.
     */
    uint32_t imageCrc();

    /** Seal the image (appends imageCrc()). */
    SnapshotImage finish();

  private:
    struct Section
    {
        std::string name;
        std::vector<uint8_t> payload;
        uint32_t crc;
    };

    std::vector<Section> sections_;
    Writer current_;
    std::string currentName_;
    bool open_ = false;
};

/**
 * Parses and validates an image: magic, version, manifest geometry,
 * per-section CRCs and the image CRC are all checked on construction;
 * valid() gates everything else.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const SnapshotImage &image);

    bool valid() const { return valid_; }
    /** Why validation failed (diagnostics). */
    const std::string &error() const { return error_; }

    /** Component manifest, in image order. */
    const std::vector<std::string> &sectionNames() const
    {
        return names_;
    }
    bool hasSection(const std::string &name) const;

    /** Reader over a section's payload; overruns latch on a missing
     * section so callers can check Reader::ok() uniformly. */
    Reader section(const std::string &name) const;

    /** Restores section @p name through @p fn(Reader &): false when
     * the section is missing, @p fn fails, or bytes are left over. */
    template <class Fn> bool section(const std::string &name, Fn &&fn) const
    {
        Reader r = section(name);
        return fn(r) && r.exhausted();
    }

  private:
    struct Entry
    {
        std::string name;
        size_t offset;
        size_t size;
    };

    const SnapshotImage &image_;
    std::vector<Entry> entries_;
    std::vector<std::string> names_;
    bool valid_ = false;
    std::string error_;
};

/** @name Crash-consistent file I/O (write-temp + atomic rename) @{ */
bool saveImageToFile(const SnapshotImage &image, const std::string &path);
/** Loads and fully validates; false on I/O error or corruption. */
bool loadImageFromFile(const std::string &path, SnapshotImage *out);
/** @} */

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_SNAPSHOT_H
