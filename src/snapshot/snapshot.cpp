#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstring>

namespace cheriot::snapshot
{

Writer &
SnapshotWriter::beginSection(const std::string &name)
{
    if (open_) {
        endSection();
    }
    currentName_ = name;
    current_ = Writer{};
    open_ = true;
    return current_;
}

void
SnapshotWriter::endSection()
{
    if (!open_) {
        return;
    }
    std::vector<uint8_t> payload = current_.take();
    const uint32_t crc = crc32(payload.data(), payload.size());
    sections_.push_back({currentName_, std::move(payload), crc});
    open_ = false;
}

namespace
{

/** The image layout ahead of the payloads: the header, and one
 * manifest entry before each section's payload. */
void
putHeader(Writer &out, size_t sectionCount)
{
    out.u32(kSnapshotMagic);
    out.u32(kSnapshotVersion);
    out.u32(static_cast<uint32_t>(sectionCount));
}

void
putEntry(Writer &out, const std::string &name, size_t payloadSize,
         uint32_t payloadCrc)
{
    out.str(name);
    out.u32(static_cast<uint32_t>(payloadSize));
    out.u32(payloadCrc);
}

/** crc32 of @p bytes' buffer, continuing @p seed. */
uint32_t
crcOf(const Writer &bytes, uint32_t seed = 0)
{
    return crc32(bytes.buffer().data(), bytes.size(), seed);
}

} // namespace

uint32_t
SnapshotWriter::imageCrc()
{
    endSection();
    Writer header;
    putHeader(header, sections_.size());
    uint32_t crc = crcOf(header);
    for (const Section &section : sections_) {
        Writer entry;
        putEntry(entry, section.name, section.payload.size(), section.crc);
        crc = crc32Combine(crcOf(entry, crc), section.crc,
                           section.payload.size());
    }
    return crc;
}

SnapshotImage
SnapshotWriter::finish()
{
    const uint32_t crc = imageCrc();
    Writer out;
    putHeader(out, sections_.size());
    for (const Section &section : sections_) {
        putEntry(out, section.name, section.payload.size(), section.crc);
        out.bytes(section.payload.data(), section.payload.size());
    }
    out.u32(crc);
    SnapshotImage image;
    image.data = out.take();
    sections_.clear();
    return image;
}

SnapshotReader::SnapshotReader(const SnapshotImage &image) : image_(image)
{
    const size_t size = image.data.size();
    // Smallest possible image: header (12) + image CRC (4).
    if (size < 16) {
        error_ = "image too small";
        return;
    }
    Reader trailer(image.data.data() + size - 4, 4);
    const uint32_t storedCrc = trailer.u32();
    if (crc32(image.data.data(), size - 4) != storedCrc) {
        error_ = "image CRC mismatch";
        return;
    }
    Reader r(image.data.data(), size - 4);
    if (r.u32() != kSnapshotMagic) {
        error_ = "bad magic";
        return;
    }
    const uint32_t version = r.u32();
    if (version != kSnapshotVersion) {
        error_ = "unsupported version " + std::to_string(version);
        return;
    }
    const uint32_t count = r.u32();
    for (uint32_t i = 0; i < count; ++i) {
        Entry entry;
        entry.name = r.str();
        entry.size = r.u32();
        const uint32_t sectionCrc = r.u32();
        if (!r.ok() || r.remaining() < entry.size) {
            error_ = "truncated manifest";
            return;
        }
        entry.offset = (size - 4) - r.remaining();
        if (crc32(image.data.data() + entry.offset, entry.size) !=
            sectionCrc) {
            error_ = "section '" + entry.name + "' CRC mismatch";
            return;
        }
        r.skip(entry.size);
        entries_.push_back(entry);
        names_.push_back(entry.name);
    }
    if (!r.exhausted()) {
        error_ = "trailing bytes after manifest";
        return;
    }
    valid_ = true;
}

bool
SnapshotReader::hasSection(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name) {
            return true;
        }
    }
    return false;
}

Reader
SnapshotReader::section(const std::string &name) const
{
    if (valid_) {
        for (const Entry &entry : entries_) {
            if (entry.name == name) {
                return Reader(image_.data.data() + entry.offset,
                              entry.size);
            }
        }
    }
    // Missing section: an empty reader whose first read latches !ok().
    return Reader(nullptr, 0);
}

bool
saveImageToFile(const SnapshotImage &image, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return false;
    }
    const size_t written =
        image.data.empty()
            ? 0
            : std::fwrite(image.data.data(), 1, image.data.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != image.data.size() || !flushed || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
loadImageFromFile(const std::string &path, SnapshotImage *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return false;
    }
    std::vector<uint8_t> data;
    uint8_t chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
        data.insert(data.end(), chunk, chunk + got);
    }
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk) {
        return false;
    }
    SnapshotImage image;
    image.data = std::move(data);
    SnapshotReader reader(image);
    if (!reader.valid()) {
        return false;
    }
    *out = std::move(image);
    return true;
}

} // namespace cheriot::snapshot
