/**
 * @file
 * Little-endian byte serialization helpers shared by the object-file
 * and compressed-image file formats: bounds-checked reading, appending
 * writers, raw little-endian loads and stores for loops that have
 * already validated their bounds, and whole-file I/O.
 */

#ifndef CPS_COMMON_BYTEIO_HH
#define CPS_COMMON_BYTEIO_HH

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "types.hh"

namespace cps
{

inline void
put8(std::vector<u8> &out, u8 v)
{
    out.push_back(v);
}

inline void
put16(std::vector<u8> &out, u16 v)
{
    out.push_back(static_cast<u8>(v));
    out.push_back(static_cast<u8>(v >> 8));
}

inline void
put32(std::vector<u8> &out, u32 v)
{
    put16(out, static_cast<u16>(v));
    put16(out, static_cast<u16>(v >> 16));
}

inline void
put64(std::vector<u8> &out, u64 v)
{
    put32(out, static_cast<u32>(v));
    put32(out, static_cast<u32>(v >> 32));
}

/**
 * Reads the little-endian u32 at @p p. Unchecked and alignment-free: the
 * caller has validated that four bytes are there. Compilers fold the
 * shifts into one load on little-endian hosts.
 */
inline u32
loadLe32(const u8 *p)
{
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

/** Writes @p v little-endian at @p p (unchecked, alignment-free). */
inline void
storeLe32(u8 *p, u32 v)
{
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
    p[2] = static_cast<u8>(v >> 16);
    p[3] = static_cast<u8>(v >> 24);
}

/** Bounds-checked little-endian reader over a byte vector. */
class ByteCursor
{
  public:
    explicit ByteCursor(const std::vector<u8> &bytes) : bytes_(bytes) {}

    bool ok() const { return ok_; }

    u8
    get8()
    {
        if (pos_ + 1 > bytes_.size()) {
            ok_ = false;
            return 0;
        }
        return bytes_[pos_++];
    }

    u16
    get16()
    {
        u16 lo = get8();
        u16 hi = get8();
        return static_cast<u16>(lo | (hi << 8));
    }

    u32
    get32()
    {
        u32 lo = get16();
        u32 hi = get16();
        return lo | (hi << 16);
    }

    u64
    get64()
    {
        u64 lo = get32();
        u64 hi = get32();
        return lo | (hi << 32);
    }

    std::vector<u8>
    getBytes(size_t n)
    {
        if (pos_ + n > bytes_.size()) {
            ok_ = false;
            return {};
        }
        std::vector<u8> out(bytes_.begin() + static_cast<long>(pos_),
                            bytes_.begin() + static_cast<long>(pos_ + n));
        pos_ += n;
        return out;
    }

    std::string
    getString(size_t n)
    {
        auto raw = getBytes(n);
        return std::string(raw.begin(), raw.end());
    }

    bool
    expectMagic(const char *magic, size_t n)
    {
        auto raw = getBytes(n);
        if (!ok_ || raw.size() != n ||
            std::memcmp(raw.data(), magic, n) != 0) {
            ok_ = false;
            return false;
        }
        return true;
    }

    size_t remaining() const { return bytes_.size() - pos_; }

    /** Byte offset of the next read (for error reports and CRC spans). */
    size_t pos() const { return pos_; }

  private:
    const std::vector<u8> &bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Writes @p parts to @p path back to back, so a file assembled from a
 * header, a large body and a trailer needs no concatenated copy.
 * @return false when the file cannot be created, any write falls short,
 *         or closing it (the final flush) fails
 */
bool writeFileParts(const std::string &path,
                    std::initializer_list<std::span<const u8>> parts);

/** Writes @p bytes to @p path. @return false on I/O failure. */
bool writeFileBytes(const std::string &path, const std::vector<u8> &bytes);

/**
 * A file opened for sequential reads, each of which must be satisfied in
 * full. Lets a caller read a file's parts straight into their own
 * buffers instead of copying them out of a whole-file one.
 */
class FileReader
{
  public:
    explicit FileReader(const std::string &path);
    ~FileReader();
    FileReader(const FileReader &) = delete;
    FileReader &operator=(const FileReader &) = delete;

    /** False when the file could not be opened or sized. */
    bool isOpen() const { return file_ != nullptr; }

    /** Size of the file in bytes, taken when it was opened. */
    size_t size() const { return size_; }

    /** Reads the next @p n bytes into @p dst. @return false on a short read */
    bool read(u8 *dst, size_t n);

  private:
    std::FILE *file_ = nullptr;
    size_t size_ = 0;
};

/** Reads all of @p path; nullopt on failure. */
std::optional<std::vector<u8>> readFileBytes(const std::string &path);

} // namespace cps

#endif // CPS_COMMON_BYTEIO_HH
