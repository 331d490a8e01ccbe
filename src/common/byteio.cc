#include "byteio.hh"

namespace cps
{

bool
writeFileParts(const std::string &path,
               std::initializer_list<std::span<const u8>> parts)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = true;
    // An empty part may have a null data(), which fwrite must not get.
    for (std::span<const u8> part : parts)
        ok = ok && (part.empty() ||
                    std::fwrite(part.data(), 1, part.size(), f) == part.size());
    // fclose flushes the stdio buffer: a small file reaches the device
    // only here, so its failure is the write's failure.
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

bool
writeFileBytes(const std::string &path, const std::vector<u8> &bytes)
{
    return writeFileParts(path, {bytes});
}

FileReader::FileReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_)
        return;
    long size = -1;
    if (std::fseek(file_, 0, SEEK_END) == 0) {
        size = std::ftell(file_);
        std::fseek(file_, 0, SEEK_SET);
    }
    if (size < 0) {
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    size_ = static_cast<size_t>(size);
}

FileReader::~FileReader()
{
    if (file_)
        std::fclose(file_);
}

bool
FileReader::read(u8 *dst, size_t n)
{
    // An empty read may have a null dst, which fread must not get.
    return file_ && (n == 0 || std::fread(dst, 1, n, file_) == n);
}

std::optional<std::vector<u8>>
readFileBytes(const std::string &path)
{
    FileReader in(path);
    if (!in.isOpen())
        return std::nullopt;
    std::vector<u8> bytes(in.size());
    if (!in.read(bytes.data(), bytes.size()))
        return std::nullopt;
    return bytes;
}

} // namespace cps
