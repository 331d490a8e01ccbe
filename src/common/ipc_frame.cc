#include "ipc_frame.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <unistd.h>

#include "byteio.hh"
#include "crc32.hh"

namespace cps
{

namespace
{

constexpr char kMagic[4] = {'C', 'P', 'F', 'R'};
constexpr size_t kHeaderBytes = 4 + 4 + 4; // magic, type, payloadLen
constexpr size_t kTrailerBytes = 4;        // CRC

/** Milliseconds left until @p deadline, clamped at 0; -1 when none. */
long
remainingMs(bool have_deadline,
            std::chrono::steady_clock::time_point deadline)
{
    if (!have_deadline)
        return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    return left < 0 ? 0 : static_cast<long>(left);
}

/**
 * Reads exactly @p n bytes into @p dst, honouring the deadline.
 * @return Ok, or Eof when the stream ended after @p got_any==false and
 *         zero bytes (a clean boundary is the caller's concern)
 */
FrameReadStatus
readFully(int fd, u8 *dst, size_t n, bool have_deadline,
          std::chrono::steady_clock::time_point deadline, bool *got_any)
{
    size_t got = 0;
    while (got < n) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        // poll(2) takes an int: a longer wait is served in INT_MAX
        // slices, re-polling until the deadline itself has passed.
        long left = remainingMs(have_deadline, deadline);
        int rc = ::poll(&pfd, 1,
                        static_cast<int>(std::min<long>(left, INT_MAX)));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return FrameReadStatus::IoError;
        }
        if (rc == 0) {
            if (remainingMs(have_deadline, deadline) > 0)
                continue;
            return FrameReadStatus::Timeout;
        }
        ssize_t r = ::read(fd, dst + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return FrameReadStatus::IoError;
        }
        if (r == 0)
            return FrameReadStatus::Eof;
        got += static_cast<size_t>(r);
        if (got_any)
            *got_any = true;
    }
    return FrameReadStatus::Ok;
}

} // namespace

std::vector<u8>
encodeFrame(u32 type, const std::vector<u8> &payload)
{
    std::vector<u8> out;
    out.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
    for (char c : kMagic)
        out.push_back(static_cast<u8>(c));
    put32(out, type);
    put32(out, static_cast<u32>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    put32(out, crc32(out));
    return out;
}

void
ignoreSigpipe()
{
    ::signal(SIGPIPE, SIG_IGN);
}

bool
writeFrame(int fd, u32 type, const std::vector<u8> &payload)
{
    std::vector<u8> bytes = encodeFrame(type, payload);
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t w = ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

FrameReadStatus
readFrame(int fd, IpcFrame &out, long timeout_ms, size_t max_payload)
{
    const bool have_deadline = timeout_ms >= 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms < 0
                                                        ? 0
                                                        : timeout_ms);

    u8 header[kHeaderBytes];
    bool got_any = false;
    FrameReadStatus st = readFully(fd, header, sizeof(header),
                                   have_deadline, deadline, &got_any);
    if (st == FrameReadStatus::Eof)
        return got_any ? FrameReadStatus::Torn : FrameReadStatus::Eof;
    if (st != FrameReadStatus::Ok)
        return st;
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        return FrameReadStatus::Torn;
    u32 type = static_cast<u32>(header[4]) |
               (static_cast<u32>(header[5]) << 8) |
               (static_cast<u32>(header[6]) << 16) |
               (static_cast<u32>(header[7]) << 24);
    u32 len = static_cast<u32>(header[8]) |
              (static_cast<u32>(header[9]) << 8) |
              (static_cast<u32>(header[10]) << 16) |
              (static_cast<u32>(header[11]) << 24);
    // A pipe peer is in the same trust domain as a cache file: bound
    // the allocation before believing the declared length.
    if (size_t{len} > max_payload)
        return FrameReadStatus::Torn;

    std::vector<u8> body(size_t{len} + kTrailerBytes);
    st = readFully(fd, body.data(), body.size(), have_deadline, deadline,
                   nullptr);
    if (st == FrameReadStatus::Eof)
        return FrameReadStatus::Torn; // died mid-frame
    if (st != FrameReadStatus::Ok)
        return st;

    u32 stored = static_cast<u32>(body[body.size() - 4]) |
                 (static_cast<u32>(body[body.size() - 3]) << 8) |
                 (static_cast<u32>(body[body.size() - 2]) << 16) |
                 (static_cast<u32>(body[body.size() - 1]) << 24);
    u32 crc = crc32(header, sizeof(header));
    crc = crc32(body.data(), body.size() - kTrailerBytes, crc);
    if (crc != stored)
        return FrameReadStatus::Torn;
    out.type = type;
    out.payload.assign(body.begin(),
                       body.end() - static_cast<long>(kTrailerBytes));
    return FrameReadStatus::Ok;
}

} // namespace cps
