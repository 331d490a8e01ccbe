/**
 * @file
 * CRC'd message framing for the crash-isolated harness.
 *
 * A forked cell worker (harness/cell_runner) ships its result to the
 * parent over a pipe, and the bytes on that pipe are untrusted in
 * exactly the way cached artifacts are: the writer may have been killed
 * mid-frame, crashed after writing half a payload, or (in fault-campaign
 * runs) deliberately garbled the stream. Every frame therefore carries
 * its own length and a CRC-32 over the whole frame, and the reader
 * classifies what it saw — a verified frame, a clean EOF, a torn/garbled
 * frame, or a deadline expiry — instead of trusting any byte.
 *
 * Frame layout (little-endian):
 *   magic "CPFR"            4 bytes
 *   u32 type                caller-defined message type
 *   u32 payloadLen, payload
 *   u32 CRC-32 over everything above
 */

#ifndef CPS_COMMON_IPC_FRAME_HH
#define CPS_COMMON_IPC_FRAME_HH

#include <string>
#include <vector>

#include "types.hh"

namespace cps
{

/** One framed message. */
struct IpcFrame
{
    u32 type = 0;
    std::vector<u8> payload;
};

/** Serializes one frame (magic, type, length, payload, CRC). */
std::vector<u8> encodeFrame(u32 type, const std::vector<u8> &payload);

/** How a stream read ended. */
enum class FrameReadStatus
{
    Ok,      ///< a complete, CRC-verified frame
    Eof,     ///< clean end of stream at a frame boundary
    Torn,    ///< stream ended mid-frame (writer died), or bad magic/CRC
    Timeout, ///< the deadline expired before a full frame arrived
    IoError, ///< read(2)/poll(2) failed
};

/**
 * Sets SIGPIPE to SIG_IGN process-wide, so that a write to a pipe
 * whose reader is gone fails with EPIPE instead of killing the writer.
 * A forked cell worker calls it before writing its result: a parent
 * that timed out has already closed the read end. Idempotent, and
 * inherited across fork.
 */
void ignoreSigpipe();

/**
 * Writes one frame to @p fd, retrying short writes and EINTR.
 * @return false on any unrecoverable write error (EPIPE included,
 *         once ignoreSigpipe() has run)
 */
bool writeFrame(int fd, u32 type, const std::vector<u8> &payload);

/**
 * Reads one frame from @p fd, blocking up to @p timeout_ms
 * (negative = no deadline). On Timeout/Torn/IoError the stream
 * position is unspecified — the caller is expected to give up on the
 * peer, not resynchronize. The declared length is bounded before it is
 * believed: a frame declaring a payload larger than @p max_payload is
 * classified Torn without being read.
 */
FrameReadStatus readFrame(int fd, IpcFrame &out, long timeout_ms,
                          size_t max_payload);

} // namespace cps

#endif // CPS_COMMON_IPC_FRAME_HH
