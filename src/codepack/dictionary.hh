/**
 * @file
 * CodePack halfword dictionaries.
 *
 * A dictionary assigns the most frequent 16-bit halfword values of a
 * program's text to short variable-length codewords, bank by bank (the
 * most frequent values land in the bank with the shortest codewords).
 * Dictionaries are fixed at program load time and shipped with the
 * compressed image (their bits are charged to the compressed size, as in
 * the paper's Table 4).
 *
 * One path per job: encode() resolves a halfword by hash lookup for
 * the compressor, tryRead() decodes bit-serially for the checked
 * reference decoder, and the decode LUT (readFast(), lutData()) feeds
 * the trusted kernel.
 */

#ifndef CPS_CODEPACK_DICTIONARY_HH
#define CPS_CODEPACK_DICTIONARY_HH

#include <unordered_map>
#include <vector>

#include "common/bitstream.hh"
#include "common/result.hh"
#include "common/types.hh"
#include "format.hh"

namespace cps
{
namespace codepack
{

/** How one halfword value is encoded. */
struct HalfEncoding
{
    bool raw = false;        ///< escape: 3-bit tag + 16 literal bits
    bool zeroSpecial = false; ///< low-half value 0: lone 2-bit tag
    unsigned bank = 0;       ///< dictionary bank (when !raw && !zeroSpecial)
    u32 index = 0;           ///< index within the bank
    unsigned tagBits = 0;
    u32 tag = 0;
    unsigned indexBits = 0;

    unsigned totalBits() const { return tagBits + indexBits; }
};

/** One of the two CodePack dictionaries (high or low halfwords). */
class Dictionary
{
  public:
    /** Which half of the instruction this dictionary serves. */
    enum class Kind { High, Low };

    /** Creates an empty dictionary (every halfword encodes raw). */
    explicit Dictionary(Kind kind);

    /**
     * Builds a dictionary from halfword frequency counts.
     *
     * Values are ranked by descending count (ties broken by value for
     * determinism) and poured into the banks in order. A value is only
     * admitted while doing so shrinks the program: admitting value v to a
     * bank with b-bit codewords saves count*(3+16-b) bits of stream and
     * costs 16 bits of dictionary storage.
     *
     * For Kind::Low the value 0 is never stored: it always has the
     * special 2-bit codeword.
     */
    static Dictionary build(Kind kind,
                            const std::unordered_map<u16, u64> &counts);

    /**
     * Reconstructs a dictionary from explicit per-bank entry lists
     * (deserialization). Bank populations must fit the bank widths.
     */
    static Dictionary fromBankEntries(
        Kind kind, const std::vector<std::vector<u16>> &entries);

    Kind kind() const { return kind_; }

    /** Number of banks (4 for high, 3 for low). */
    unsigned numBanks() const { return numBanks_; }

    /** The bank descriptors for this dictionary's kind. */
    const Bank *banks() const { return banks_; }

    /** Total entries stored across banks. */
    unsigned totalEntries() const;

    /** Bits of on-chip storage for the dictionary contents (16/entry). */
    u64 storageBits() const { return u64{totalEntries()} * 16; }

    /** How @p half would be encoded by this dictionary. */
    HalfEncoding encode(u16 half) const;

    /** The halfword stored at (@p bank, @p index). */
    u16 lookup(unsigned bank, u32 index) const;

    /** Appends the codeword for @p half to @p bw. */
    void write(BitWriter &bw, u16 half) const;

    /**
     * Appends the codeword for @p half when its encoding @p enc is
     * already in hand (the compressor resolves the encoding once for
     * both the accounting and the emit).
     */
    static void
    writeEncoded(BitWriter &bw, const HalfEncoding &enc, u16 half)
    {
        bw.put(enc.tag, enc.tagBits);
        if (enc.zeroSpecial)
            return;
        if (enc.raw) {
            bw.put(half, kRawLiteralBits);
            return;
        }
        bw.put(enc.index, enc.indexBits);
    }

    /** Decodes one halfword from @p br (tag first, then index/raw). */
    u16 read(BitReader &br) const;

    /**
     * Single-pass LUT decode for trusted streams: peeks kLutBits bits
     * and resolves {value, codeword length} in one table hit (a raw
     * escape costs one extra 16-bit read). Returns false — consuming
     * nothing — when the stream needs the checked path instead: a
     * truncated codeword or an index beyond a bank's population. The
     * caller falls back to read()/tryRead(), which reproduce the exact
     * panic or DecodeStatus the bit-serial reference decoder gives.
     */
    bool
    readFast(BitReader &br, u16 &out) const
    {
        // Inline: this runs once per halfword on the trusted decode
        // path, and an out-of-line call here costs as much as the
        // table hit itself.
        u32 e = lut_[br.peekPadded(kLutBits)];
        unsigned kind = (e >> 24) & 0x7;
        unsigned len = (e >> 16) & 0xff;
        if (kind == kLutValue) {
            if (len > br.remaining())
                return false; // truncated codeword
            br.skip(len);
            out = static_cast<u16>(e & 0xffff);
            return true;
        }
        if (kind == kLutRaw) {
            if (3 + kRawLiteralBits > br.remaining())
                return false; // truncated literal
            br.skip(3);
            out = static_cast<u16>(br.get(kRawLiteralBits));
            return true;
        }
        return false; // unpopulated dictionary index
    }

    /**
     * Checked variant of read() for untrusted bitstreams: a truncated
     * codeword or a dictionary index beyond a bank's population comes
     * back as a structured error (with the failing bit offset) instead
     * of an assert. On error the reader cursor is left wherever the
     * failure was detected.
     */
    Result<u16> tryRead(BitReader &br) const;

    /** Entries of bank @p bank (for dumps and tests). */
    const std::vector<u16> &bankEntries(unsigned bank) const;

    /** Bits the decode LUT indexes on (the longest non-raw codeword). */
    static constexpr unsigned kLutBits = 11;

    /**
     * The LUT itself (1 << kLutBits entries), for decode loops that
     * want the table pointer hoisted out of the per-symbol path.
     */
    const u32 *lutData() const { return lut_.data(); }

    /** Whether LUT entry @p e resolved to an in-bank halfword value. */
    static constexpr bool
    lutIsValue(u32 e)
    {
        return ((e >> 24) & 0x7) == kLutValue;
    }

    /** Consumed codeword length of LUT entry @p e, in bits. */
    static constexpr unsigned lutLen(u32 e) { return (e >> 16) & 0xff; }

    /** Decoded halfword of a value-kind LUT entry @p e. */
    static constexpr u16
    lutValue(u32 e)
    {
        return static_cast<u16>(e & 0xffff);
    }

  private:
    // Decode-LUT entry layout: value in [15:0], consumed bit count in
    // [23:16], kind in [26:24].
    enum LutKind : u32 { kLutValue = 0, kLutRaw = 1, kLutInvalid = 2 };

    static constexpr u32
    lutEntry(u16 value, unsigned len, LutKind kind)
    {
        return static_cast<u32>(value) | (static_cast<u32>(len) << 16) |
               (static_cast<u32>(kind) << 24);
    }

    /** Rebuilds lut_ from entries_ (called whenever banks change). */
    void buildLut();

    Kind kind_;
    const Bank *banks_;
    unsigned numBanks_;
    std::vector<std::vector<u16>> entries_;       // per bank
    std::unordered_map<u16, HalfEncoding> lookup_; // value -> encoding
    std::vector<u32> lut_;                        // 1 << kLutBits entries
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_DICTIONARY_HH
