#ifndef NLQ_STORAGE_COLUMN_CODEC_H_
#define NLQ_STORAGE_COLUMN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_vector.h"
#include "storage/value.h"

namespace nlq::storage {

/// Per-column lightweight compression for column chunks on disk —
/// the one encoding of spill files and snapshot files alike.
///
/// A *column block* is the encoded image of one column over one chunk
/// of at most kChunkRows rows: a fixed header, a payload, and (when
/// the column has NULLs in the chunk) the raw null-bitmap words.
///
/// DOUBLE and BIGINT values travel as their 8-byte little-endian bit
/// patterns — doubles are never re-parsed or re-rounded — so
/// encode→decode is bit-exact for every input including NaN, ±0.0 and
/// denormals. Their codec is chosen per block at encode time by
/// sampling the values (EncodeColumnBlock); kPlain is the
/// always-correct escape hatch and the size ceiling — no such block is
/// ever written larger than plain + the fixed header.
///
/// VARCHAR blocks are always kPlain: a u32 byte length per row, then
/// the rows' bytes back to back. There is no codec selection.
///
/// NULL positions hold the canonical 0 / 0.0 / "" (the slot value
/// ColumnVector::Append writes), so a round-trip through a codec
/// reproduces the exact resident chunk column, and an empty string
/// stays distinct from a NULL one by its null bit.
enum class ColumnCodec : uint8_t {
  kPlain = 0,  // raw 8-byte values; VARCHAR lengths + bytes
  kRle = 1,    // (u32 run length, 8-byte value) runs over bit patterns
  kDict = 2,   // u32 dict size, dict values, bit-packed indices
  kFor = 3,    // BIGINT only: u64 reference + bit-packed deltas
};

/// Returns "plain", "rle", "dict" or "for".
const char* ColumnCodecName(ColumnCodec codec);

/// Fixed little-endian block header. `version` guards the on-disk
/// layout: a decoder that sees a newer version fails with kCorruption
/// instead of misreading the payload.
struct ColumnBlockHeader {
  static constexpr uint16_t kMagic = 0x4C43;  // "CL"
  static constexpr uint16_t kVersion = 1;
  static constexpr size_t kEncodedSize = 20;

  uint16_t magic = kMagic;
  uint16_t version = kVersion;
  uint8_t codec = 0;          // ColumnCodec
  uint8_t type = 0;           // DataType
  uint16_t reserved = 0;
  uint32_t rows = 0;          // values in the block
  uint32_t payload_bytes = 0; // codec payload size
  uint32_t null_bytes = 0;    // raw bitmap bytes (0 = no NULLs)
};

/// Encodes column `col` (its first `rows` values, at most kChunkRows)
/// as one block appended to `*out`. For DOUBLE and BIGINT the codec is
/// picked per block: the values are sampled for run structure,
/// distinct count and (BIGINT) value range, candidate codecs are tried
/// best-estimate-first, and any candidate that encodes larger than
/// plain is discarded — plain is the escape hatch, so compression
/// never loses. Returns the number of bytes appended, or
/// kInvalidArgument (leaving `*out` unchanged) when a VARCHAR payload
/// would overflow the header's u32 `payload_bytes`.
StatusOr<size_t> EncodeColumnBlock(const ColumnVector& col, size_t rows,
                                   std::string* out);

/// Decodes one block starting at data[*pos] into `*col` (Reset to the
/// block's type/rows), advancing *pos past the block. Truncated input,
/// bad magic/version, unknown codecs, row counts above kChunkRows and
/// payload/row-count mismatches all fail with kCorruption — never UB —
/// before any value is published.
Status DecodeColumnBlock(const char* data, size_t size, size_t* pos,
                         ColumnVector* col);

/// Reads a block's header without decoding the payload; used to skip
/// non-projected columns. On success advances *pos to the start of the
/// payload and returns the header.
StatusOr<ColumnBlockHeader> PeekColumnBlockHeader(const char* data,
                                                  size_t size, size_t* pos);

/// Total encoded size of the block whose header is `h` (header +
/// payload + null bitmap).
inline size_t ColumnBlockBytes(const ColumnBlockHeader& h) {
  return ColumnBlockHeader::kEncodedSize + h.payload_bytes + h.null_bytes;
}

}  // namespace nlq::storage

#endif  // NLQ_STORAGE_COLUMN_CODEC_H_
