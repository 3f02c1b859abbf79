#include "storage/column_codec.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "common/strings.h"

namespace nlq::storage {
namespace {

/// Dictionary blocks cap the distinct count: past this a dictionary
/// stops paying for itself against plain 8-byte values anyway.
constexpr size_t kMaxDictSize = 256;

/// Values sampled (evenly strided) when estimating codec sizes.
constexpr size_t kSampleValues = 1024;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

/// The column's values as raw 8-byte patterns (doubles bit-cast), so
/// every codec compares and stores exact bit patterns — NaN payloads
/// and -0.0 survive, and run/dict equality is memcmp equality.
const uint64_t* ValueBits(const ColumnVector& col) {
  if (col.type == DataType::kDouble) {
    return reinterpret_cast<const uint64_t*>(col.doubles.data());
  }
  return reinterpret_cast<const uint64_t*>(col.ints.data());
}

uint64_t* MutableValueBits(ColumnVector* col) {
  if (col->type == DataType::kDouble) {
    return reinterpret_cast<uint64_t*>(col->doubles.data());
  }
  return reinterpret_cast<uint64_t*>(col->ints.data());
}

size_t BitWidthFor(uint64_t max_value) {
  size_t w = 0;
  while (max_value != 0) {
    ++w;
    max_value >>= 1;
  }
  return w;
}

/// Appends `rows` values bit-packed at `width` bits each, LSB-first
/// within little-endian u64 words. width == 0 appends nothing.
void BitPack(const uint64_t* values, size_t rows, size_t width,
             std::string* out) {
  if (width == 0) return;
  const size_t words = (rows * width + 63) / 64;
  std::vector<uint64_t> packed(words, 0);
  size_t bit = 0;
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t v = values[r];
    const size_t word = bit >> 6;
    const size_t off = bit & 63;
    packed[word] |= v << off;
    if (off + width > 64) packed[word + 1] |= v >> (64 - off);
    bit += width;
  }
  out->append(reinterpret_cast<const char*>(packed.data()), words * 8);
}

/// Reads the bit-packed value at index `r`.
uint64_t BitUnpack(const uint64_t* packed, size_t r, size_t width) {
  const size_t bit = r * width;
  const size_t word = bit >> 6;
  const size_t off = bit & 63;
  uint64_t v = packed[word] >> off;
  if (off + width > 64) v |= packed[word + 1] << (64 - off);
  if (width < 64) v &= (uint64_t{1} << width) - 1;
  return v;
}

// ---------------------------------------------------------------------------
// Encoders. Each Try* appends its payload to `out` and returns true,
// or leaves `out` untouched and returns false when the codec does not
// apply / would not beat `budget` bytes (the plain size).

void EncodePlain(const uint64_t* bits, size_t rows, std::string* out) {
  out->append(reinterpret_cast<const char*>(bits), rows * 8);
}

/// VARCHAR payload: a u32 length per row, then the bytes back to back.
/// False (nothing appended) when it would not fit a u32 payload size.
bool EncodeStrings(const std::string* strings, size_t rows,
                   std::string* out) {
  uint64_t bytes = uint64_t{4} * rows;
  for (size_t r = 0; r < rows; ++r) bytes += strings[r].size();
  if (bytes > UINT32_MAX) return false;
  out->reserve(out->size() + bytes);
  for (size_t r = 0; r < rows; ++r) {
    AppendU32(out, static_cast<uint32_t>(strings[r].size()));
  }
  for (size_t r = 0; r < rows; ++r) out->append(strings[r]);
  return true;
}

bool TryEncodeRle(const uint64_t* bits, size_t rows, size_t budget,
                  std::string* out) {
  const size_t start = out->size();
  size_t r = 0;
  while (r < rows) {
    size_t run = 1;
    while (r + run < rows && bits[r + run] == bits[r]) ++run;
    // Runs are u32-capped; longer runs split losslessly.
    size_t left = run;
    while (left > 0) {
      const uint32_t take =
          static_cast<uint32_t>(std::min<size_t>(left, UINT32_MAX));
      AppendU32(out, take);
      AppendU64(out, bits[r]);
      left -= take;
    }
    r += run;
    if (out->size() - start >= budget) {
      out->resize(start);
      return false;
    }
  }
  return true;
}

bool TryEncodeDict(const uint64_t* bits, size_t rows, size_t budget,
                   std::string* out) {
  // First-appearance-order dictionary; linear probe is fine at 256.
  std::vector<uint64_t> dict;
  std::vector<uint32_t> indices(rows);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t v = bits[r];
    size_t idx = dict.size();
    for (size_t i = 0; i < dict.size(); ++i) {
      if (dict[i] == v) {
        idx = i;
        break;
      }
    }
    if (idx == dict.size()) {
      if (dict.size() >= kMaxDictSize) return false;
      dict.push_back(v);
    }
    indices[r] = static_cast<uint32_t>(idx);
  }
  const size_t width = std::max<size_t>(1, BitWidthFor(dict.size() - 1));
  const size_t bytes = 4 + dict.size() * 8 + (rows * width + 63) / 64 * 8;
  if (bytes >= budget) return false;
  AppendU32(out, static_cast<uint32_t>(dict.size()));
  for (const uint64_t v : dict) AppendU64(out, v);
  std::vector<uint64_t> wide(indices.begin(), indices.end());
  BitPack(wide.data(), rows, width, out);
  return true;
}

bool TryEncodeFor(const uint64_t* bits, size_t rows, DataType type,
                  size_t budget, std::string* out) {
  if (type != DataType::kInt64 || rows == 0) return false;
  const int64_t* vals = reinterpret_cast<const int64_t*>(bits);
  int64_t mn = vals[0], mx = vals[0];
  for (size_t r = 1; r < rows; ++r) {
    mn = std::min(mn, vals[r]);
    mx = std::max(mx, vals[r]);
  }
  // Delta range as u64; a full-width range can't beat plain.
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  const size_t width = BitWidthFor(range);
  if (width >= 60) return false;
  const size_t bytes = 8 + 1 + (rows * width + 63) / 64 * 8;
  if (bytes >= budget) return false;
  AppendU64(out, static_cast<uint64_t>(mn));
  out->push_back(static_cast<char>(width));
  std::vector<uint64_t> deltas(rows);
  for (size_t r = 0; r < rows; ++r) {
    deltas[r] = static_cast<uint64_t>(vals[r]) - static_cast<uint64_t>(mn);
  }
  BitPack(deltas.data(), rows, width, out);
  return true;
}

// ---------------------------------------------------------------------------
// Sampling-based codec selection.

struct SampleStats {
  size_t runs = 0;      // run boundaries in the sample
  size_t distinct = 0;  // distinct values (capped at kMaxDictSize + 1)
  size_t for_width = 64;
};

SampleStats SampleColumn(const uint64_t* bits, size_t rows, DataType type) {
  SampleStats s;
  if (rows == 0) return s;
  const size_t stride = std::max<size_t>(1, rows / kSampleValues);
  std::vector<uint64_t> seen;
  int64_t mn = 0, mx = 0;
  bool have_minmax = false;
  uint64_t prev = 0;
  bool have_prev = false;
  for (size_t r = 0; r < rows; r += stride) {
    const uint64_t v = bits[r];
    if (!have_prev || v != prev) ++s.runs;
    prev = v;
    have_prev = true;
    if (seen.size() <= kMaxDictSize &&
        std::find(seen.begin(), seen.end(), v) == seen.end()) {
      seen.push_back(v);
    }
    if (type == DataType::kInt64) {
      const int64_t iv = static_cast<int64_t>(v);
      if (!have_minmax) {
        mn = mx = iv;
        have_minmax = true;
      } else {
        mn = std::min(mn, iv);
        mx = std::max(mx, iv);
      }
    }
  }
  s.distinct = seen.size();
  if (type == DataType::kInt64 && have_minmax) {
    s.for_width = BitWidthFor(static_cast<uint64_t>(mx) -
                              static_cast<uint64_t>(mn));
  }
  return s;
}

void WriteHeader(const ColumnBlockHeader& h, std::string* out,
                 size_t at_offset) {
  char buf[ColumnBlockHeader::kEncodedSize];
  std::memcpy(buf + 0, &h.magic, 2);
  std::memcpy(buf + 2, &h.version, 2);
  buf[4] = static_cast<char>(h.codec);
  buf[5] = static_cast<char>(h.type);
  std::memcpy(buf + 6, &h.reserved, 2);
  std::memcpy(buf + 8, &h.rows, 4);
  std::memcpy(buf + 12, &h.payload_bytes, 4);
  std::memcpy(buf + 16, &h.null_bytes, 4);
  out->replace(at_offset, sizeof buf, buf, sizeof buf);
}

Status CorruptionAt(const char* what) {
  return Status::Corruption(
      StringPrintf("column block: %s", what));
}

/// Decodes a VARCHAR payload (see EncodeStrings) into col->strings,
/// already sized to the block's rows.
Status DecodeStrings(const char* payload, size_t payload_bytes,
                     ColumnVector* col) {
  const size_t rows = col->strings.size();
  if (payload_bytes < rows * 4) {
    return CorruptionAt("truncated VARCHAR lengths");
  }
  size_t pos = rows * 4;
  for (size_t r = 0; r < rows; ++r) {
    uint32_t len;
    std::memcpy(&len, payload + r * 4, 4);
    if (len > payload_bytes - pos) {
      return CorruptionAt("VARCHAR bytes overrun block");
    }
    col->strings[r].assign(payload + pos, len);
    pos += len;
  }
  if (pos != payload_bytes) return CorruptionAt("trailing VARCHAR bytes");
  return Status::OK();
}

}  // namespace

const char* ColumnCodecName(ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kPlain: return "plain";
    case ColumnCodec::kRle: return "rle";
    case ColumnCodec::kDict: return "dict";
    case ColumnCodec::kFor: return "for";
  }
  return "unknown";
}

StatusOr<size_t> EncodeColumnBlock(const ColumnVector& col, size_t rows,
                                   std::string* out) {
  if (rows > kChunkRows) {
    return Status::InvalidArgument("column block of " + std::to_string(rows) +
                                   " rows exceeds a chunk");
  }
  const size_t start = out->size();
  out->append(ColumnBlockHeader::kEncodedSize, '\0');  // patched below

  const uint64_t* bits = ValueBits(col);
  const size_t plain_bytes = rows * 8;
  ColumnCodec codec = ColumnCodec::kPlain;
  const size_t payload_start = out->size();

  if (col.type == DataType::kVarchar) {
    if (!EncodeStrings(col.strings.data(), rows, out)) {
      out->resize(start);
      return Status::InvalidArgument(
          "VARCHAR column block payload exceeds 4 GiB");
    }
  } else if (rows > 0) {
    const SampleStats s = SampleColumn(bits, rows, col.type);
    // Candidate order by estimated size; every candidate self-rejects
    // against the plain budget, so a bad estimate only costs time.
    const size_t stride = std::max<size_t>(1, rows / kSampleValues);
    const size_t sampled = (rows + stride - 1) / stride;
    const double run_frac =
        static_cast<double>(s.runs) / static_cast<double>(sampled);
    // Run-heavy blocks favor RLE, but a low-cardinality block with
    // short runs (e.g. a 5-value label column) packs far tighter as a
    // dictionary: compare the size estimates, not just run_frac. Both
    // estimates are per-row costs; constants cancel out at block size.
    const size_t rle_est_bytes =
        static_cast<size_t>(run_frac * static_cast<double>(rows)) * 12 + 12;
    size_t dict_est_bytes = plain_bytes;  // "not applicable"
    if (s.distinct >= 1 && s.distinct <= kMaxDictSize) {
      const size_t width =
          std::max<size_t>(1, BitWidthFor(s.distinct - 1));
      dict_est_bytes = 4 + s.distinct * 8 + (rows * width + 7) / 8;
    }
    const bool try_rle_first = run_frac < 0.2 && rle_est_bytes <= dict_est_bytes;
    bool encoded = false;
    if (try_rle_first) {
      encoded = TryEncodeRle(bits, rows, plain_bytes, out);
      if (encoded) codec = ColumnCodec::kRle;
    }
    if (!encoded && s.distinct <= kMaxDictSize) {
      encoded = TryEncodeDict(bits, rows, plain_bytes, out);
      if (encoded) codec = ColumnCodec::kDict;
    }
    if (!encoded && s.for_width < 60) {
      encoded = TryEncodeFor(bits, rows, col.type, plain_bytes, out);
      if (encoded) codec = ColumnCodec::kFor;
    }
    if (!encoded && !try_rle_first && run_frac < 0.6) {
      encoded = TryEncodeRle(bits, rows, plain_bytes, out);
      if (encoded) codec = ColumnCodec::kRle;
    }
    if (!encoded) EncodePlain(bits, rows, out);
  }
  const size_t payload_bytes = out->size() - payload_start;

  ColumnBlockHeader h;
  h.codec = static_cast<uint8_t>(codec);
  h.type = static_cast<uint8_t>(col.type);
  h.rows = static_cast<uint32_t>(rows);
  h.payload_bytes = static_cast<uint32_t>(payload_bytes);
  if (col.has_nulls()) {
    const size_t words = NullBitmapWords(rows);
    h.null_bytes = static_cast<uint32_t>(words * 8);
    out->append(reinterpret_cast<const char*>(col.null_bits.data()),
                words * 8);
  }
  WriteHeader(h, out, start);
  return out->size() - start;
}

StatusOr<ColumnBlockHeader> PeekColumnBlockHeader(const char* data,
                                                  size_t size, size_t* pos) {
  if (*pos + ColumnBlockHeader::kEncodedSize > size) {
    return CorruptionAt("truncated header");
  }
  const char* p = data + *pos;
  ColumnBlockHeader h;
  std::memcpy(&h.magic, p + 0, 2);
  std::memcpy(&h.version, p + 2, 2);
  h.codec = static_cast<uint8_t>(p[4]);
  h.type = static_cast<uint8_t>(p[5]);
  std::memcpy(&h.reserved, p + 6, 2);
  std::memcpy(&h.rows, p + 8, 4);
  std::memcpy(&h.payload_bytes, p + 12, 4);
  std::memcpy(&h.null_bytes, p + 16, 4);
  if (h.magic != ColumnBlockHeader::kMagic) return CorruptionAt("bad magic");
  if (h.version == 0 || h.version > ColumnBlockHeader::kVersion) {
    return CorruptionAt("unsupported version");
  }
  if (h.codec > static_cast<uint8_t>(ColumnCodec::kFor)) {
    return CorruptionAt("unknown codec");
  }
  if (h.type > static_cast<uint8_t>(DataType::kVarchar)) {
    return CorruptionAt("bad column type");
  }
  if (h.type == static_cast<uint8_t>(DataType::kVarchar) &&
      h.codec != static_cast<uint8_t>(ColumnCodec::kPlain)) {
    return CorruptionAt("VARCHAR block with a compressing codec");
  }
  if (h.rows > kChunkRows) return CorruptionAt("row count exceeds a chunk");
  if (h.null_bytes != 0 &&
      h.null_bytes != NullBitmapWords(h.rows) * 8) {
    return CorruptionAt("null bitmap size mismatch");
  }
  *pos += ColumnBlockHeader::kEncodedSize;
  if (*pos + h.payload_bytes + h.null_bytes > size) {
    return CorruptionAt("truncated payload");
  }
  return h;
}

Status DecodeColumnBlock(const char* data, size_t size, size_t* pos,
                         ColumnVector* col) {
  NLQ_FAILPOINT("page_decompress");
  size_t p = *pos;
  NLQ_ASSIGN_OR_RETURN(const ColumnBlockHeader h,
                       PeekColumnBlockHeader(data, size, &p));
  const size_t rows = h.rows;
  col->Reset(static_cast<DataType>(h.type), rows);
  uint64_t* dst = MutableValueBits(col);
  const char* payload = data + p;
  const size_t payload_bytes = h.payload_bytes;

  switch (static_cast<ColumnCodec>(h.codec)) {
    case ColumnCodec::kPlain: {
      if (col->type == DataType::kVarchar) {
        NLQ_RETURN_IF_ERROR(DecodeStrings(payload, payload_bytes, col));
        break;
      }
      if (payload_bytes != rows * 8) {
        return CorruptionAt("plain payload size mismatch");
      }
      // A 0-row column has no value array (dst may be null).
      if (rows > 0) std::memcpy(dst, payload, payload_bytes);
      break;
    }
    case ColumnCodec::kRle: {
      size_t q = 0, r = 0;
      while (r < rows) {
        if (q + 12 > payload_bytes) return CorruptionAt("truncated RLE run");
        uint32_t len;
        uint64_t v;
        std::memcpy(&len, payload + q, 4);
        std::memcpy(&v, payload + q + 4, 8);
        q += 12;
        if (len == 0 || r + len > rows) {
          return CorruptionAt("RLE run overflows block");
        }
        for (uint32_t i = 0; i < len; ++i) dst[r + i] = v;
        r += len;
      }
      if (q != payload_bytes) return CorruptionAt("trailing RLE bytes");
      break;
    }
    case ColumnCodec::kDict: {
      if (payload_bytes < 4) return CorruptionAt("truncated dict size");
      uint32_t dict_size;
      std::memcpy(&dict_size, payload, 4);
      if (dict_size == 0 || dict_size > kMaxDictSize) {
        return CorruptionAt("dict size out of range");
      }
      const size_t width =
          std::max<size_t>(1, BitWidthFor(dict_size - 1));
      const size_t packed_bytes = (rows * width + 63) / 64 * 8;
      if (payload_bytes != 4 + dict_size * 8 + packed_bytes) {
        return CorruptionAt("dict payload size mismatch");
      }
      std::vector<uint64_t> dict(dict_size);
      std::memcpy(dict.data(), payload + 4, dict_size * 8);
      std::vector<uint64_t> packed(packed_bytes / 8 + 1, 0);
      std::memcpy(packed.data(), payload + 4 + dict_size * 8, packed_bytes);
      for (size_t r = 0; r < rows; ++r) {
        const uint64_t idx = BitUnpack(packed.data(), r, width);
        if (idx >= dict_size) return CorruptionAt("dict index out of range");
        dst[r] = dict[idx];
      }
      break;
    }
    case ColumnCodec::kFor: {
      if (static_cast<DataType>(h.type) != DataType::kInt64) {
        return CorruptionAt("FoR on non-BIGINT column");
      }
      if (payload_bytes < 9) return CorruptionAt("truncated FoR header");
      uint64_t ref;
      std::memcpy(&ref, payload, 8);
      const size_t width = static_cast<uint8_t>(payload[8]);
      if (width >= 60) return CorruptionAt("FoR width out of range");
      const size_t packed_bytes = (rows * width + 63) / 64 * 8;
      if (payload_bytes != 9 + packed_bytes) {
        return CorruptionAt("FoR payload size mismatch");
      }
      std::vector<uint64_t> packed(packed_bytes / 8 + 1, 0);
      std::memcpy(packed.data(), payload + 9, packed_bytes);
      for (size_t r = 0; r < rows; ++r) {
        dst[r] = ref + BitUnpack(packed.data(), r, width);
      }
      break;
    }
  }
  p += payload_bytes;

  if (h.null_bytes > 0) {
    std::memcpy(col->null_bits.data(), data + p, h.null_bytes);
    p += h.null_bytes;
    uint64_t nulls = 0;
    for (const uint64_t w : col->null_bits) nulls += __builtin_popcountll(w);
    col->null_count = nulls;
    // NULL slots hold the canonical 0 / "" that ColumnVector::Append
    // writes, whatever the payload carried there.
    for (size_t r = 0; r < rows; ++r) {
      if (!NullBitGet(col->null_bits.data(), r)) continue;
      if (col->type == DataType::kVarchar) {
        col->strings[r].clear();
      } else {
        dst[r] = 0;
      }
    }
  }
  *pos = p;
  return Status::OK();
}

}  // namespace nlq::storage
