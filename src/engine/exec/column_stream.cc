#include "engine/exec/column_stream.h"

#include "storage/column_vector.h"

namespace nlq::engine::exec {

using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;

size_t CompactColumnSpans(ColumnSpanBatch* batch, const uint8_t* keep,
                          std::vector<ScratchColumn>* scratch) {
  const size_t rows = batch->rows;
  size_t kept = 0;
  for (size_t r = 0; r < rows; ++r) kept += keep[r] != 0;
  if (kept == rows || kept == 0) {
    batch->rows = kept;
    return kept;
  }
  const size_t ncols = batch->doubles.size();
  if (scratch->size() < ncols) scratch->resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    ScratchColumn& dst = (*scratch)[c];
    const double* dv = batch->doubles[c];
    const int64_t* iv = batch->ints[c];
    const uint64_t* nb = batch->null_bits[c];
    dst.has_nulls = false;
    if (dv != nullptr) dst.doubles.resize(kept);
    if (iv != nullptr) dst.ints.resize(kept);
    if (nb != nullptr) dst.null_bits.assign(NullBitmapWords(kept), 0);
    size_t w = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (!keep[r]) continue;
      if (dv != nullptr) dst.doubles[w] = dv[r];
      if (iv != nullptr) dst.ints[w] = iv[r];
      if (nb != nullptr && NullBitGet(nb, r)) {
        NullBitSet(dst.null_bits.data(), w);
        dst.has_nulls = true;
      }
      ++w;
    }
    batch->doubles[c] = dv != nullptr ? dst.doubles.data() : nullptr;
    batch->ints[c] = iv != nullptr ? dst.ints.data() : nullptr;
    batch->null_bits[c] = dst.has_nulls ? dst.null_bits.data() : nullptr;
  }
  batch->rows = kept;
  return kept;
}

}  // namespace nlq::engine::exec
