/**
 * @file
 * Int8 quantized GEMM implementation: activation/weight
 * quantization, the k4-interleaved panels, and the tiered
 * int8 micro-kernels with the fused dequant epilogue.
 *
 * Every tier computes the same exact int32 dot products (the u7 x
 * s8 operand ranges make the pairwise i16 sums saturation-free and
 * qgemm bounds K so the i32 accumulator cannot wrap) and applies
 * the identical scalar float epilogue sequence, so the fp32 output
 * is bitwise identical across tiers, thread counts, and blocking —
 * see the contract in quant.hh.
 */

#include "tensor/quant.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.hh"
#include "common/parallel.hh"
#include "common/tags.hh"
#include "tensor/tensor_ops.hh"

#if defined(__x86_64__) || defined(_M_X64)
#define PCNN_QUANT_X86_TIERS 1
#include <immintrin.h>
#else
#define PCNN_QUANT_X86_TIERS 0
#endif

#if defined(__ARM_NEON)
#define PCNN_QUANT_NEON_TIER 1
#include <arm_neon.h>
#else
#define PCNN_QUANT_NEON_TIER 0
#endif

namespace pcnn {

namespace {

/// Quantize one activation: round-to-nearest, shift by the zero
/// point, clamp to the unsigned 7-bit range [0, 127].
inline std::uint8_t
quantizeAct(float v, float inv, std::int32_t zero)
{
    long q = std::lrintf(v * inv) + zero;
    if (q < 0)
        q = 0;
    if (q > 127)
        q = 127;
    return static_cast<std::uint8_t>(q);
}

/// process-wide quantizeWeights() counter (see header)
std::atomic<std::uint64_t> &
quantPackCounter()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

/// Scalar quantize+interleave of one k4 group row: source row `s`
/// lands at dst[4j + t] for its interleave slot t.
inline void
qpackRowScalar(const float *s, std::size_t n, float inv,
               std::int32_t zero, std::uint8_t *dst)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[4 * j] = quantizeAct(s[j], inv, zero);
}

#if PCNN_QUANT_X86_TIERS

/// AVX2 quantize+interleave of a full k4 group (4 source rows x n
/// columns) into 4-byte column groups. Eight columns per step: each
/// row quantizes to eight i32 lanes (cvtps rounds per MXCSR —
/// round-to-nearest-even, the same rounding lrintf applies in the
/// scalar path, so the bytes match it exactly for any |q| < 2^31;
/// beyond that both routes clamp, which only a profile miscalibrated
/// by ~7 orders of magnitude could reach), then two i32->i16 packs,
/// one i16->u8 pack, and an in-lane byte shuffle transpose the 4x8
/// block straight into the interleaved layout.
__attribute__((target("avx2")))
PCNN_HOT_PATH
void
qpackGroupAvx2(const float *s0, const float *s1, const float *s2,
               const float *s3, std::size_t n, float inv,
               std::int32_t zero, std::uint8_t *dst)
{
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256i vzero = _mm256_set1_epi32(zero);
    const __m256i lo = _mm256_setzero_si256();
    const __m256i hi = _mm256_set1_epi32(127);
    const __m256i shuf = _mm256_setr_epi8(
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    const auto quant8 = [&](const float *s, std::size_t j) {
        __m256i v = _mm256_cvtps_epi32(
            _mm256_mul_ps(_mm256_loadu_ps(s + j), vinv));
        v = _mm256_add_epi32(v, vzero);
        return _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
    };
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        // Per 128-bit lane: [r0c0..3 r1c0..3 | r2c0..3 r3c0..3]
        // bytes after the packs; the shuffle regroups them into
        // [c0: r0 r1 r2 r3][c1: ...] — the panel's column groups.
        const __m256i a01 =
            _mm256_packs_epi32(quant8(s0, j), quant8(s1, j));
        const __m256i a23 =
            _mm256_packs_epi32(quant8(s2, j), quant8(s3, j));
        const __m256i bytes =
            _mm256_shuffle_epi8(_mm256_packus_epi16(a01, a23), shuf);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 4 * j),
                            bytes);
    }
    for (; j < n; ++j) {
        dst[4 * j + 0] = quantizeAct(s0[j], inv, zero);
        dst[4 * j + 1] = quantizeAct(s1[j], inv, zero);
        dst[4 * j + 2] = quantizeAct(s2[j], inv, zero);
        dst[4 * j + 3] = quantizeAct(s3[j], inv, zero);
    }
}

#endif // PCNN_QUANT_X86_TIERS

} // namespace

std::uint64_t
quantPackCount()
{
    return quantPackCounter().load(std::memory_order_relaxed);
}

PCNN_HOT_PATH
QuantParams
computeQuantParams(const float *x, std::size_t count)
{
    float mn = 0.0f; // include 0 so padding/ReLU zeros are exact
    float mx = 0.0f;
    bool finite = true;
    for (std::size_t i = 0; i < count; ++i) {
        const float v = x[i];
        // NaNs fail both comparisons below, so without this they
        // would silently vanish from the range instead of marking
        // the tensor degenerate.
        finite = finite && std::isfinite(v);
        if (v < mn)
            mn = v;
        if (v > mx)
            mx = v;
    }
    QuantParams qp;
    const float range = mx - mn;
    if (!finite || !(range > 0.0f) || !std::isfinite(range))
        return qp; // degenerate tensor: identity params
    qp.scale = range / 127.0f;
    long z = std::lrintf(-mn / qp.scale);
    if (z < 0)
        z = 0;
    if (z > 127)
        z = 127;
    qp.zero = static_cast<std::uint8_t>(z);
    return qp;
}

PCNN_HOT_PATH
void
quantizeWeights(std::size_t rows, std::size_t cols, const float *w,
                QuantizedPanel &panel)
{
    PCNN_CHECK(rows * cols == 0 || w != nullptr,
               "quantizeWeights: null source for ", rows, "x", cols);
    const std::size_t kp = (cols + 3) & ~std::size_t(3);
    quantPackCounter().fetch_add(1, std::memory_order_relaxed);
    // pcnn-analyze: allow(hot-path-alloc): generation-gated weight
    // quantization; callers only invoke this when the source
    // weights changed.
    if (panel.data.size() < rows * kp)
        panel.data.resize(rows * kp);
    // pcnn-analyze: allow(hot-path-alloc): generation-gated, as above.
    if (panel.scales.size() < rows)
        panel.scales.resize(rows);
    // pcnn-analyze: allow(hot-path-alloc): generation-gated, as above.
    if (panel.rowSums.size() < rows)
        panel.rowSums.resize(rows);
    panel.rows = rows;
    panel.cols = cols;
    panel.kp = kp;
    if (rows == 0)
        return;
    parallelFor(rows, [&](std::size_t r0, std::size_t r1, std::size_t) {
        for (std::size_t i = r0; i < r1; ++i) {
            const float *src = w + i * cols;
            float maxabs = 0.0f;
            for (std::size_t p = 0; p < cols; ++p) {
                const float a = std::fabs(src[p]);
                if (a > maxabs)
                    maxabs = a;
            }
            const float scale =
                (maxabs > 0.0f && std::isfinite(maxabs))
                    ? maxabs / 127.0f
                    : 1.0f;
            const float inv = 1.0f / scale;
            std::int8_t *dst = panel.data.data() + i * kp;
            std::int32_t sum = 0;
            for (std::size_t p = 0; p < cols; ++p) {
                long q = std::lrintf(src[p] * inv);
                if (q < -127)
                    q = -127;
                if (q > 127)
                    q = 127;
                dst[p] = static_cast<std::int8_t>(q);
                sum += static_cast<std::int32_t>(q);
            }
            for (std::size_t p = cols; p < kp; ++p)
                dst[p] = 0; // meets the B pad bytes: contributes 0
            panel.scales[i] = scale;
            panel.rowSums[i] = sum;
        }
    });
}

PCNN_HOT_PATH
void
quantizePackActivations(const float *x, std::size_t k, std::size_t n,
                        std::size_t ld, bool trans, const QuantParams &qp,
                        std::vector<std::uint8_t> &out)
{
    PCNN_CHECK(k * n == 0 || x != nullptr,
               "quantizePackActivations: null source for ", k, "x", n);
    PCNN_CHECK(qp.scale > 0.0f && std::isfinite(qp.scale),
               "quantizePackActivations: bad scale ", qp.scale);
    const std::size_t groups = (k + 3) / 4;
    const std::size_t np = quantPackedCols(n);
    const std::size_t stride = 4 * np;
    // pcnn-analyze: allow(hot-path-alloc): grow-only activation
    // panel owned by the calling layer's scratch.
    if (out.size() < groups * stride)
        out.resize(groups * stride);
    if (groups == 0 || n == 0)
        return;
    const float inv = 1.0f / qp.scale;
    const std::int32_t zero = qp.zero;
    const std::uint8_t zb = qp.zero;
#if PCNN_QUANT_X86_TIERS
    const bool vec = cpuFeatures().avx2;
#else
    const bool vec = false;
#endif
    const double work = double(k) * double(n) * cost::kQuantizeElem;
    parallelFor(groups, [&](std::size_t g0, std::size_t g1, std::size_t) {
        for (std::size_t g = g0; g < g1; ++g) {
            std::uint8_t *dst = out.data() + g * stride;
            // Pad columns [n, np): every byte is the zero point, so
            // a full-width tile over them dequantizes to values the
            // staged edge store simply discards.
            if (np != n)
                std::memset(dst + 4 * n, zb, 4 * (np - n));
#if PCNN_QUANT_X86_TIERS
            if (vec && !trans && 4 * g + 3 < k) {
                const float *src = x + 4 * g * ld;
                qpackGroupAvx2(src, src + ld, src + 2 * ld,
                               src + 3 * ld, n, inv, zero, dst);
                continue;
            }
#else
            (void)vec;
#endif
            for (std::size_t t = 0; t < 4; ++t) {
                const std::size_t p = 4 * g + t;
                if (p >= k) { // pad k-row: any value cancels against
                    for (std::size_t j = 0; j < n; ++j) // zero weight
                        dst[4 * j + t] = zb;            // pad bytes
                    continue;
                }
                if (!trans) {
                    qpackRowScalar(x + p * ld, n, inv, zero, dst + t);
                } else {
                    for (std::size_t j = 0; j < n; ++j)
                        dst[4 * j + t] =
                            quantizeAct(x[j * ld + p], inv, zero);
                }
            }
        }
    }, work);
}

// --------------------------------------------------- micro-kernels

namespace {

/// The fixed dequant sequence every tier must reproduce bitwise:
/// convert, multiply, add bias, clamp — no FMA.
inline void
storeQuantCell(float *c, std::int32_t acc, std::size_t row,
               const QuantEpilogue &epi)
{
    const std::int32_t adj = acc - epi.actZero * epi.rowSums[row];
    float v = static_cast<float>(adj) * (epi.scales[row] * epi.actScale);
    if (epi.bias != nullptr)
        v += epi.bias[row];
    if (epi.relu && v < 0.0f)
        v = 0.0f;
    *c = v;
}

constexpr std::size_t kQPortableMR = 4;
constexpr std::size_t kQPortableNR = 8;

/// Portable 4x8 full tile — the exact-arithmetic reference every
/// SIMD tier must match bitwise.
PCNN_HOT_PATH
void
qFullPortable(std::size_t groups, const std::int8_t *a, std::size_t lda,
              const std::uint8_t *b, std::size_t ldb, float *c,
              std::size_t ldc, std::size_t row0, const QuantEpilogue &epi)
{
    std::int32_t acc[kQPortableMR][kQPortableNR] = {};
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t *bg = b + g * ldb;
        for (std::size_t i = 0; i < kQPortableMR; ++i) {
            const std::int8_t *ag = a + i * lda + 4 * g;
            const std::int32_t w0 = ag[0], w1 = ag[1];
            const std::int32_t w2 = ag[2], w3 = ag[3];
            for (std::size_t j = 0; j < kQPortableNR; ++j) {
                const std::uint8_t *bc = bg + 4 * j;
                acc[i][j] += w0 * bc[0] + w1 * bc[1] +
                             w2 * bc[2] + w3 * bc[3];
            }
        }
    }
    for (std::size_t i = 0; i < kQPortableMR; ++i)
        for (std::size_t j = 0; j < kQPortableNR; ++j)
            storeQuantCell(c + i * ldc + j, acc[i][j], row0 + i, epi);
}

/// Generic edge tile (mi x nj remainders), shared by all tiers so
/// edges are tier-invariant by construction.
PCNN_HOT_PATH
void
qEdge(std::size_t groups, std::size_t mi, std::size_t nj,
      const std::int8_t *a, std::size_t lda, const std::uint8_t *b,
      std::size_t ldb, float *c, std::size_t ldc, std::size_t row0,
      const QuantEpilogue &epi)
{
    std::int32_t acc[kMaxMicroMR][kMaxMicroNR] = {};
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t *bg = b + g * ldb;
        for (std::size_t i = 0; i < mi; ++i) {
            const std::int8_t *ag = a + i * lda + 4 * g;
            const std::int32_t w0 = ag[0], w1 = ag[1];
            const std::int32_t w2 = ag[2], w3 = ag[3];
            for (std::size_t j = 0; j < nj; ++j) {
                const std::uint8_t *bc = bg + 4 * j;
                acc[i][j] += w0 * bc[0] + w1 * bc[1] +
                             w2 * bc[2] + w3 * bc[3];
            }
        }
    }
    for (std::size_t i = 0; i < mi; ++i)
        for (std::size_t j = 0; j < nj; ++j)
            storeQuantCell(c + i * ldc + j, acc[i][j], row0 + i, epi);
}

#if PCNN_QUANT_X86_TIERS

/// AVX2 6x16: per k4 group, two 32-byte column loads (8 columns of
/// 4 interleaved bytes each) against a broadcast 4-byte weight
/// group; maddubs (u8 x s8 -> pairwise i16, saturation-free for u7
/// operands) then madd(+1) folds each column's 4-term dot into one
/// exact i32 lane.
__attribute__((target("avx2")))
PCNN_HOT_PATH
void
qFullAvx2(std::size_t groups, const std::int8_t *a, std::size_t lda,
          const std::uint8_t *b, std::size_t ldb, float *c,
          std::size_t ldc, std::size_t row0, const QuantEpilogue &epi)
{
    constexpr std::size_t MR = 6;
    __m256i acc[MR][2];
    for (std::size_t i = 0; i < MR; ++i) {
        acc[i][0] = _mm256_setzero_si256();
        acc[i][1] = _mm256_setzero_si256();
    }
    const __m256i ones = _mm256_set1_epi16(1);
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t *bg = b + g * ldb;
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bg));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bg + 32));
        for (std::size_t i = 0; i < MR; ++i) {
            std::int32_t wbits;
            std::memcpy(&wbits, a + i * lda + 4 * g, 4);
            const __m256i wv = _mm256_set1_epi32(wbits);
            const __m256i p0 = _mm256_maddubs_epi16(b0, wv);
            const __m256i p1 = _mm256_maddubs_epi16(b1, wv);
            acc[i][0] =
                _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(p0, ones));
            acc[i][1] =
                _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(p1, ones));
        }
    }
    for (std::size_t i = 0; i < MR; ++i) {
        const std::size_t row = row0 + i;
        const __m256i comp =
            _mm256_set1_epi32(epi.actZero * epi.rowSums[row]);
        const __m256 rs = _mm256_set1_ps(epi.scales[row] * epi.actScale);
        for (std::size_t l = 0; l < 2; ++l) {
            __m256 v = _mm256_cvtepi32_ps(
                _mm256_sub_epi32(acc[i][l], comp));
            v = _mm256_mul_ps(v, rs);
            if (epi.bias != nullptr)
                v = _mm256_add_ps(v, _mm256_set1_ps(epi.bias[row]));
            if (epi.relu)
                v = _mm256_max_ps(v, _mm256_setzero_ps());
            _mm256_storeu_ps(c + i * ldc + 8 * l, v);
        }
    }
}

/// AVX-512 8x32 (needs AVX-512BW for the 512-bit maddubs); same
/// exact-arithmetic structure as the AVX2 tile, twice as wide.
#if defined(__GNUC__) && !defined(__clang__)
// GCC lowers _mm512_max_ps through _mm512_undefined_ps(), whose
// deliberately-uninitialized pass-through operand trips
// -Wmaybe-uninitialized at -O3 despite being masked out.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
__attribute__((target("avx512f,avx512bw")))
PCNN_HOT_PATH
void
qFullAvx512(std::size_t groups, const std::int8_t *a, std::size_t lda,
            const std::uint8_t *b, std::size_t ldb, float *c,
            std::size_t ldc, std::size_t row0, const QuantEpilogue &epi)
{
    constexpr std::size_t MR = 8;
    __m512i acc[MR][2];
    for (std::size_t i = 0; i < MR; ++i) {
        acc[i][0] = _mm512_setzero_si512();
        acc[i][1] = _mm512_setzero_si512();
    }
    const __m512i ones = _mm512_set1_epi16(1);
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t *bg = b + g * ldb;
        const __m512i b0 = _mm512_loadu_si512(
            reinterpret_cast<const void *>(bg));
        const __m512i b1 = _mm512_loadu_si512(
            reinterpret_cast<const void *>(bg + 64));
        for (std::size_t i = 0; i < MR; ++i) {
            std::int32_t wbits;
            std::memcpy(&wbits, a + i * lda + 4 * g, 4);
            const __m512i wv = _mm512_set1_epi32(wbits);
            const __m512i p0 = _mm512_maddubs_epi16(b0, wv);
            const __m512i p1 = _mm512_maddubs_epi16(b1, wv);
            acc[i][0] =
                _mm512_add_epi32(acc[i][0], _mm512_madd_epi16(p0, ones));
            acc[i][1] =
                _mm512_add_epi32(acc[i][1], _mm512_madd_epi16(p1, ones));
        }
    }
    for (std::size_t i = 0; i < MR; ++i) {
        const std::size_t row = row0 + i;
        const __m512i comp =
            _mm512_set1_epi32(epi.actZero * epi.rowSums[row]);
        const __m512 rs = _mm512_set1_ps(epi.scales[row] * epi.actScale);
        for (std::size_t l = 0; l < 2; ++l) {
            __m512 v = _mm512_cvtepi32_ps(
                _mm512_sub_epi32(acc[i][l], comp));
            v = _mm512_mul_ps(v, rs);
            if (epi.bias != nullptr)
                v = _mm512_add_ps(v, _mm512_set1_ps(epi.bias[row]));
            if (epi.relu)
                v = _mm512_max_ps(v, _mm512_setzero_ps());
            _mm512_storeu_ps(c + i * ldc + 16 * l, v);
        }
    }
}

/// AVX-512 VNNI variant of the 8x32 tile: vpdpbusd fuses the
/// maddubs/madd/add accumulation chain into one u8 x s8
/// dot-accumulate per b vector. The int32 tile it produces is the
/// identical exact sum (integer dot products have one value), so
/// dispatching on the host's VNNI support cannot change any output
/// bit — only the instruction count.
__attribute__((target("avx512f,avx512bw,avx512vnni")))
PCNN_HOT_PATH
void
qFullAvx512Vnni(std::size_t groups, const std::int8_t *a,
                std::size_t lda, const std::uint8_t *b, std::size_t ldb,
                float *c, std::size_t ldc, std::size_t row0,
                const QuantEpilogue &epi)
{
    constexpr std::size_t MR = 8;
    __m512i acc[MR][2];
    for (std::size_t i = 0; i < MR; ++i) {
        acc[i][0] = _mm512_setzero_si512();
        acc[i][1] = _mm512_setzero_si512();
    }
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t *bg = b + g * ldb;
        const __m512i b0 = _mm512_loadu_si512(
            reinterpret_cast<const void *>(bg));
        const __m512i b1 = _mm512_loadu_si512(
            reinterpret_cast<const void *>(bg + 64));
        for (std::size_t i = 0; i < MR; ++i) {
            std::int32_t wbits;
            std::memcpy(&wbits, a + i * lda + 4 * g, 4);
            const __m512i wv = _mm512_set1_epi32(wbits);
            acc[i][0] = _mm512_dpbusd_epi32(acc[i][0], b0, wv);
            acc[i][1] = _mm512_dpbusd_epi32(acc[i][1], b1, wv);
        }
    }
    for (std::size_t i = 0; i < MR; ++i) {
        const std::size_t row = row0 + i;
        const __m512i comp =
            _mm512_set1_epi32(epi.actZero * epi.rowSums[row]);
        const __m512 rs = _mm512_set1_ps(epi.scales[row] * epi.actScale);
        for (std::size_t l = 0; l < 2; ++l) {
            __m512 v = _mm512_cvtepi32_ps(
                _mm512_sub_epi32(acc[i][l], comp));
            v = _mm512_mul_ps(v, rs);
            if (epi.bias != nullptr)
                v = _mm512_add_ps(v, _mm512_set1_ps(epi.bias[row]));
            if (epi.relu)
                v = _mm512_max_ps(v, _mm512_setzero_ps());
            _mm512_storeu_ps(c + i * ldc + 16 * l, v);
        }
    }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // PCNN_QUANT_X86_TIERS

#if PCNN_QUANT_NEON_TIER

/// NEON 4x8: per k4 group, vmull_s8 multiplies two interleaved
/// columns (activations are <= 127, so the u8 panel reinterprets
/// safely as s8) and two pairwise adds fold each column's 4-term
/// dot into an exact i32 lane.
PCNN_HOT_PATH
void
qFullNeon(std::size_t groups, const std::int8_t *a, std::size_t lda,
          const std::uint8_t *b, std::size_t ldb, float *c,
          std::size_t ldc, std::size_t row0, const QuantEpilogue &epi)
{
    int32x2_t acc[4][4]; // [row][column pair]
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t p = 0; p < 4; ++p)
            acc[i][p] = vdup_n_s32(0);
    for (std::size_t g = 0; g < groups; ++g) {
        const std::int8_t *bg =
            reinterpret_cast<const std::int8_t *>(b + g * ldb);
        int8x8_t bb[4];
        for (std::size_t p = 0; p < 4; ++p)
            bb[p] = vld1_s8(bg + 8 * p);
        for (std::size_t i = 0; i < 4; ++i) {
            std::int32_t wbits;
            std::memcpy(&wbits, a + i * lda + 4 * g, 4);
            const int8x8_t wv = vreinterpret_s8_s32(vdup_n_s32(wbits));
            for (std::size_t p = 0; p < 4; ++p) {
                const int16x8_t prod = vmull_s8(bb[p], wv);
                const int32x4_t s = vpaddlq_s16(prod);
                acc[i][p] = vadd_s32(
                    acc[i][p],
                    vpadd_s32(vget_low_s32(s), vget_high_s32(s)));
            }
        }
    }
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t row = row0 + i;
        const int32x4_t comp = vdupq_n_s32(epi.actZero * epi.rowSums[row]);
        const float rs = epi.scales[row] * epi.actScale;
        const int32x4_t lo32 = vcombine_s32(acc[i][0], acc[i][1]);
        const int32x4_t hi32 = vcombine_s32(acc[i][2], acc[i][3]);
        float32x4_t lo = vcvtq_f32_s32(vsubq_s32(lo32, comp));
        float32x4_t hi = vcvtq_f32_s32(vsubq_s32(hi32, comp));
        lo = vmulq_n_f32(lo, rs);
        hi = vmulq_n_f32(hi, rs);
        if (epi.bias != nullptr) {
            const float32x4_t bv = vdupq_n_f32(epi.bias[row]);
            lo = vaddq_f32(lo, bv);
            hi = vaddq_f32(hi, bv);
        }
        if (epi.relu) {
            const float32x4_t zv = vdupq_n_f32(0.0f);
            lo = vmaxq_f32(lo, zv);
            hi = vmaxq_f32(hi, zv);
        }
        vst1q_f32(c + i * ldc, lo);
        vst1q_f32(c + i * ldc + 4, hi);
    }
}

#endif // PCNN_QUANT_NEON_TIER

} // namespace

// ------------------------------------------------------- dispatch

bool
quantKernelTierSupported(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Portable:
        return true;
#if PCNN_QUANT_X86_TIERS
    case KernelTier::Avx2:
        return cpuFeatures().avx2;
    case KernelTier::Avx512:
        return cpuFeatures().avx512f && cpuFeatures().avx512bw;
#endif
#if PCNN_QUANT_NEON_TIER
    case KernelTier::Neon:
        return true;
#endif
    default:
        return false;
    }
}

const QuantKernel &
quantKernelFor(KernelTier tier)
{
    PCNN_CHECK(quantKernelTierSupported(tier),
               "int8 kernel tier ", kernelTierName(tier),
               " not supported on this host/build");
    switch (tier) {
#if PCNN_QUANT_X86_TIERS
    case KernelTier::Avx2: {
        static const QuantKernel k{KernelTier::Avx2, 6, 16, qFullAvx2};
        return k;
    }
    case KernelTier::Avx512: {
        // Same exact int32 tile either way (see qFullAvx512Vnni);
        // VNNI hosts just spend a third of the vector ops on it.
        static const QuantKernel k{KernelTier::Avx512, 8, 32,
                                   cpuFeatures().avx512vnni
                                       ? qFullAvx512Vnni
                                       : qFullAvx512};
        return k;
    }
#endif
#if PCNN_QUANT_NEON_TIER
    case KernelTier::Neon: {
        static const QuantKernel k{KernelTier::Neon, 4, 8, qFullNeon};
        return k;
    }
#endif
    default: {
        static const QuantKernel k{KernelTier::Portable, kQPortableMR,
                                   kQPortableNR, qFullPortable};
        return k;
    }
    }
}

KernelTier
activeQuantKernelTier()
{
    KernelTier t = activeKernelTier();
    while (!quantKernelTierSupported(t)) {
        switch (t) {
        case KernelTier::Avx512:
            t = KernelTier::Avx2;
            break;
        default: // Avx2 / Neon downgrade straight to portable,
            t = KernelTier::Portable; // which is always supported
            break;
        }
    }
    return t;
}

// --------------------------------------------------------- driver

namespace {

/// Resolved kernel + cache blocking for one qgemm call. No Kc: the
/// int32 register tile is exact, so staging partial K sums would
/// cost stores without buying determinism, and the u8 panel is 4x
/// smaller than fp32 B anyway. Mc/Nc reuse activeBlocking().
struct QTiled
{
    const QuantKernel *qk = nullptr;
    std::size_t mc = 0;
    std::size_t nc = 0;
};

QTiled
resolveQgemm(std::size_t n)
{
    QTiled t;
    t.qk = &quantKernelFor(activeQuantKernelTier());
    if (n < t.qk->nr) // narrow output: portable tile wastes less
        t.qk = &quantKernelFor(KernelTier::Portable);
    const GemmBlocking blk = activeBlocking();
    t.mc = std::max(t.qk->mr, blk.mc - blk.mc % t.qk->mr);
    t.nc = std::max(t.qk->nr, blk.nc - blk.nc % t.qk->nr);
    return t;
}

PCNN_HOT_PATH
void
qSweep(const QTiled &t, std::size_t groups, const QuantizedPanel &a,
       const std::uint8_t *b, std::size_t ldb, float *c, std::size_t ldc,
       std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
       const QuantEpilogue &epi)
{
    const std::size_t mr = t.qk->mr;
    const std::size_t nr = t.qk->nr;
    const std::size_t lda = a.kp;
    for (std::size_t jc = c0; jc < c1; jc += t.nc) {
        const std::size_t jce = std::min(c1, jc + t.nc);
        for (std::size_t ic = r0; ic < r1; ic += t.mc) {
            const std::size_t ice = std::min(r1, ic + t.mc);
            for (std::size_t i = ic; i < ice; i += mr) {
                const std::size_t mi = std::min(mr, ice - i);
                const std::int8_t *at = a.ptr() + i * lda;
                float *ci = c + i * ldc;
                for (std::size_t j = jc; j < jce; j += nr) {
                    const std::size_t nj = std::min(nr, jce - j);
                    if (mi == mr && nj == nr) {
                        t.qk->full(groups, at, lda, b + 4 * j, ldb,
                                   ci + j, ldc, i, epi);
                    } else if (mi == mr) {
                        // Column edge: the panel is padded to
                        // quantPackedCols, so the full-width kernel
                        // can run against real bytes; stage its tile
                        // and copy out the valid columns. Same
                        // epilogue, same bits, no scalar edge on the
                        // panel's long dimension.
                        float ct[kMaxMicroMR * kMaxMicroNR];
                        t.qk->full(groups, at, lda, b + 4 * j, ldb, ct,
                                   nr, i, epi);
                        for (std::size_t r = 0; r < mr; ++r)
                            std::memcpy(ci + r * ldc + j, ct + r * nr,
                                        nj * sizeof(float));
                    } else {
                        // Row edge (< mr rows, so cheap): the weight
                        // panel has no pad rows to lean on.
                        qEdge(groups, mi, nj, at, lda, b + 4 * j, ldb,
                              ci + j, ldc, i, epi);
                    }
                }
            }
        }
    }
}

} // namespace

PCNN_HOT_PATH
void
qgemm(std::size_t m, std::size_t n, std::size_t k, const QuantizedPanel &a,
      const std::uint8_t *b, const QuantParams &bq, float *c,
      const float *bias, bool relu)
{
    if (m == 0 || n == 0)
        return;
    noteGemmRan();
    PCNN_CHECK(c != nullptr, "qgemm: null output");
    PCNN_CHECK(a.rows == m && a.cols == k, "qgemm: panel ", a.rows, "x",
               a.cols, " mismatches m=", m, " k=", k);
    PCNN_CHECK_LE(k, kQuantMaxK,
                  "qgemm: K exceeds the exact-int32 accumulation bound");
    PCNN_CHECK(k == 0 || b != nullptr, "qgemm: null activation panel");
    const std::size_t groups = (k + 3) / 4;
    QuantEpilogue epi;
    epi.scales = a.scales.data();
    epi.rowSums = a.rowSums.data();
    epi.actScale = bq.scale;
    epi.actZero = bq.zero;
    epi.bias = bias;
    epi.relu = relu;
    const QTiled t = resolveQgemm(n);
    const std::size_t ldb = 4 * quantPackedCols(n);
    const std::size_t ldc = n;
    const std::size_t mr = t.qk->mr;
    const std::size_t nr = t.qk->nr;
    const std::size_t row_blocks = (m + mr - 1) / mr;
    const std::size_t col_blocks = (n + nr - 1) / nr;
    const double work =
        2.0 * double(m) * double(n) * double(k) * cost::kQgemmFlop;
    if (row_blocks >= col_blocks) {
        parallelFor(
            row_blocks,
            [&](std::size_t b0, std::size_t b1, std::size_t) {
                qSweep(t, groups, a, b, ldb, c, ldc, b0 * mr,
                       std::min(m, b1 * mr), 0, n, epi);
            },
            work);
    } else {
        parallelFor(
            col_blocks,
            [&](std::size_t b0, std::size_t b1, std::size_t) {
                qSweep(t, groups, a, b, ldb, c, ldc, 0, m, b0 * nr,
                       std::min(n, b1 * nr), epi);
            },
            work);
    }
}

} // namespace pcnn
