//! Cache-blocked, lane-packed fixed-point inner-product kernels.
//!
//! The SNNAC datapath accumulates raw two's-complement products into a
//! wide register (`sum += w·x` over `i64`), which is *exact* integer
//! arithmetic — reassociating the additions cannot change the result.
//! That freedom is what every kernel here exploits, and it comes in
//! three **tiers** of increasing data parallelism, all bit-identical by
//! construction:
//!
//! * [`KernelTier::Scalar`] — the composed-scalar reference: a four-way
//!   unrolled loop that breaks the loop-carried dependency so a scalar
//!   core can retire several MACs per cycle. This is the tier every
//!   other tier is differentially tested against.
//! * [`KernelTier::Lanes`] — manual eight-wide lane packing: eight
//!   independent `i64` partial sums that the compiler can keep in
//!   vector registers on any architecture, plus batched kernels
//!   ([`fx_matmul`]) that run many samples through one weight row in
//!   sample-major lanes.
//! * [`KernelTier::Simd`] — an explicit `std::arch` AVX2 path
//!   (`x86_64` only) behind a **runtime** feature gate: widening
//!   32×32→64 multiplies (`vpmuldq`) into four-lane `i64` accumulators.
//!   When AVX2 is absent at runtime the dispatch falls back to the lane
//!   tier, so requesting [`KernelTier::Simd`] is always safe.
//!
//! The active tier is resolved by [`kernel_tier`]: a process-wide
//! programmatic override ([`set_kernel_tier`]) wins, then the
//! `MATIC_KERNEL` environment variable (`scalar`|`lanes`|`simd`|`auto`),
//! then auto-detection (AVX2 if the CPU has it, lanes otherwise). The
//! forced-scalar override exists for differential testing: because
//! every tier reassociates the same exact integer sum, flipping the
//! tier — even mid-process — can never change a result, only its speed.
//! The `*_with` entry points take an explicit tier so parity suites can
//! compare tiers in one process without touching global state.
//!
//! The kernels are deliberately typed on raw `i32`/`i64` slices rather
//! than on fixed-point wrapper types: callers (the NPU simulator, the
//! criterion benches) hold `matic_fixed::FxTensor`-style dense raw
//! storage and do format bookkeeping themselves, so the inner loops stay
//! free of per-element tag checks.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Rows per block of [`fx_matvec`]: with fan-ins up to a few hundred
/// `i32`s, 64 rows of operands plus the input vector sit comfortably in a
/// 32 KiB L1 data cache.
const ROW_BLOCK: usize = 64;

/// A data-parallelism tier of the integer MAC kernels. All tiers compute
/// the same exact `i64` sums — integer addition is associative, so the
/// tiers differ only in how the additions are reassociated and therefore
/// only in speed, never in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Four-way unrolled scalar loop — the composed-scalar reference
    /// tier that the parity suites hold the other tiers against.
    Scalar,
    /// Manual eight-wide lane packing (portable, safe code).
    Lanes,
    /// Explicit AVX2 `std::arch` path. Dispatch falls back to
    /// [`KernelTier::Lanes`] when the running CPU lacks AVX2 (or the
    /// build target is not `x86_64`), so selecting it is always safe.
    Simd,
}

impl KernelTier {
    /// The tier's stable name, as accepted by `MATIC_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Lanes => "lanes",
            KernelTier::Simd => "simd",
        }
    }
}

/// Whether the explicit SIMD tier can actually run on this machine
/// (compiled for `x86_64` **and** AVX2 detected at runtime).
#[cfg(target_arch = "x86_64")]
pub fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the explicit SIMD tier can actually run on this machine
/// (compiled for `x86_64` **and** AVX2 detected at runtime).
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_available() -> bool {
    false
}

/// `TIER_OVERRIDE` encoding: 0 = no override (fall through to the
/// environment / auto-detection), 1..=3 = forced tier.
const TIER_AUTO: u8 = 0;

static TIER_OVERRIDE: AtomicU8 = AtomicU8::new(TIER_AUTO);

fn tier_to_u8(tier: Option<KernelTier>) -> u8 {
    match tier {
        None => TIER_AUTO,
        Some(KernelTier::Scalar) => 1,
        Some(KernelTier::Lanes) => 2,
        Some(KernelTier::Simd) => 3,
    }
}

fn tier_from_u8(v: u8) -> Option<KernelTier> {
    match v {
        1 => Some(KernelTier::Scalar),
        2 => Some(KernelTier::Lanes),
        3 => Some(KernelTier::Simd),
        _ => None,
    }
}

/// Forces every tier-dispatched kernel ([`fx_dot`], [`fx_matvec`] and
/// [`fx_matmul`]) onto `tier`, process-wide;
/// `None` restores the default resolution (environment, then
/// auto-detection).
///
/// Safe to flip at any time, even while other threads are inside a
/// kernel: all tiers produce identical bits, so the override changes
/// execution speed only. It exists for differential tests and for
/// harness knobs that pin the tier without touching the environment.
pub fn set_kernel_tier(tier: Option<KernelTier>) {
    TIER_OVERRIDE.store(tier_to_u8(tier), Ordering::Relaxed);
}

/// The tier requested by `MATIC_KERNEL`, read once per process.
///
/// # Panics
///
/// Panics (on first use) if the variable is set to an unknown value —
/// a typo in a CI leg must fail loudly, not silently benchmark the
/// wrong kernel.
fn env_tier() -> Option<KernelTier> {
    static ENV: OnceLock<Option<KernelTier>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("MATIC_KERNEL") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "" | "auto" => None,
            "scalar" => Some(KernelTier::Scalar),
            "lanes" => Some(KernelTier::Lanes),
            "simd" => Some(KernelTier::Simd),
            other => panic!("MATIC_KERNEL must be scalar|lanes|simd|auto, got {other:?}"),
        },
    })
}

/// The tier the dispatched kernels currently run on: the
/// [`set_kernel_tier`] override if one is active, else the `MATIC_KERNEL`
/// environment variable, else auto-detection ([`KernelTier::Simd`] when
/// [`simd_available`], [`KernelTier::Lanes`] otherwise).
///
/// A returned [`KernelTier::Simd`] on a machine without AVX2 (possible
/// when explicitly requested) still executes the lane tier — the
/// fallback lives in the dispatch, so the request is harmless.
pub fn kernel_tier() -> KernelTier {
    if let Some(t) = tier_from_u8(TIER_OVERRIDE.load(Ordering::Relaxed)) {
        return t;
    }
    match env_tier() {
        Some(t) => t,
        None => {
            if simd_available() {
                KernelTier::Simd
            } else {
                KernelTier::Lanes
            }
        }
    }
}

/// Exact dot product of two raw fixed-point vectors, accumulated in
/// `i64` on the active [`kernel_tier`].
///
/// The result carries `w_frac + x_frac` fraction bits, exactly like
/// chaining `Accumulator::mac` over the pairs — integer addition is
/// associative, so every tier's partial-sum reassociation is
/// bit-identical to the sequential reference.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use matic_nn::kernel::fx_dot;
/// assert_eq!(fx_dot(&[1, 2, 3], &[4, 5, 6]), 4 + 10 + 18);
/// ```
#[inline]
pub fn fx_dot(w: &[i32], x: &[i32]) -> i64 {
    fx_dot_with(kernel_tier(), w, x)
}

/// [`fx_dot`] on an explicit tier — the differential-test entry point
/// (compare tiers in one process without global state).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn fx_dot_with(tier: KernelTier, w: &[i32], x: &[i32]) -> i64 {
    assert_eq!(w.len(), x.len(), "fx_dot length mismatch");
    match tier {
        KernelTier::Scalar => dot_scalar(w, x),
        KernelTier::Lanes => dot_lanes(w, x),
        KernelTier::Simd => simd_dot(w, x),
    }
}

/// The composed-scalar tier: four independent partial sums break the
/// loop-carried dependency so the scalar core retires several MACs per
/// cycle.
fn dot_scalar(w: &[i32], x: &[i32]) -> i64 {
    let mut s0 = 0i64;
    let mut s1 = 0i64;
    let mut s2 = 0i64;
    let mut s3 = 0i64;
    let mut wc = w.chunks_exact(4);
    let mut xc = x.chunks_exact(4);
    for (wq, xq) in wc.by_ref().zip(xc.by_ref()) {
        s0 += wq[0] as i64 * xq[0] as i64;
        s1 += wq[1] as i64 * xq[1] as i64;
        s2 += wq[2] as i64 * xq[2] as i64;
        s3 += wq[3] as i64 * xq[3] as i64;
    }
    for (wv, xv) in wc.remainder().iter().zip(xc.remainder()) {
        s0 += *wv as i64 * *xv as i64;
    }
    (s0 + s1) + (s2 + s3)
}

/// The lane tier: eight independent `i64` partial sums the compiler can
/// keep in vector registers on any architecture; the tail (fewer than
/// eight elements) folds sequentially into the combined sum.
fn dot_lanes(w: &[i32], x: &[i32]) -> i64 {
    let mut lanes = [0i64; 8];
    let mut wc = w.chunks_exact(8);
    let mut xc = x.chunks_exact(8);
    for (wq, xq) in wc.by_ref().zip(xc.by_ref()) {
        for ((acc, wv), xv) in lanes.iter_mut().zip(wq).zip(xq) {
            *acc += *wv as i64 * *xv as i64;
        }
    }
    let [s0, s1, s2, s3, s4, s5, s6, s7] = lanes;
    let mut sum = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    for (wv, xv) in wc.remainder().iter().zip(xc.remainder()) {
        sum += *wv as i64 * *xv as i64;
    }
    sum
}

/// Blocked matrix-vector product over raw fixed-point storage:
/// `out[r] = Σ_c w[r·cols + c] · x[c]`, exact in `i64`, on the active
/// [`kernel_tier`].
///
/// # Contract
///
/// `w` is row-major and the shape is **inferred from the operands**:
/// `rows := out.len()`, `cols := x.len()`, and `w.len()` must equal
/// `rows · cols` — that assertion is the complete length check. A `w`
/// that factors *consistently but wrongly* (say the caller swapped two
/// dimension variables whose product happens to match) is
/// indistinguishable from a correct call and cannot be detected here;
/// shape bookkeeping belongs to the caller's tensor types. `cols == 0`
/// (an empty `x`) is a valid empty sum: `out` is zero-filled.
///
/// Rows are processed in L1-sized blocks so the operand vector `x` is
/// re-read from cache, not memory.
///
/// # Panics
///
/// Panics if `w.len() != out.len() * x.len()`.
pub fn fx_matvec(w: &[i32], x: &[i32], out: &mut [i64]) {
    fx_matvec_with(kernel_tier(), w, x, out);
}

/// [`fx_matvec`] on an explicit tier — the differential-test entry
/// point. Same contract and panics as [`fx_matvec`].
pub fn fx_matvec_with(tier: KernelTier, w: &[i32], x: &[i32], out: &mut [i64]) {
    let cols = x.len();
    assert_eq!(w.len(), out.len() * cols, "fx_matvec shape mismatch");
    if cols == 0 {
        out.fill(0);
        return;
    }
    for (w_block, out_block) in w.chunks(ROW_BLOCK * cols).zip(out.chunks_mut(ROW_BLOCK)) {
        for (row, o) in w_block.chunks_exact(cols).zip(out_block.iter_mut()) {
            debug_assert_eq!(row.len(), cols, "row slice must span exactly one row");
            *o = fx_dot_with(tier, row, x);
        }
    }
}

/// Batched matrix product over raw fixed-point storage with sample-major
/// lanes: `out[r·batch + s] = Σ_c w[r·cols + c] · x[c·batch + s]` for
/// every sample `s` in `0..batch`, exact in `i64`, on the active
/// [`kernel_tier`].
///
/// `x` holds `batch` input vectors **column-major** (`x[c·batch + s]` is
/// element `c` of sample `s` — all samples' values for one input sit
/// contiguously), and `out` comes back in the same layout per row. Each
/// sample's sum is the exact integer [`fx_dot`] of its own column, so
/// the batched result is bit-identical to `batch` separate
/// [`fx_matvec`] calls.
///
/// # Contract
///
/// `batch` must be positive; `x.len()` and `out.len()` must both be
/// whole numbers of sample lanes (`cols := x.len() / batch`,
/// `rows := out.len() / batch`); and `w.len()` must equal `rows · cols`.
/// As with [`fx_matvec`], a consistently-wrong factorization cannot be
/// detected. `cols == 0` zero-fills `out`.
///
/// # Panics
///
/// Panics if `batch == 0`, if `x.len()` or `out.len()` is not a
/// multiple of `batch`, or if `w.len() != rows * cols`.
pub fn fx_matmul(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    fx_matmul_with(kernel_tier(), w, x, batch, out);
}

/// [`fx_matmul`] on an explicit tier — the differential-test entry
/// point. Same contract and panics as [`fx_matmul`].
pub fn fx_matmul_with(tier: KernelTier, w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    assert!(batch > 0, "fx_matmul batch must be positive");
    assert_eq!(x.len() % batch, 0, "fx_matmul input lanes mismatch");
    assert_eq!(out.len() % batch, 0, "fx_matmul output lanes mismatch");
    let cols = x.len() / batch;
    let rows = out.len() / batch;
    assert_eq!(w.len(), rows * cols, "fx_matmul shape mismatch");
    if cols == 0 {
        out.fill(0);
        return;
    }
    match tier {
        KernelTier::Scalar => matmul_scalar(w, x, batch, out),
        KernelTier::Lanes => matmul_lanes(w, x, batch, out),
        KernelTier::Simd => simd_matmul(w, x, batch, out),
    }
}

/// Scalar batched tier: one sample at a time over its strided column.
fn matmul_scalar(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    let cols = x.len() / batch;
    for (wrow, orow) in w.chunks_exact(cols).zip(out.chunks_exact_mut(batch)) {
        for (s, o) in orow.iter_mut().enumerate() {
            let mut sum = 0i64;
            for (c, &wv) in wrow.iter().enumerate() {
                sum += wv as i64 * x[c * batch + s] as i64;
            }
            *o = sum;
        }
    }
}

/// Lane batched tier: one weight broadcast across all sample lanes per
/// step; each lane accumulates its own sample's exact sum.
fn matmul_lanes(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    let cols = x.len() / batch;
    for (wrow, orow) in w.chunks_exact(cols).zip(out.chunks_exact_mut(batch)) {
        orow.fill(0);
        for (xcol, &wv) in x.chunks_exact(batch).zip(wrow) {
            let wv = wv as i64;
            for (o, &xv) in orow.iter_mut().zip(xcol) {
                *o += wv * xv as i64;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_dot(w: &[i32], x: &[i32]) -> i64 {
    simd::dot(w, x)
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn simd_dot(w: &[i32], x: &[i32]) -> i64 {
    dot_lanes(w, x)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_matmul(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    simd::matmul(w, x, batch, out);
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn simd_matmul(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    matmul_lanes(w, x, batch, out);
}

/// The explicit AVX2 tier. The only `unsafe` in the workspace lives in
/// this module: `std::arch` intrinsics behind a **runtime** AVX2 check
/// (every public function here re-checks and falls back to the safe
/// lane tier, so callers need no gating of their own) and raw loads
/// whose bounds are established by the surrounding loop arithmetic.
///
/// Exactness: `vpmuldq` (`_mm256_mul_epi32`) multiplies the *signed low
/// 32 bits* of each 64-bit lane into a full 64-bit product — no
/// truncation — and `i64` lane additions are exact, so these kernels
/// compute the same integer sums as the scalar tier, merely
/// reassociated.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_cvtepi32_epi64, _mm256_loadu_si256,
        _mm256_mul_epi32, _mm256_permute2x128_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64,
        _mm_loadu_si128,
    };

    /// [`fx_dot`](super::fx_dot) via AVX2 when the CPU has it, else the
    /// safe lane tier. The detection result is cached by the standard
    /// library, so the check is one relaxed atomic load.
    #[inline]
    pub fn dot(w: &[i32], x: &[i32]) -> i64 {
        if super::simd_available() {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe { dot_avx2(w, x) }
        } else {
            super::dot_lanes(w, x)
        }
    }

    /// [`fx_matmul`](super::fx_matmul) via AVX2 when the CPU has it,
    /// else the safe lane tier.
    #[inline]
    pub fn matmul(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
        if super::simd_available() {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe { matmul_avx2(w, x, batch, out) }
        } else {
            super::matmul_lanes(w, x, batch, out);
        }
    }

    /// Eight `i32` products per step: the even 32-bit elements
    /// multiply-widen directly, the odd ones after a 32-bit lane shift
    /// (`vpmuldq` reads only the low — signed — half of each 64-bit
    /// lane), both into four-lane `i64` accumulators; the tail folds
    /// sequentially.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2(w: &[i32], x: &[i32]) -> i64 {
        let n = w.len();
        let mut even = _mm256_setzero_si256();
        let mut odd = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds both 8-element loads.
            unsafe {
                let wv = _mm256_loadu_si256(w.as_ptr().add(i) as *const __m256i);
                let xv = _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i);
                even = _mm256_add_epi64(even, _mm256_mul_epi32(wv, xv));
                odd = _mm256_add_epi64(
                    odd,
                    _mm256_mul_epi32(_mm256_srli_epi64(wv, 32), _mm256_srli_epi64(xv, 32)),
                );
            }
            i += 8;
        }
        let mut lanes = [0i64; 4];
        // SAFETY: `lanes` is exactly 32 bytes.
        unsafe {
            _mm256_storeu_si256(
                lanes.as_mut_ptr() as *mut __m256i,
                _mm256_add_epi64(even, odd),
            );
        }
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (wv, xv) in w[i..].iter().zip(&x[i..]) {
            sum += *wv as i64 * *xv as i64;
        }
        sum
    }

    /// Batched rows with four samples per register: each step broadcasts
    /// one weight (`_mm256_set1_epi64x` keeps its signed low 32 bits,
    /// which is all `vpmuldq` reads), sign-extends four sample `i32`s to
    /// `i64` lanes, and accumulates the exact products; tail samples
    /// (`batch % 4`) fold sequentially per sample.
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_avx2(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
        let cols = x.len() / batch;
        for (wrow, orow) in w.chunks_exact(cols).zip(out.chunks_exact_mut(batch)) {
            let mut s = 0usize;
            // 32 sample lanes per step: four 256-bit loads carry 32 i32
            // samples; `vpmuldq` multiplies the even-indexed ones (low
            // 32 bits of each 64-bit lane) and a 32-bit lane shift
            // exposes the odd-indexed ones, exactly as in `dot_avx2`.
            // Eight accumulators stay resident in registers across the
            // whole column walk, so each weight broadcast is amortized
            // over 32 MACs. Integer accumulation is exact, so the
            // even/odd split is just another reassociation of the same
            // sum.
            while s + 32 <= batch {
                let mut acc = [_mm256_setzero_si256(); 8];
                for (c, &wv) in wrow.iter().enumerate() {
                    // SAFETY: c < cols and s + 32 <= batch bound the four
                    // 8-element loads at x[c*batch + s ..].
                    unsafe {
                        let wb = _mm256_set1_epi64x(wv as i64);
                        let base = x.as_ptr().add(c * batch + s);
                        for (q, lanes) in acc.chunks_exact_mut(2).enumerate() {
                            let v = _mm256_loadu_si256(base.add(q * 8) as *const __m256i);
                            lanes[0] = _mm256_add_epi64(lanes[0], _mm256_mul_epi32(wb, v));
                            lanes[1] = _mm256_add_epi64(
                                lanes[1],
                                _mm256_mul_epi32(wb, _mm256_srli_epi64(v, 32)),
                            );
                        }
                    }
                }
                for (q, lanes) in acc.chunks_exact(2).enumerate() {
                    // Restore sample order (see the 8-wide loop below).
                    let lo = _mm256_unpacklo_epi64(lanes[0], lanes[1]);
                    let hi = _mm256_unpackhi_epi64(lanes[0], lanes[1]);
                    // SAFETY: s + 32 <= batch bounds all eight stores.
                    unsafe {
                        let dst = orow.as_mut_ptr().add(s + q * 8);
                        _mm256_storeu_si256(
                            dst as *mut __m256i,
                            _mm256_permute2x128_si256(lo, hi, 0x20),
                        );
                        _mm256_storeu_si256(
                            dst.add(4) as *mut __m256i,
                            _mm256_permute2x128_si256(lo, hi, 0x31),
                        );
                    }
                }
                s += 32;
            }
            while s + 8 <= batch {
                let mut acc_even = _mm256_setzero_si256();
                let mut acc_odd = _mm256_setzero_si256();
                for (c, &wv) in wrow.iter().enumerate() {
                    // SAFETY: c < cols and s + 8 <= batch bound the
                    // 8-element load at x[c*batch + s ..].
                    unsafe {
                        let wb = _mm256_set1_epi64x(wv as i64);
                        let v = _mm256_loadu_si256(x.as_ptr().add(c * batch + s) as *const __m256i);
                        acc_even = _mm256_add_epi64(acc_even, _mm256_mul_epi32(wb, v));
                        acc_odd = _mm256_add_epi64(
                            acc_odd,
                            _mm256_mul_epi32(wb, _mm256_srli_epi64(v, 32)),
                        );
                    }
                }
                // Restore sample order: even lanes hold s+0,2,4,6 and odd
                // lanes s+1,3,5,7.
                let lo = _mm256_unpacklo_epi64(acc_even, acc_odd); // s0 s1 s4 s5
                let hi = _mm256_unpackhi_epi64(acc_even, acc_odd); // s2 s3 s6 s7
                                                                   // SAFETY: s + 8 <= batch bounds both 4-lane stores.
                unsafe {
                    _mm256_storeu_si256(
                        orow.as_mut_ptr().add(s) as *mut __m256i,
                        _mm256_permute2x128_si256(lo, hi, 0x20),
                    );
                    _mm256_storeu_si256(
                        orow.as_mut_ptr().add(s + 4) as *mut __m256i,
                        _mm256_permute2x128_si256(lo, hi, 0x31),
                    );
                }
                s += 8;
            }
            while s + 4 <= batch {
                let mut acc = _mm256_setzero_si256();
                for (c, &wv) in wrow.iter().enumerate() {
                    // SAFETY: c < cols and s + 4 <= batch bound the
                    // 4-element load at x[c*batch + s ..].
                    unsafe {
                        let wb = _mm256_set1_epi64x(wv as i64);
                        let xs = _mm_loadu_si128(x.as_ptr().add(c * batch + s) as *const __m128i);
                        acc =
                            _mm256_add_epi64(acc, _mm256_mul_epi32(wb, _mm256_cvtepi32_epi64(xs)));
                    }
                }
                // SAFETY: s + 4 <= batch bounds the 4-lane store.
                unsafe {
                    _mm256_storeu_si256(orow.as_mut_ptr().add(s) as *mut __m256i, acc);
                }
                s += 4;
            }
            while s < batch {
                let mut sum = 0i64;
                for (c, &wv) in wrow.iter().enumerate() {
                    sum += wv as i64 * x[c * batch + s] as i64;
                }
                orow[s] = sum;
                s += 1;
            }
        }
    }
}

/// Deterministic MAC-level error-drop model (ThUnderVolt's *TE-Drop*
/// semantics): under clock-period overscaling, a multiply whose critical
/// path misses timing closure is detected by a Razor-style shadow latch
/// and its partial product is **dropped** from the accumulation — the MAC
/// still occupies its issue slot, but contributes zero.
///
/// Whether a given MAC drops is a pure function of `(seed, layer, row,
/// col)` hashed through a SplitMix64-style mixer and compared against a
/// fixed-point probability threshold. That gives the model exactly the
/// properties the differential harness needs:
///
/// * **idempotent** — re-evaluating the same coordinates always yields
///   the same verdict (no hidden RNG state);
/// * **monotone in stress** — at a fixed seed, the drop set at threshold
///   `t₁ ≤ t₂` is a subset of the drop set at `t₂`, mirroring how a
///   shorter clock period can only fail *more* paths;
/// * **schedule-free** — the verdict never depends on evaluation order,
///   so blocked and reference executions agree bit-exactly.
///
/// Drops apply to weight MACs only; bias additions ride the short
/// accumulator path and always meet timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacDropSpec {
    seed: u64,
    /// Drop probability as a 0.64 fixed-point threshold in `[0, 2^64]`.
    /// `u128` so that probability 1.0 (`2^64`) is representable exactly.
    threshold: u128,
}

impl MacDropSpec {
    /// Builds a drop spec with the given seed and drop probability
    /// (clamped to `[0, 1]`; NaN is treated as 0).
    pub fn new(seed: u64, drop_probability: f64) -> Self {
        let p = if drop_probability.is_nan() {
            0.0
        } else {
            drop_probability.clamp(0.0, 1.0)
        };
        // Exact at both endpoints: p = 1.0 maps to 2^64, above every hash.
        let threshold = (p * (u128::pow(2, 64) as f64)) as u128;
        MacDropSpec { seed, threshold }
    }

    /// The drop probability this spec realizes (exact at 0 and 1).
    pub fn drop_probability(&self) -> f64 {
        self.threshold as f64 / u128::pow(2, 64) as f64
    }

    /// The seed the drop hash is keyed on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the MAC at `(layer, row, col)` misses timing and drops its
    /// partial product. Pure and schedule-free.
    #[inline]
    pub fn dropped(&self, layer: usize, row: usize, col: usize) -> bool {
        (mix_coords(self.seed, layer as u64, row as u64, col as u64) as u128) < self.threshold
    }
}

/// SplitMix64-style finalizer over the drop coordinates. Each input is
/// absorbed through the odd golden-ratio increment before the avalanche
/// rounds, so nearby coordinates decorrelate fully.
#[inline]
fn mix_coords(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Lanes, KernelTier::Simd];

    /// The sequential reference the hardware model defines.
    fn dot_reference(w: &[i32], x: &[i32]) -> i64 {
        w.iter().zip(x).map(|(&a, &b)| a as i64 * b as i64).sum()
    }

    #[test]
    fn dot_matches_reference_all_lengths_all_tiers() {
        for n in 0i32..70 {
            let w: Vec<i32> = (0..n).map(|i| i * 7919 % 65537 - 32768).collect();
            let x: Vec<i32> = (0..n).map(|i| i * 104729 % 65537 - 32768).collect();
            let expect = dot_reference(&w, &x);
            assert_eq!(fx_dot(&w, &x), expect, "n = {n}");
            for tier in ALL_TIERS {
                assert_eq!(fx_dot_with(tier, &w, &x), expect, "n = {n}, tier {tier:?}");
            }
        }
    }

    #[test]
    fn dot_handles_extremes_without_overflow() {
        let w = vec![i32::from(i16::MIN); 1024];
        let x = vec![i32::from(i16::MIN); 1024];
        let expect = 1024 * (i16::MIN as i64) * (i16::MIN as i64);
        for tier in ALL_TIERS {
            assert_eq!(fx_dot_with(tier, &w, &x), expect, "tier {tier:?}");
        }
    }

    #[test]
    fn matvec_matches_rowwise_reference_all_tiers() {
        let (rows, cols) = (200, 37); // spans multiple row blocks
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i * 3) as i32 - 50).collect();
        for tier in ALL_TIERS {
            let mut out = vec![0i64; rows];
            fx_matvec_with(tier, &w, &x, &mut out);
            for r in 0..rows {
                assert_eq!(
                    out[r],
                    dot_reference(&w[r * cols..(r + 1) * cols], &x),
                    "tier {tier:?}"
                );
            }
        }
    }

    #[test]
    fn matmul_matches_per_sample_matvec() {
        let (rows, cols) = (13, 29);
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        for batch in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            // Column-major batch: x[c*batch + s].
            let x: Vec<i32> = (0..cols * batch)
                .map(|i| ((i * 37) % 509) as i32 - 254)
                .collect();
            let mut expect = vec![0i64; rows * batch];
            for s in 0..batch {
                let sample: Vec<i32> = (0..cols).map(|c| x[c * batch + s]).collect();
                let mut out = vec![0i64; rows];
                fx_matvec_with(KernelTier::Scalar, &w, &sample, &mut out);
                for r in 0..rows {
                    expect[r * batch + s] = out[r];
                }
            }
            for tier in ALL_TIERS {
                let mut out = vec![0i64; rows * batch];
                fx_matmul_with(tier, &w, &x, batch, &mut out);
                assert_eq!(out, expect, "batch {batch}, tier {tier:?}");
            }
        }
    }

    #[test]
    fn matmul_zero_cols_zero_fills() {
        let mut out = vec![7i64; 6];
        fx_matmul(&[], &[], 3, &mut out);
        assert_eq!(out, vec![0i64; 6]);
    }

    #[test]
    fn tier_override_wins_until_cleared() {
        // The only test in this binary that touches the process-wide
        // override (flipping it cannot perturb concurrent tests' results
        // — all tiers are bit-identical — but asserting on kernel_tier()
        // itself must not race another override).
        set_kernel_tier(Some(KernelTier::Scalar));
        assert_eq!(kernel_tier(), KernelTier::Scalar);
        set_kernel_tier(Some(KernelTier::Simd));
        assert_eq!(kernel_tier(), KernelTier::Simd);
        set_kernel_tier(None);
        let auto = kernel_tier();
        match env_tier() {
            // A forced-tier environment (the MATIC_KERNEL=scalar CI leg)
            // is the fallback once the override clears.
            Some(env) => assert_eq!(auto, env),
            None => {
                assert!(auto == KernelTier::Simd || auto == KernelTier::Lanes);
                if simd_available() {
                    assert_eq!(auto, KernelTier::Simd);
                }
            }
        }
    }

    #[test]
    fn drop_endpoints_are_exact() {
        let never = MacDropSpec::new(7, 0.0);
        let always = MacDropSpec::new(7, 1.0);
        for i in 0..64 {
            assert!(!never.dropped(0, i, i * 3));
            assert!(always.dropped(0, i, i * 3));
        }
        assert_eq!(never.drop_probability(), 0.0);
        assert_eq!(always.drop_probability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_lengths() {
        let _ = fx_dot(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_checks_shape() {
        let mut out = vec![0i64; 2];
        fx_matvec(&[1, 2, 3], &[1], &mut out);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_rejects_mismatched_input_length() {
        // x.len() participates in the shape product: a too-long input
        // vector breaks `w.len() == out.len() * x.len()` and must panic,
        // not silently dot a prefix.
        let mut out = vec![0i64; 2];
        fx_matvec(&[1, 2, 3, 4], &[1, 2, 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn matmul_rejects_zero_batch() {
        let mut out = vec![0i64; 2];
        fx_matmul(&[1, 2], &[1, 2], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "input lanes mismatch")]
    fn matmul_rejects_ragged_input() {
        let mut out = vec![0i64; 2];
        fx_matmul(&[1, 2], &[1, 2, 3], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "output lanes mismatch")]
    fn matmul_rejects_ragged_output() {
        let mut out = vec![0i64; 3];
        fx_matmul(&[1, 2], &[1, 2, 3, 4], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_checks_shape() {
        let mut out = vec![0i64; 4];
        fx_matmul(&[1, 2, 3], &[1, 2, 3, 4], 2, &mut out);
    }
}
