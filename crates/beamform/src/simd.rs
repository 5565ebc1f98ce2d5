//! The nearest-fetch tile kernel's AVX2 stages, and all of this crate's
//! `unsafe` code: the pack of a full staged group into the grouped index
//! block, and the masked-gather MAC over that block.
//!
//! Both are chosen at run time: [`Avx2::detect`] hands out a token only
//! on a CPU that has AVX2, so the `#[target_feature]` functions below are
//! called only where their instructions exist, whatever the build's
//! target CPU. The scalar stages in the kernel stay in use wherever no
//! token is, and for the rows and channels these functions leave over.
//!
//! Both stages give results bit-identical to the scalar ones: the pack
//! moves the same integers and widens the same windows, and the MAC
//! multiplies and adds the same `f64` values in the same order, without
//! fused multiply-adds.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256d, __m256i, _mm256_add_pd, _mm256_andnot_si256, _mm256_castsi256_si128,
    _mm256_cmpgt_epi32, _mm256_cvtepi32_pd, _mm256_extracti128_si256, _mm256_loadu_pd,
    _mm256_loadu_si256, _mm256_mask_i32gather_epi32, _mm256_max_epi32, _mm256_min_epi32,
    _mm256_mul_pd, _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_set1_pd,
    _mm256_setzero_si256, _mm256_slli_epi32, _mm256_srai_epi32, _mm256_storeu_pd,
    _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
    _mm256_unpacklo_epi64,
};

/// Rows per group of the tile kernel's index block: one channel's `i32`
/// entries for a group fill one 64-byte cache line. The engines' direct
/// group emit ([`usbf_core::DelayEngine::emit_group`]) writes lines of
/// this length.
pub const GROUP: usize = usbf_core::GROUP_ROWS;

/// Channels [`Avx2::mac4`] sums per call.
pub const MAC_CHANNELS: usize = 4;

/// Proof that the running CPU has AVX2: only [`Avx2::detect`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct Avx2 {
    _detected: (),
}

impl Avx2 {
    /// The token, if the running CPU has AVX2 (always `None` off x86-64).
    #[inline]
    #[must_use]
    pub fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2 { _detected: () });
        }
        None
    }

    /// Transposes a full staged group — `staging` holds 16 rows
    /// `[row][active]` — into the block's `group` (`[channel][row]`, one
    /// 16-entry line per channel), for the leading whole 16-channel
    /// squares, and widens those channels' `lows`/`highs` windows over
    /// the rows. Returns the channels written, a multiple of 16; the rest
    /// are left for the scalar transpose.
    ///
    /// # Panics
    ///
    /// Panics if `lows` and `highs` differ in length (`active`), or if
    /// `staging` or `group` is not `16 × active` long.
    pub fn pack(
        self,
        staging: &[i32],
        group: &mut [i32],
        lows: &mut [i32],
        highs: &mut [i32],
    ) -> usize {
        let active = lows.len();
        assert_eq!(highs.len(), active, "one low and one high per channel");
        assert_eq!(staging.len(), GROUP * active, "a full staged group");
        assert_eq!(group.len(), GROUP * active, "one block group");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only if `detect` found AVX2 on this CPU,
        // the one target feature `pack_avx2` enables.
        unsafe {
            pack_avx2(staging, group, lows, highs)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no Avx2 token exists off x86-64")
    }

    /// Adds four channels' terms, in order, into the accumulators of
    /// whole groups of block rows: for `c` in `0..4` and every row `r`,
    /// `acc[r] += weights[c] · raw_c[i]`, where `i` is row `r`'s entry on
    /// channel `c`'s line of its group and `raw_c` the trace
    /// `traces[c]` without its last (pad) sample. An index outside
    /// `0..raw_c.len()` adds `weights[c] · 0.0`, exactly like the scalar
    /// read. `lines` starts at the first channel's line of group 0, and
    /// each group holds `active` lines of 16 entries.
    ///
    /// Sound for every `i32` entry: each gather lane loads 4 bytes at
    /// sample `i`, and only lanes with `0 ≤ i < raw_c.len()` load, so a
    /// load ends at most one sample past `raw_c` — inside `traces[c]`.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not whole groups, if `lines` is shorter than the
    /// four channels' lines of every group need, or if a trace is empty
    /// or holds more than `i32::MAX` samples besides its pad.
    pub fn mac4(
        self,
        lines: &[i32],
        active: usize,
        traces: [&[i16]; MAC_CHANNELS],
        weights: [f64; MAC_CHANNELS],
        acc: &mut [f64],
    ) {
        assert_eq!(acc.len() % GROUP, 0, "whole groups of accumulators");
        assert!(active >= MAC_CHANNELS, "four channels per group");
        let groups = acc.len() / GROUP;
        if groups > 0 {
            assert!(
                lines.len() >= ((groups - 1) * active + MAC_CHANNELS) * GROUP,
                "every group's lines of the four channels"
            );
        }
        let windows = traces.map(|t| {
            let samples = t
                .len()
                .checked_sub(1)
                .expect("a trace ends in one pad sample");
            i32::try_from(samples).expect("a trace indexable by i32")
        });
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only if `detect` found AVX2 on this CPU,
        // the one target feature `mac4_avx2` enables; `windows[c]` is
        // `traces[c].len() - 1`, its `# Safety` requirement.
        unsafe {
            mac4_avx2(lines, active, traces, windows, weights, acc);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (lines, windows, weights);
            unreachable!("no Avx2 token exists off x86-64")
        }
    }
}

/// Eight `i32`s from the front of `s`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn load8(s: &[i32]) -> __m256i {
    let s: &[i32; 8] = s[..8].try_into().expect("eight lanes");
    // SAFETY: `s` is eight readable `i32`s (32 bytes), all this unaligned
    // load reads.
    unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
}

/// Stores eight `i32`s over the front of `s`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn store8(s: &mut [i32], v: __m256i) {
    let s: &mut [i32; 8] = (&mut s[..8]).try_into().expect("eight lanes");
    // SAFETY: `s` is eight writable `i32`s (32 bytes), all this unaligned
    // store writes.
    unsafe { _mm256_storeu_si256(s.as_mut_ptr().cast(), v) }
}

/// Four `f64`s from the front of `s`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn load4(s: &[f64]) -> __m256d {
    let s: &[f64; 4] = s[..4].try_into().expect("four lanes");
    // SAFETY: `s` is four readable `f64`s, all this unaligned load reads.
    unsafe { _mm256_loadu_pd(s.as_ptr()) }
}

/// Stores four `f64`s over the front of `s`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn store4(s: &mut [f64], v: __m256d) {
    let s: &mut [f64; 4] = (&mut s[..4]).try_into().expect("four lanes");
    // SAFETY: `s` is four writable `f64`s, all this unaligned store
    // writes.
    unsafe { _mm256_storeu_pd(s.as_mut_ptr(), v) }
}

/// The 8 × 8 transpose of `rows`: lane `r` of output `k` is lane `k` of
/// row `r`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
    // Pairs of rows interleaved by lane, then by lane pair: each 128-bit
    // half of `q[k]` holds four rows of one column (columns k and k + 4
    // for k < 4), and the final permutes join the row halves.
    let t = [
        _mm256_unpacklo_epi32(r[0], r[1]),
        _mm256_unpackhi_epi32(r[0], r[1]),
        _mm256_unpacklo_epi32(r[2], r[3]),
        _mm256_unpackhi_epi32(r[2], r[3]),
        _mm256_unpacklo_epi32(r[4], r[5]),
        _mm256_unpackhi_epi32(r[4], r[5]),
        _mm256_unpacklo_epi32(r[6], r[7]),
        _mm256_unpackhi_epi32(r[6], r[7]),
    ];
    let q = [
        _mm256_unpacklo_epi64(t[0], t[2]),
        _mm256_unpackhi_epi64(t[0], t[2]),
        _mm256_unpacklo_epi64(t[1], t[3]),
        _mm256_unpackhi_epi64(t[1], t[3]),
        _mm256_unpacklo_epi64(t[4], t[6]),
        _mm256_unpackhi_epi64(t[4], t[6]),
        _mm256_unpacklo_epi64(t[5], t[7]),
        _mm256_unpackhi_epi64(t[5], t[7]),
    ];
    [
        _mm256_permute2x128_si256::<0x20>(q[0], q[4]),
        _mm256_permute2x128_si256::<0x20>(q[1], q[5]),
        _mm256_permute2x128_si256::<0x20>(q[2], q[6]),
        _mm256_permute2x128_si256::<0x20>(q[3], q[7]),
        _mm256_permute2x128_si256::<0x31>(q[0], q[4]),
        _mm256_permute2x128_si256::<0x31>(q[1], q[5]),
        _mm256_permute2x128_si256::<0x31>(q[2], q[6]),
        _mm256_permute2x128_si256::<0x31>(q[3], q[7]),
    ]
}

/// [`Avx2::pack`] on checked lengths: eight channels at a time, each
/// 8-row half of the group one 8 × 8 square.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_avx2(staging: &[i32], group: &mut [i32], lows: &mut [i32], highs: &mut [i32]) -> usize {
    let active = lows.len();
    let done = active / GROUP * GROUP;
    for c in (0..done).step_by(8) {
        let mut lo = load8(&lows[c..]);
        let mut hi = load8(&highs[c..]);
        for half in 0..2 {
            let first = half * 8;
            let rows: [__m256i; 8] =
                std::array::from_fn(|r| load8(&staging[(first + r) * active + c..]));
            for &row in &rows {
                lo = _mm256_min_epi32(lo, row);
                hi = _mm256_max_epi32(hi, row);
            }
            for (k, column) in transpose8(rows).into_iter().enumerate() {
                store8(&mut group[(c + k) * GROUP + first..], column);
            }
        }
        store8(&mut lows[c..], lo);
        store8(&mut highs[c..], hi);
    }
    done
}

/// [`Avx2::mac4`] on checked lengths: per group, the 16 accumulators stay
/// in four registers while the four channels are added in order, each
/// channel's 16 samples two masked 8-lane gathers.
///
/// # Safety
///
/// `windows[c]` must be `traces[c].len() - 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac4_avx2(
    lines: &[i32],
    active: usize,
    traces: [&[i16]; MAC_CHANNELS],
    windows: [i32; MAC_CHANNELS],
    weights: [f64; MAC_CHANNELS],
    acc: &mut [f64],
) {
    let w = weights.map(|w| _mm256_set1_pd(w));
    let n = windows.map(|n| _mm256_set1_epi32(n));
    for (g, acc) in acc.chunks_exact_mut(GROUP).enumerate() {
        let mut sums: [__m256d; 4] = std::array::from_fn(|q| load4(&acc[4 * q..]));
        for c in 0..MAC_CHANNELS {
            let line = &lines[(g * active + c) * GROUP..][..GROUP];
            for half in 0..2 {
                let at = load8(&line[8 * half..]);
                // Lane sign bit set exactly where `0 ≤ at < windows[c]`:
                // `n > at` signed, with `at`'s own sign bit cleared out.
                let valid = _mm256_andnot_si256(at, _mm256_cmpgt_epi32(n[c], at));
                // SAFETY: AVX2 is enabled on this function. A lane loads
                // only where `valid`'s sign bit is set, i.e. for
                // `0 ≤ at < windows[c] = traces[c].len() - 1`, and reads
                // the 4 bytes at byte offset `2·at` of `traces[c]`, which
                // end at `2·at + 4 ≤ 2·traces[c].len()`: inside the slice.
                // Other lanes load nothing and give 0. Gathers have no
                // alignment requirement.
                let words = unsafe {
                    _mm256_mask_i32gather_epi32::<2>(
                        _mm256_setzero_si256(),
                        traces[c].as_ptr().cast::<i32>(),
                        at,
                        valid,
                    )
                };
                // Each lane's low half is the sample: sign-extend it.
                let samples = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(words));
                let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(samples));
                let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(samples));
                sums[2 * half] = _mm256_add_pd(sums[2 * half], _mm256_mul_pd(w[c], lo));
                sums[2 * half + 1] = _mm256_add_pd(sums[2 * half + 1], _mm256_mul_pd(w[c], hi));
            }
        }
        for (q, &s) in sums.iter().enumerate() {
            store4(&mut acc[4 * q..], s);
        }
    }
}
