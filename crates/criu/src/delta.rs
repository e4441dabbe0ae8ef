//! Page-delta encoding for the epoch state transfer.
//!
//! NiLiCon's per-epoch wire volume is dominated by dirty pages, and every
//! dirty page ships its full 4 KiB body even when only a few cache lines
//! changed (§V, Table I). HyCoR (Zhou & Tamir, arXiv:2101.09584) attacks
//! exactly this: shrink what must cross the replication link per epoch. This
//! module implements the primary-side half of that pipeline:
//!
//! * a [`ShadowStore`] holding the page contents as of the last epoch the
//!   primary shipped (the backup applies epochs in order, so this is the base
//!   the backup will hold when the delta arrives);
//! * [`ShadowStore::encode`], which classifies each dirty page as a **zero
//!   page** (elided — a one-word marker), an **XOR delta** (sparse word-level
//!   diff against the shadow copy, run-length encoded), or a **full page**
//!   (first touch, or churn so dense the delta would not pay);
//! * [`PageEncoding::apply`], the backup-side inverse, which reconstructs the
//!   exact page bytes from the base page — the committed image is
//!   byte-identical to the full-page path.
//!
//! Pages enter and leave as [`PageBuf`]s (refcounted immutable buffers), so
//! shadow updates and full-page encodings are `Rc` clones, not 4 KiB copies.
//! The diff scan itself works a 64-byte block at a time: equal blocks are
//! dismissed with a single slice comparison (a vectorized `memcmp`), and only
//! unequal blocks fall into the word-at-a-time `u64` loop — SIMD-friendly on
//! the common sparsely-edited page.
//!
//! Per-epoch classification and byte accounting accumulate in [`DeltaStats`]
//! (the `DeltaEncode` trace span and `trace-report`'s encoded-vs-raw column).

use crate::pagestore::PageKey;
use nilicon_sim::{zero_page, PageBuf, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Multiply-rotate hasher for [`PageKey`]s (FxHash-style). The shadow lookup
/// sits on the per-page encode path; SipHash's keyed rounds cost more than
/// the whole diff scan of an unchanged page, and HashDoS resistance buys
/// nothing against our own page keys.
#[derive(Default)]
pub struct PageKeyHasher(u64);

impl PageKeyHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PageKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

type PageKeyBuild = BuildHasherDefault<PageKeyHasher>;

/// 64-bit words per page (the XOR diff granularity).
pub const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

/// Bytes per comparison block (one cache line): the granularity at which the
/// encode scan skips unchanged data with a single vectorized compare.
const BLOCK_BYTES: usize = 64;

/// Wire-size model: every encoded page carries one 8-byte header word
/// (class tag + vpn-relative addressing).
const HEADER_BYTES: u64 = 8;
/// Wire-size model: each run costs one offset/length word plus its payload.
const RUN_HEADER_BYTES: u64 = 8;

/// One run of consecutive changed 64-bit words within a page.
///
/// A run is a descriptor only — its XOR payload lives in the owning
/// [`DeltaPage`]'s flat `xor_words` vector. Per-run payload storage would
/// cost one heap allocation per run, which dominates encode time for the
/// common case of scattered single-word edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRun {
    /// Word offset of the run within the page (`0..WORDS_PER_PAGE`).
    pub word_off: u16,
    /// Number of consecutive changed words in the run.
    pub len: u16,
}

/// Sparse XOR diff of one page: run descriptors over a single flat payload
/// (two allocations total, regardless of how scattered the edits are).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaPage {
    /// Maximal runs of consecutive changed words, ascending by `word_off`.
    pub runs: Vec<DeltaRun>,
    /// Concatenated XOR payloads of all runs, in run order (applying the
    /// delta XORs these back into the base page).
    pub xor_words: Vec<u64>,
}

impl DeltaPage {
    /// Total changed words across all runs.
    pub fn words(&self) -> usize {
        self.xor_words.len()
    }

    /// Iterate `(word_off, xor_words)` per run.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u16, &[u64])> {
        let mut cursor = 0usize;
        self.runs.iter().map(move |r| {
            let words = &self.xor_words[cursor..cursor + r.len as usize];
            cursor += r.len as usize;
            (r.word_off, words)
        })
    }
}

/// How one dirty page crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageEncoding {
    /// The page is entirely zero: send a one-word marker, no body.
    Zero,
    /// Sparse change: run-length-encoded XOR against the previous epoch's
    /// contents of the same page.
    Delta(DeltaPage),
    /// Full 4 KiB body (first touch of the page, or dense churn where the
    /// delta encoding would not be smaller). Shares the captured buffer —
    /// encoding a full page allocates nothing.
    Full(PageBuf),
}

impl PageEncoding {
    /// Classification name (stats and reports).
    pub fn class(&self) -> &'static str {
        match self {
            PageEncoding::Zero => "zero",
            PageEncoding::Delta(_) => "delta",
            PageEncoding::Full(_) => "full",
        }
    }

    /// Modeled wire bytes of this encoding (what `transfer_cost` charges).
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            PageEncoding::Zero => HEADER_BYTES,
            PageEncoding::Delta(dp) => {
                HEADER_BYTES
                    + RUN_HEADER_BYTES * dp.runs.len() as u64
                    + 8 * dp.xor_words.len() as u64
            }
            PageEncoding::Full(_) => HEADER_BYTES + PAGE_SIZE as u64,
        }
    }

    /// Reconstruct the exact page bytes this encoding represents, given the
    /// receiver's current copy of the page (`None` if the page was never seen
    /// — only `Zero` and `Full` are self-contained; applying a `Delta`
    /// without a base is an image-corruption error upstream, here it applies
    /// against an all-zero base to stay total).
    pub fn apply(&self, base: Option<&[u8; PAGE_SIZE]>) -> PageBuf {
        match self {
            PageEncoding::Zero => zero_page(),
            PageEncoding::Full(data) => data.clone(),
            PageEncoding::Delta(dp) => {
                let mut page: [u8; PAGE_SIZE] = match base {
                    Some(b) => *b,
                    None => [0u8; PAGE_SIZE],
                };
                for (word_off, words) in dp.iter_runs() {
                    let mut off = word_off as usize * 8;
                    for xw in words {
                        let w = u64::from_le_bytes(page[off..off + 8].try_into().unwrap()) ^ xw;
                        page[off..off + 8].copy_from_slice(&w.to_le_bytes());
                        off += 8;
                    }
                }
                Rc::new(page)
            }
        }
    }
}

/// Per-epoch delta-pipeline accounting (feeds the `DeltaEncode` trace span).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pages elided as all-zero.
    pub zero_pages: u64,
    /// Pages shipped as sparse XOR deltas.
    pub delta_pages: u64,
    /// Pages shipped in full (first touch / dense churn).
    pub full_pages: u64,
    /// Raw bytes the full-page path would have shipped (`pages × 4 KiB`).
    pub raw_bytes: u64,
    /// Bytes actually put on the wire after encoding.
    pub encoded_bytes: u64,
}

impl DeltaStats {
    /// Total pages classified this epoch.
    pub fn pages(&self) -> u64 {
        self.zero_pages + self.delta_pages + self.full_pages
    }

    /// Accumulate another epoch's stats (run totals in reports).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.zero_pages += other.zero_pages;
        self.delta_pages += other.delta_pages;
        self.full_pages += other.full_pages;
        self.raw_bytes += other.raw_bytes;
        self.encoded_bytes += other.encoded_bytes;
    }
}

/// Primary-side shadow of the page contents most recently shipped to the
/// backup, keyed like the backup's page store. Encoding a page both
/// classifies it against the shadow copy and updates the shadow, so the next
/// epoch's delta is always relative to what the backup will hold once it
/// applies this epoch (the backup applies epochs strictly in order, §IV).
#[derive(Debug, Default)]
pub struct ShadowStore {
    pages: HashMap<PageKey, PageBuf, PageKeyBuild>,
}

impl ShadowStore {
    /// Empty shadow (before the initial sync).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages currently shadowed.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True before any page was encoded.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Classify and encode one dirty page against the shadow copy, updating
    /// the shadow and `stats`.
    pub fn encode(&mut self, key: PageKey, data: &PageBuf, stats: &mut DeltaStats) -> PageEncoding {
        stats.raw_bytes += PAGE_SIZE as u64;
        // One shadow lookup covers classification and update; the shadow
        // takes an `Rc` clone, so the shadow, the in-flight encoding, and
        // the caller's staging buffer all share one immutable allocation (a
        // zero page shadows its literal zero contents, so later deltas
        // against it are correct).
        let enc = match self.pages.entry(key) {
            Entry::Vacant(e) => {
                let enc = if is_zero_page(data) {
                    stats.zero_pages += 1;
                    PageEncoding::Zero
                } else {
                    stats.full_pages += 1;
                    PageEncoding::Full(data.clone())
                };
                e.insert(data.clone());
                enc
            }
            Entry::Occupied(mut e) => {
                let enc = if is_zero_page(data) {
                    stats.zero_pages += 1;
                    PageEncoding::Zero
                } else {
                    let delta = PageEncoding::Delta(xor_runs(e.get(), data));
                    if delta.encoded_bytes() < PAGE_SIZE as u64 {
                        stats.delta_pages += 1;
                        delta
                    } else {
                        // Dense churn: the diff would not beat the raw page.
                        stats.full_pages += 1;
                        PageEncoding::Full(data.clone())
                    }
                };
                e.insert(data.clone());
                enc
            }
        };
        stats.encoded_bytes += enc.encoded_bytes();
        enc
    }
}

/// All-zero check, one 64-byte block compare at a time (vectorized memcmp).
fn is_zero_page(data: &[u8; PAGE_SIZE]) -> bool {
    const ZERO_BLOCK: [u8; BLOCK_BYTES] = [0u8; BLOCK_BYTES];
    data.chunks_exact(BLOCK_BYTES).all(|b| b == ZERO_BLOCK)
}

/// Per-word diff bitmap of a page: bit `w` of `result[w / 64]` is set iff
/// 64-bit word `w` differs between `old` and `new`. Dispatches to the widest
/// vector kernel the CPU supports; `is_x86_feature_detected!` caches its
/// CPUID probe, so the per-call dispatch cost is a predicted branch.
#[inline]
pub fn diff_word_bitmap(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
) -> [u64; WORDS_PER_PAGE / 64] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f support was just verified at runtime.
            return unsafe { diff_word_bitmap_avx512(old, new) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { diff_word_bitmap_avx2(old, new) };
        }
    }
    diff_word_bitmap_scalar(old, new)
}

/// AVX-512 word diff: `vpcmpq` yields one inequality bit per 64-bit lane
/// directly in a mask register — two memory operations plus one compare per
/// 64-byte block, and the per-word bitmap falls out for free (no second
/// pass over changed blocks is ever needed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn diff_word_bitmap_avx512(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
) -> [u64; WORDS_PER_PAGE / 64] {
    use std::arch::x86_64::*;
    let mut bm = [0u64; WORDS_PER_PAGE / 64];
    for (chunk, out) in bm.iter_mut().enumerate() {
        let mut acc = 0u64;
        // 8 blocks of 64 bytes = the 64 words covered by one bitmap entry.
        for block in 0..8 {
            let off = chunk * 512 + block * BLOCK_BYTES;
            // SAFETY: `off + 64 <= PAGE_SIZE`; unaligned loads are explicit.
            let o = unsafe { _mm512_loadu_si512(old.as_ptr().add(off) as *const _) };
            let n = unsafe { _mm512_loadu_si512(new.as_ptr().add(off) as *const _) };
            let k = _mm512_cmpneq_epi64_mask(o, n) as u64;
            acc |= k << (block * 8);
        }
        *out = acc;
    }
    bm
}

/// AVX2 word diff: `vpcmpeqq` per 32-byte half, sign bits extracted with
/// `vmovmskpd` (one bit per 64-bit lane), then inverted into inequality.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn diff_word_bitmap_avx2(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
) -> [u64; WORDS_PER_PAGE / 64] {
    use std::arch::x86_64::*;
    let mut bm = [0u64; WORDS_PER_PAGE / 64];
    for (chunk, out) in bm.iter_mut().enumerate() {
        let mut acc = 0u64;
        for block in 0..8 {
            let off = chunk * 512 + block * BLOCK_BYTES;
            // SAFETY: `off + 64 <= PAGE_SIZE`; unaligned loads are explicit.
            let eq = unsafe {
                let o0 = _mm256_loadu_si256(old.as_ptr().add(off) as *const _);
                let o1 = _mm256_loadu_si256(old.as_ptr().add(off + 32) as *const _);
                let n0 = _mm256_loadu_si256(new.as_ptr().add(off) as *const _);
                let n1 = _mm256_loadu_si256(new.as_ptr().add(off + 32) as *const _);
                let e0 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(o0, n0)));
                let e1 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(o1, n1)));
                (e0 as u64 & 0xf) | ((e1 as u64 & 0xf) << 4)
            };
            acc |= (!eq & 0xff) << (block * 8);
        }
        *out = acc;
    }
    bm
}

/// Portable word diff (and the reference the vector kernels are tested
/// against): one branch-free XOR pass, one bitmap bit per word. Public, like
/// [`diff_word_bitmap`], so a host-clock gate can time both kernels on the
/// same pages in the same process.
pub fn diff_word_bitmap_scalar(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
) -> [u64; WORDS_PER_PAGE / 64] {
    let mut bm = [0u64; WORDS_PER_PAGE / 64];
    for (chunk, out) in bm.iter_mut().enumerate() {
        let mut acc = 0u64;
        for w in 0..64 {
            let off = (chunk * 64 + w) * 8;
            let ow = u64::from_le_bytes(old[off..off + 8].try_into().unwrap());
            let nw = u64::from_le_bytes(new[off..off + 8].try_into().unwrap());
            acc |= u64::from(ow != nw) << w;
        }
        *out = acc;
    }
    bm
}

/// Word-level XOR diff of two pages, as maximal runs of changed words over a
/// flat payload.
///
/// A vectorized pass ([`diff_word_bitmap`]) finds exactly which 64-bit words
/// changed; the run builder then touches only those words — no rescan of
/// unchanged data. Runs of consecutive set bits become [`DeltaRun`]s, so the
/// output is byte-identical to a plain full-page word scan.
fn xor_runs(old: &[u8; PAGE_SIZE], new: &[u8; PAGE_SIZE]) -> DeltaPage {
    let bm = diff_word_bitmap(old, new);
    let total: usize = bm.iter().map(|b| b.count_ones() as usize).sum();
    let mut dp = DeltaPage::default();
    if total == 0 {
        return dp;
    }
    // The exact word count is known up front: one allocation each, no
    // regrowth (runs can never outnumber changed words).
    dp.xor_words.reserve_exact(total);
    dp.runs.reserve_exact(total);
    let mut prev_word = usize::MAX - 1;
    for (chunk, &chunk_bits) in bm.iter().enumerate() {
        let mut bits = chunk_bits;
        while bits != 0 {
            let w = chunk * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let off = w * 8;
            let ow = u64::from_le_bytes(old[off..off + 8].try_into().unwrap());
            let nw = u64::from_le_bytes(new[off..off + 8].try_into().unwrap());
            if w == prev_word + 1 {
                dp.runs.last_mut().expect("adjacent word extends a run").len += 1;
            } else {
                dp.runs.push(DeltaRun {
                    word_off: w as u16,
                    len: 1,
                });
            }
            dp.xor_words.push(ow ^ nw);
            prev_word = w;
        }
    }
    dp
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::Pid;

    fn key(vpn: u64) -> PageKey {
        PageKey { pid: Pid(1), vpn }
    }

    fn page_with(edits: &[(usize, u8)]) -> PageBuf {
        let mut p = [0u8; PAGE_SIZE];
        for &(i, v) in edits {
            p[i] = v;
        }
        Rc::new(p)
    }

    #[test]
    fn zero_page_elides_to_one_word() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let enc = s.encode(key(1), &zero_page(), &mut st);
        assert_eq!(enc, PageEncoding::Zero);
        assert_eq!(enc.encoded_bytes(), 8);
        assert_eq!(st.zero_pages, 1);
        assert_eq!(*enc.apply(None), [0u8; PAGE_SIZE]);
    }

    #[test]
    fn first_touch_ships_full_page() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let p = page_with(&[(0, 7)]);
        let enc = s.encode(key(1), &p, &mut st);
        assert!(matches!(enc, PageEncoding::Full(_)));
        assert_eq!(enc.encoded_bytes(), 8 + PAGE_SIZE as u64);
        assert_eq!(enc.apply(None), p);
    }

    #[test]
    fn full_encoding_shares_the_input_buffer() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let p = page_with(&[(0, 7)]);
        let enc = s.encode(key(1), &p, &mut st);
        match enc {
            PageEncoding::Full(buf) => {
                assert!(Rc::ptr_eq(&buf, &p), "zero-copy: same allocation");
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn sparse_rewrite_becomes_small_delta() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(16, 1), (17, 2)]);
        s.encode(key(1), &v1, &mut st);
        // Touch one word: delta is header + one run (one word).
        let v2 = page_with(&[(16, 1), (17, 99)]);
        let enc = s.encode(key(1), &v2, &mut st);
        assert!(matches!(enc, PageEncoding::Delta(_)));
        assert_eq!(enc.encoded_bytes(), 8 + 8 + 8);
        assert_eq!(enc.apply(Some(&v1)), v2, "delta reconstructs exactly");
        assert_eq!(st.delta_pages, 1);
        assert_eq!(st.raw_bytes, 2 * PAGE_SIZE as u64);
        assert!(st.encoded_bytes < st.raw_bytes);
    }

    #[test]
    fn adjacent_changed_words_coalesce_into_one_run() {
        let old = page_with(&[]);
        let new = page_with(&[(8, 1), (16, 2), (24, 3)]); // words 1,2,3
        let dp = xor_runs(&old, &new);
        assert_eq!(dp.runs.len(), 1);
        assert_eq!(dp.runs[0].word_off, 1);
        assert_eq!(dp.runs[0].len, 3);
        assert_eq!(dp.words(), 3);
    }

    #[test]
    fn run_straddling_a_block_boundary_stays_one_run() {
        // Words 6..10 span the first/second 64-byte blocks; the block-skip
        // scan must still produce one maximal run, like the plain word scan.
        let old = page_with(&[]);
        let new = page_with(&[(48, 1), (56, 2), (64, 3), (72, 4)]); // words 6..=9
        let dp = xor_runs(&old, &new);
        assert_eq!(dp.runs.len(), 1);
        assert_eq!(dp.runs[0].word_off, 6);
        assert_eq!(dp.runs[0].len, 4);
    }

    #[test]
    fn flat_runs_iterate_with_correct_payload_slices() {
        // Two separated runs: words 0..2 and word 100.
        let old = page_with(&[]);
        let new = page_with(&[(0, 1), (8, 2), (800, 3)]);
        let dp = xor_runs(&old, &new);
        let collected: Vec<(u16, Vec<u64>)> =
            dp.iter_runs().map(|(off, ws)| (off, ws.to_vec())).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[0].1, vec![1, 2]);
        assert_eq!(collected[1].0, 100);
        assert_eq!(collected[1].1, vec![3]);
    }

    #[test]
    fn vector_block_diff_matches_scalar_reference() {
        // Adversarial placements: block edges, word edges, dense stretches.
        let mut old = [0u8; PAGE_SIZE];
        let mut new = [0u8; PAGE_SIZE];
        for i in 0..PAGE_SIZE {
            old[i] = (i * 7 + 3) as u8;
            new[i] = old[i];
        }
        for &i in &[0usize, 63, 64, 127, 511, 512, 2048, 4095] {
            new[i] ^= 0x80;
        }
        for b in new.iter_mut().skip(1024).take(256) {
            *b = b.wrapping_add(1); // a dense 4-block stretch
        }
        assert_eq!(
            diff_word_bitmap(&old, &new),
            diff_word_bitmap_scalar(&old, &new),
            "dispatched kernel must agree with the scalar reference"
        );
        // And the zero-diff case.
        assert_eq!(diff_word_bitmap(&old, &old), [0u64; WORDS_PER_PAGE / 64]);
    }

    #[test]
    fn dense_churn_falls_back_to_full() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(0, 1)]);
        s.encode(key(1), &v1, &mut st);
        // Rewrite every word: the delta would exceed a raw page.
        let mut raw = [0u8; PAGE_SIZE];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
        let v2 = Rc::new(raw);
        let enc = s.encode(key(1), &v2, &mut st);
        assert!(matches!(enc, PageEncoding::Full(_)), "dense diff not taken");
        assert_eq!(enc.apply(Some(&v1)), v2);
    }

    #[test]
    fn page_returning_to_zero_is_elided_and_shadowed_as_zero() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(100, 5)]);
        s.encode(key(1), &v1, &mut st);
        let enc = s.encode(key(1), &zero_page(), &mut st);
        assert_eq!(enc, PageEncoding::Zero);
        // A later sparse write deltas against the *zero* shadow, not v1.
        let v3 = page_with(&[(100, 9)]);
        let enc3 = s.encode(key(1), &v3, &mut st);
        let base = [0u8; PAGE_SIZE];
        assert_eq!(enc3.apply(Some(&base)), v3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = DeltaStats {
            zero_pages: 1,
            delta_pages: 2,
            full_pages: 3,
            raw_bytes: 100,
            encoded_bytes: 50,
        };
        a.merge(&a.clone());
        assert_eq!(a.pages(), 12);
        assert_eq!(a.raw_bytes, 200);
        assert_eq!(a.encoded_bytes, 100);
    }
}
