//! Packed, tiled, optionally rayon-parallel matrix multiplication.
//!
//! Three kernels cover everything backpropagation needs without ever
//! materializing a transposed copy:
//!
//! * [`matmul`]     — `C = A·B`      (forward pass)
//! * [`matmul_tn`]  — `C = Aᵀ·B`     (weight gradients)
//! * [`matmul_nt`]  — `C = A·Bᵀ`     (input gradients)
//!
//! All three route through one packed gemm core: operands are described
//! by a `MatRef` view (a transpose is a flag on the view, never a
//! copy) and blocked MC×KC×NC. `A` is packed into MR-wide panels; a
//! row-major `B` (every NN and TN call) is streamed by the MR×NR
//! register microkernel where it lies, at its own row stride, and only
//! a ragged last panel is packed; a transposed `B` (NT) is packed into
//! NR-wide panels by 8×8 in-register transposes (an AVX2 body and a
//! portable one), element by element only in the `k % 8` and `n % 8`
//! tails. Both packs walk their source contiguously. A tile NR columns
//! wide in the first KC block is stored by the microkernel straight into
//! `C`; the others go through an accumulator array.
//!
//! Parallelism fans the MC row-blocks of `C` out over threads. Each
//! block runs byte-for-byte the same code serially or in parallel, so
//! results are bit-identical for any thread count — a requirement for
//! the distributed bit-exactness tests (same-seed single-process vs TCP
//! multi-process runs must agree exactly).
//!
//! Every output element is one fused multiply-add chain over the
//! contraction index, ascending from `+0.0` within each KC block, the
//! blocks added in order, on every host: [`reference`](mod@reference)
//! computes exactly that, one element at a time, and the packed kernels
//! are held to it bit for bit (`tests/proptest_packed_kernels.rs`).

use crate::tensor::Tensor;
use crate::MATMUL_PAR_MACS;
use rayon::prelude::*;
use std::cell::RefCell;

/// Register-block rows: each microkernel invocation produces an MR×NR
/// tile of `C` held entirely in accumulator registers. 6×16 f32 = 12
/// ymm accumulators on AVX2, leaving registers for the B loads and the
/// A broadcast.
const MR: usize = 6;
/// Register-block columns; 16 f32 = two AVX2 lanes / four NEON lanes,
/// wide enough for the compiler to autovectorize the inner update.
const NR: usize = 16;
/// K-dimension block: one packed A panel (KC×MR floats = 4 KiB, kept on
/// the stack) and one B panel row-run fit comfortably in L1/L2.
pub(crate) const KC: usize = 256;
/// Row block fanned out as the unit of parallelism; MC×KC of packed A
/// is 64 KiB, well inside L2.
const MC: usize = 64;
/// Column block bounding the packed B buffer at KC×NC = 512 KiB.
const NC: usize = 512;

/// Explicit parallelism control for the `*_into_with` kernel variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Par {
    /// Parallelize when one parallel region's MAC count crosses
    /// [`MATMUL_PAR_MACS`].
    Auto,
    /// Force the serial path.
    Never,
    /// Force the row-block fan-out (used by determinism tests).
    Always,
}

/// Read-only view of a rank-2 operand over row-major storage, so one
/// gemm core serves NN, TN and NT.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    /// Element distance between consecutive stored rows.
    ld: usize,
    /// The operand is the transpose of what is stored: element `(i, j)`
    /// lives at `data[j * ld + i]` instead of `data[i * ld + j]`.
    trans: bool,
}

thread_local! {
    /// Packed-B scratch, reused across gemm calls on the same thread so
    /// steady-state training steps do not reallocate it.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _k, n) = dims_nn(a, b);
    let mut c = Tensor::zeros([m, n]);
    matmul_into(a, b, &mut c);
    c
}

/// `C = A·B` writing into a preallocated `C[m,n]` (contents overwritten).
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    matmul_into_with(a, b, c, Par::Auto);
}

/// [`matmul_into`] with explicit parallelism control.
pub fn matmul_into_with(a: &Tensor, b: &Tensor, c: &mut Tensor, par: Par) {
    let (m, k, n) = dims_nn(a, b);
    assert_eq!(c.shape().dims(), &[m, n], "output shape mismatch");
    let av = MatRef {
        data: a.as_slice(),
        ld: k,
        trans: false,
    };
    let bv = MatRef {
        data: b.as_slice(),
        ld: n,
        trans: false,
    };
    gemm(m, n, k, av, bv, c.as_mut_slice(), par);
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` where `A` is `[m,k]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (_m, k) = dims2(a);
    let (_m2, n) = dims2(b);
    let mut c = Tensor::zeros([k, n]);
    matmul_tn_into(a, b, &mut c);
    c
}

/// `C = Aᵀ·B` writing into a preallocated `C[k,n]` (contents overwritten).
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    matmul_tn_into_with(a, b, c, Par::Auto);
}

/// [`matmul_tn_into`] with explicit parallelism control.
pub fn matmul_tn_into_with(a: &Tensor, b: &Tensor, c: &mut Tensor, par: Par) {
    let (m, k) = dims2(a);
    let (m2, n) = dims2(b);
    assert_eq!(m, m2, "matmul_tn inner dimension mismatch ({m} vs {m2})");
    assert_eq!(c.shape().dims(), &[k, n], "output shape mismatch");
    // Effective operand Aᵀ is [k, m]: element (i, p) lives at A[p, i].
    let av = MatRef {
        data: a.as_slice(),
        ld: k,
        trans: true,
    };
    let bv = MatRef {
        data: b.as_slice(),
        ld: n,
        trans: false,
    };
    gemm(k, n, m, av, bv, c.as_mut_slice(), par);
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` where `B` is `[k,n]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _n) = dims2(a);
    let (k, _n2) = dims2(b);
    let mut c = Tensor::zeros([m, k]);
    matmul_nt_into(a, b, &mut c);
    c
}

/// `C = A·Bᵀ` writing into a preallocated `C[m,k]` (contents overwritten).
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    matmul_nt_into_with(a, b, c, Par::Auto);
}

/// [`matmul_nt_into`] with explicit parallelism control.
pub fn matmul_nt_into_with(a: &Tensor, b: &Tensor, c: &mut Tensor, par: Par) {
    let (m, n) = dims2(a);
    let (k, n2) = dims2(b);
    assert_eq!(n, n2, "matmul_nt inner dimension mismatch ({n} vs {n2})");
    assert_eq!(c.shape().dims(), &[m, k], "output shape mismatch");
    let av = MatRef {
        data: a.as_slice(),
        ld: n,
        trans: false,
    };
    // Effective operand Bᵀ is [n, k]: element (p, j) lives at B[j, p].
    let bv = MatRef {
        data: b.as_slice(),
        ld: n,
        trans: true,
    };
    gemm(m, k, n, av, bv, c.as_mut_slice(), par);
}

/// One KC×NC block of `B` as the microkernel reads it: `direct`
/// NR-wide panels streamed from the operand where it lies (row stride
/// `ld`), followed by the panels packed into `packed` (row stride NR).
#[derive(Clone, Copy)]
struct BBlock<'a> {
    /// The operand from row `pc`, column `jc` on; empty when `direct == 0`.
    src: &'a [f32],
    ld: usize,
    direct: usize,
    packed: &'a [f32],
}

impl BBlock<'_> {
    fn panels(&self, kc: usize) -> usize {
        self.direct + self.packed.len() / (kc * NR)
    }

    /// Panel `jp` as `(rows, row stride)`: row `p` is `rows[p*ld..][..NR]`.
    #[inline(always)]
    fn panel(&self, jp: usize, kc: usize) -> (&[f32], usize) {
        if jp < self.direct {
            (&self.src[jp * NR..], self.ld)
        } else {
            let at = (jp - self.direct) * kc * NR;
            (&self.packed[at..at + kc * NR], NR)
        }
    }
}

/// Packed gemm core: `C[m,n] = A_eff[m,k] · B_eff[k,n]` with both
/// operands given as views. `C` is fully overwritten.
fn gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], par: Par) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // Parallelize only when there are at least two row blocks to fan
    // out AND the work amortizes the OS-thread spawn of the vendored
    // rayon (no persistent pool). Every (KC, NC) block below is its own
    // parallel region, so it is one region's work, not the call's, that
    // has to pay for a spawn. The decision depends only on the shape, so
    // every rank in a distributed run takes the same path.
    let parallel = match par {
        Par::Auto => m > MC && m * n.min(NC) * k.min(KC) >= MATMUL_PAR_MACS,
        Par::Never => false,
        Par::Always => true,
    };
    PACK_B.with(|pb| {
        let mut pb = pb.borrow_mut();
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let first = pc == 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                // A row-major B already has the microkernel's layout but
                // for its row stride: stream its full panels in place and
                // pack only the ragged rest (zero-padded to NR).
                let direct = if b.trans { 0 } else { nc / NR };
                let j_packed = jc + direct * NR;
                let packed_cols = jc + nc - j_packed;
                let need = packed_cols.div_ceil(NR) * NR * kc;
                if pb.len() < need {
                    pb.resize(need, 0.0);
                }
                pack_b(
                    &mut pb[..need],
                    b,
                    pc,
                    kc,
                    j_packed,
                    packed_cols,
                    avx2_available(),
                );
                let bb = BBlock {
                    src: if direct > 0 {
                        &b.data[pc * b.ld + jc..]
                    } else {
                        &[]
                    },
                    ld: b.ld,
                    direct,
                    packed: &pb[..need],
                };
                if parallel {
                    c.par_chunks_mut(MC * n)
                        .enumerate()
                        .for_each(|(blk, rows)| {
                            gemm_block(
                                blk * MC,
                                rows.len() / n,
                                n,
                                kc,
                                pc,
                                jc,
                                nc,
                                a,
                                bb,
                                rows,
                                first,
                            );
                        });
                } else {
                    for (blk, rows) in c.chunks_mut(MC * n).enumerate() {
                        gemm_block(
                            blk * MC,
                            rows.len() / n,
                            n,
                            kc,
                            pc,
                            jc,
                            nc,
                            a,
                            bb,
                            rows,
                            first,
                        );
                    }
                }
            }
        }
    });
}

/// Compute one MC row-block of `C` against one block of `B`.
/// `c_rows` is the block's `mc` full rows of `C`; `first` selects store
/// vs accumulate (KC blocks after the first add into `C`).
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    ic: usize,
    mc: usize,
    n: usize,
    kc: usize,
    pc: usize,
    jc: usize,
    nc: usize,
    a: MatRef<'_>,
    bb: BBlock<'_>,
    c_rows: &mut [f32],
    first: bool,
) {
    // One packed A panel ([kc × MR]) lives on the stack.
    let mut ap = [0.0f32; KC * MR];
    for ir in (0..mc).step_by(MR) {
        let mr = MR.min(mc - ir);
        pack_a(&mut ap, a, ic + ir, mr, pc, kc);
        for jp in 0..bb.panels(kc) {
            let j0 = jc + jp * NR;
            let nr = NR.min(jc + nc - j0);
            let (bpanel, ldb) = bb.panel(jp, kc);
            if first && nr == NR {
                // A full-width tile of the first KC block is stored
                // straight into C's rows at stride `n`.
                microkernel(mr, &ap, bpanel, ldb, kc, &mut c_rows[ir * n + j0..], n);
                continue;
            }
            let mut acc = [0.0f32; MR * NR];
            microkernel(mr, &ap, bpanel, ldb, kc, &mut acc, NR);
            for (i, acc_row) in acc.chunks_exact(NR).enumerate().take(mr) {
                let base = (ir + i) * n + j0;
                let row = &mut c_rows[base..base + nr];
                if first {
                    row.copy_from_slice(&acc_row[..nr]);
                } else {
                    for (cv, av) in row.iter_mut().zip(acc_row) {
                        *cv += av;
                    }
                }
            }
        }
    }
}

/// Pack `mr` rows of the A view's KC block into `ap` in panel-major
/// order: `ap[p*MR + i] = A_eff[row0+i, pc+p]` for `i < mr` (the
/// microkernel never reads the rest of a short panel). Either layout is
/// read in storage order.
fn pack_a(ap: &mut [f32; KC * MR], a: MatRef<'_>, row0: usize, mr: usize, pc: usize, kc: usize) {
    if a.trans {
        for (p, dst) in ap.chunks_exact_mut(MR).take(kc).enumerate() {
            let src = (pc + p) * a.ld + row0;
            dst[..mr].copy_from_slice(&a.data[src..src + mr]);
        }
    } else {
        for i in 0..mr {
            let src = (row0 + i) * a.ld + pc;
            for (dst, &v) in ap.chunks_exact_mut(MR).zip(&a.data[src..src + kc]) {
                dst[i] = v;
            }
        }
    }
}

/// Pack `nc` columns of the B view's KC block, from column `j0` on,
/// into NR-wide panels (zero-padded): panel `jp` holds
/// `bp[jp*kc*NR + p*NR + j] = B_eff[pc+p, j0+jp*NR+j]`. Either layout
/// is read in storage order; a transposed B through the AVX2 transpose
/// body when `avx2` is set and [`avx2_available`] holds.
fn pack_b(bp: &mut [f32], b: MatRef<'_>, pc: usize, kc: usize, j0: usize, nc: usize, avx2: bool) {
    for (jp, panel) in bp.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = j0 + jp * NR;
        let nr = NR.min(nc - jp * NR);
        if nr < NR {
            panel.fill(0.0);
        }
        if b.trans {
            pack_b_trans(panel, b.data, b.ld, pc, kc, j0, nr, avx2);
        } else {
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                let src = (pc + p) * b.ld + j0;
                dst[..nr].copy_from_slice(&b.data[src..src + nr]);
            }
        }
    }
}

/// One panel of a transposed B: stored row `j0 + j` (its elements from
/// `pc` to `pc + kc`) becomes column `j` of the panel. The whole 8×8
/// blocks are transposed in registers; the `kc % 8` and `nr % 8` tails
/// are moved one element at a time.
#[allow(clippy::too_many_arguments)]
fn pack_b_trans(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    pc: usize,
    kc: usize,
    j0: usize,
    nr: usize,
    avx2: bool,
) {
    let (kb, jb) = (kc - kc % 8, nr - nr % 8);
    if kb > 0 && jb > 0 {
        transpose_blocks(panel, src, ld, pc, kb, j0, jb, avx2);
    }
    for j in 0..nr {
        // columns below `jb` are done up to `kb` already
        let p0 = if j < jb { kb } else { 0 };
        let row = &src[(j0 + j) * ld + pc..][..kc];
        for (dst, &v) in panel[p0 * NR..].chunks_exact_mut(NR).zip(&row[p0..]) {
            dst[j] = v;
        }
    }
}

/// Transpose every 8×8 block with column offset `jj < jb` and row
/// offset `pp < kb` (both multiples of 8):
/// `panel[(pp+q)*NR + jj+r] = src[(j0+jj+r)*ld + pc+pp+q]`. The AVX2
/// body runs when `avx2` is set and the host has the feature.
#[allow(clippy::too_many_arguments)]
fn transpose_blocks(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    pc: usize,
    kb: usize,
    j0: usize,
    jb: usize,
    avx2: bool,
) {
    // Both bodies move whole 8-float rows: the bounds of every block
    // are checked here, once per panel.
    assert!(
        kb.is_multiple_of(8)
            && jb.is_multiple_of(8)
            && jb <= NR
            && panel.len() >= kb * NR
            && src.len() >= (j0 + jb - 1) * ld + pc + kb
    );
    #[cfg(target_arch = "x86_64")]
    if avx2 && avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature, and the
        // assert above is the body's bounds contract.
        unsafe { transpose_blocks_avx2(panel, src, ld, pc, kb, j0, jb) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2;
    transpose_blocks_portable(panel, src, ld, pc, kb, j0, jb);
}

/// Portable body of [`transpose_blocks`].
fn transpose_blocks_portable(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    pc: usize,
    kb: usize,
    j0: usize,
    jb: usize,
) {
    for jj in (0..jb).step_by(8) {
        for pp in (0..kb).step_by(8) {
            let mut block = [[0.0f32; 8]; 8];
            for (r, row) in block.iter_mut().enumerate() {
                let at = (j0 + jj + r) * ld + pc + pp;
                *row = src[at..at + 8].try_into().expect("an 8-float row");
            }
            for (q, dst) in panel[pp * NR..].chunks_exact_mut(NR).take(8).enumerate() {
                for (r, row) in block.iter().enumerate() {
                    dst[jj + r] = row[q];
                }
            }
        }
    }
}

/// AVX2 body of [`transpose_blocks`]: eight row loads, three shuffle
/// stages and eight row stores per block.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2`, that `kb` and `jb` are
/// multiples of 8 with `jb <= NR`, `panel.len() >= kb * NR` and
/// `src.len() >= (j0 + jb - 1) * ld + pc + kb`.
// SAFETY: unsafe because of #[target_feature] and the raw-pointer
// loads and stores — the sole caller is gated on avx2_available() and
// asserts the lengths, which bound every load `(j0+jj+r)*ld + pc+pp + 8
// <= src.len()` for `r < 8`, `jj + 8 <= jb`, `pp + 8 <= kb`, and every
// store `(pp+q)*NR + jj + 8 <= kb*NR` for `q < 8`.
// lint:allow(simd-intrinsic): a 72×16 NT panel takes 167–173 ns here against 504–841 ns for transpose_blocks_portable compiled for AVX2 (2-vCPU AVX2+FMA host, best of 7 × 20 000 calls)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_blocks_avx2(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    pc: usize,
    kb: usize,
    j0: usize,
    jb: usize,
) {
    use std::arch::x86_64::*;
    let (s, d) = (src.as_ptr(), panel.as_mut_ptr());
    for jj in (0..jb).step_by(8) {
        for pp in (0..kb).step_by(8) {
            let at = (j0 + jj) * ld + pc + pp;
            let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(s.add(at + i * ld)));
            let cols = transpose8(r);
            for (q, col) in cols.into_iter().enumerate() {
                _mm256_storeu_ps(d.add((pp + q) * NR + jj), col);
            }
        }
    }
}

/// An 8×8 block transposed in registers: element `q` of output `r` is
/// element `r` of input `q`, by three unpack/shuffle/permute stages.
/// It touches no memory. It carries no `target_feature` so that it can
/// be `#[inline(always)]`: it is compiled only inside its callers, which
/// are compiled for AVX2. Left out of line, the lane layout's
/// `to_lanes` ran about 6× slower; `ci.sh` checks that the release
/// binary has no `transpose8` symbol.
///
/// # Safety
/// The CPU must support `avx2`.
// SAFETY: unsafe only for the avx2 contract; the body is register
// shuffles and touches no memory.
// lint:allow(simd-intrinsic): the NT pack's and the lane layout's 8×8 blocks; their safe twins take 2.9–5.0× and 2.2–3.7× the time (see transpose_blocks_avx2 and attention::transpose_block)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn transpose8(
    r: [std::arch::x86_64::__m256; 8],
) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    // pairs of rows interleaved
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    // columns q and q + 4 of four rows
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    // column q of all eight rows
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// Whether the host has AVX2 and FMA, so the kernels' bodies compiled
/// for them can run. Detected once; the result is stable for the process
/// lifetime, so kernel dispatch is deterministic.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx2_available() -> bool {
    false
}

/// Register microkernel: `C[..mr] = Apanel[kc×MR]ᵀ[..mr] · Bpanel[kc×NR]`,
/// row `p` of the B panel at `bp[p*ldb..][..NR]` and row `i` of the
/// tile stored to `c[i*ldc..][..NR]` (overwritten). The B panel is either
/// packed and zero-padded or a full in-place panel, and a short A panel
/// runs the variant with exactly `mr` accumulator rows, so the loop
/// body is branch-free and multiplies no padding rows. Every element is
/// one fused chain over `p` from `+0.0`.
#[inline(always)]
fn microkernel(
    mr: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
) {
    match mr {
        1 => microkernel_rows::<1>(ap, bp, ldb, kc, c, ldc),
        2 => microkernel_rows::<2>(ap, bp, ldb, kc, c, ldc),
        3 => microkernel_rows::<3>(ap, bp, ldb, kc, c, ldc),
        4 => microkernel_rows::<4>(ap, bp, ldb, kc, c, ldc),
        5 => microkernel_rows::<5>(ap, bp, ldb, kc, c, ldc),
        _ => microkernel_rows::<MR>(ap, bp, ldb, kc, c, ldc),
    }
}

/// [`microkernel`] on the first `M` rows of the A panel and of the tile:
/// one safe body, compiled twice. This dispatches to the compilation
/// for AVX2 and FMA when the host has both; at rustc's baseline x86-64
/// target the loop runs at SSE2 width and each `mul_add` is a libm
/// `fmaf` call, with the same bits, slowly.
#[inline(always)]
fn microkernel_rows<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: avx2_available() verified the avx2 and fma features the
        // body is compiled for; the body is safe code.
        unsafe { microkernel_fma::<M>(ap, bp, ldb, kc, c, ldc) };
        return;
    }
    microkernel_body::<M>(ap, bp, ldb, kc, c, ldc);
}

/// [`microkernel_body`] compiled for AVX2 and FMA: each row step is two
/// ymm loads of B, and per A row a broadcast and two `vfmadd231ps`. A
/// safe fn; its caller checks the features in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn microkernel_fma<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
) {
    microkernel_body::<M>(ap, bp, ldb, kc, c, ldc);
}

/// The body of [`microkernel_rows`]. After B's row 0, the panel from
/// `NR` on is `kc - 1` chunks of `ldb` floats, and chunk `p` ends with
/// row `p + 1`. The loop walks A's rows in exact chunks and splits one
/// chunk of B off per row: no division counts B's chunks (a 64-bit
/// `div` per tile, which `dcols`'s 384 short tiles a call paid), and
/// the split's length test is the one check a row step makes. The loops
/// over `M` rows have a constant trip
/// count, so the accumulators live in registers from the first step to
/// the store, and each accumulator row is two arrays of eight floats,
/// one ymm register each.
#[inline(always)]
fn microkernel_body<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
) {
    // the slicing checks every operand's length, once per tile
    assert!(kc > 0 && ldb >= NR);
    let mut acc = [[[0.0f32; 8]; 2]; M];
    let (a_first, a_rest) = ap[..kc * MR].split_at(MR);
    let (b_first, mut b_rest) = bp[..(kc - 1) * ldb + NR].split_at(NR);
    microkernel_step(&mut acc, a_first, b_first);
    for arow in a_rest.chunks_exact(MR) {
        let (chunk, rest) = b_rest.split_at(ldb);
        microkernel_step(&mut acc, arow, &chunk[ldb - NR..]);
        b_rest = rest;
    }
    for (i, [acc0, acc1]) in acc.iter().enumerate() {
        let row = &mut c[i * ldc..i * ldc + NR];
        row[..8].copy_from_slice(acc0);
        row[8..].copy_from_slice(acc1);
    }
}

/// One row step of [`microkernel_body`]: `acc[i] = fma(a[i], b, acc[i])`.
/// A fn, not a closure: a closure may stay out of line, and there it is
/// compiled for the baseline target, each `mul_add` a libm call (the
/// GEMM ran at 1/50 of its speed, with every bit right).
#[inline(always)]
fn microkernel_step<const M: usize>(acc: &mut [[[f32; 8]; 2]; M], arow: &[f32], brow: &[f32]) {
    let (b0, b1) = brow[..NR].split_at(8);
    for ([acc0, acc1], &ai) in acc.iter_mut().zip(arow) {
        for (av, &bv) in acc0.iter_mut().zip(b0) {
            *av = ai.mul_add(bv, *av);
        }
        for (av, &bv) in acc1.iter_mut().zip(b1) {
            *av = ai.mul_add(bv, *av);
        }
    }
}

/// Transpose of a rank-2 tensor (materialized copy), 16×16 blocked so
/// both the read and the write stream touch whole cache lines per tile.
pub fn transpose(a: &Tensor) -> Tensor {
    const TB: usize = 16;
    let (m, n) = dims2(a);
    let mut out = Tensor::zeros([n, m]);
    let src = a.as_slice();
    let dst = out.as_mut_slice();
    for ib in (0..m).step_by(TB) {
        let im = (ib + TB).min(m);
        for jb in (0..n).step_by(TB) {
            let jm = (jb + TB).min(n);
            for i in ib..im {
                for j in jb..jm {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
    out
}

/// An operand as the matrix `[dim 0, product of the other dims]`: a
/// rank-2 tensor as it is, and a channel-major activation
/// `[c, n, h, w]` as `[c, n·h·w]`, the conv layer's gradient operand.
pub(crate) fn dims2(t: &Tensor) -> (usize, usize) {
    let dims = t.shape().dims();
    assert!(dims.len() >= 2, "matmul operands must be rank-2 or more");
    (dims[0], dims[1..].iter().product())
}

pub(crate) fn dims_nn(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul inner dimension mismatch ({k} vs {k2})");
    (m, k, n)
}

/// The exact test oracle: each output element is one scalar loop, with
/// none of the packed core's packing, tiling or operand paths, so a bug
/// there cannot hide in both. It computes the packed core's arithmetic,
/// which is what makes the comparison `to_bits`: per KC block a fused
/// chain over `p` ascending from `+0.0`, the first block's sum stored
/// and the others added in order. Every term is multiplied, so a `0·NaN`
/// or `0·∞` reaches the result as it does in the packed core.
pub mod reference {
    use super::{dims2, dims_nn, KC};
    use crate::tensor::Tensor;

    /// `C[i, j] = Σ_p x·y` over `(x, y) = ab(i, j, p)`, `p < k`.
    fn product(
        m: usize,
        n: usize,
        k: usize,
        ab: impl Fn(usize, usize, usize) -> (f32, f32),
    ) -> Tensor {
        let mut c = Tensor::zeros([m, n]);
        for (e, cv) in c.as_mut_slice().iter_mut().enumerate() {
            let (i, j) = (e / n, e % n);
            *cv = (0..k).step_by(KC).fold(0.0, |sum, p0| {
                let block = (p0..k.min(p0 + KC)).fold(0.0f32, |acc, p| {
                    let (x, y) = ab(i, j, p);
                    x.mul_add(y, acc)
                });
                if p0 == 0 {
                    block
                } else {
                    sum + block
                }
            });
        }
        c
    }

    /// `C = A·B`.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = dims_nn(a, b);
        let (a, b) = (a.as_slice(), b.as_slice());
        product(m, n, k, |i, j, p| (a[i * k + p], b[p * n + j]))
    }

    /// `C = Aᵀ·B`.
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = dims2(a);
        let (m2, n) = dims2(b);
        assert_eq!(m, m2, "matmul_tn inner dimension mismatch ({m} vs {m2})");
        let (a, b) = (a.as_slice(), b.as_slice());
        product(k, n, m, |i, j, p| (a[p * k + i], b[p * n + j]))
    }

    /// `C = A·Bᵀ`.
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n) = dims2(a);
        let (k, n2) = dims2(b);
        assert_eq!(n, n2, "matmul_nt inner dimension mismatch ({n} vs {n2})");
        let (a, b) = (a.as_slice(), b.as_slice());
        product(m, k, n, |i, j, p| (a[i * n + p], b[j * n + p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [rows, cols])
    }

    #[test]
    fn matmul_2x2_known() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t2(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t2(2, 3, &[1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        let b = t2(3, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(matmul(&a, &b).as_slice(), &[7.0, 5.0]);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = t2(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let via_kernel = matmul_tn(&a, &b);
        let via_transpose = matmul(&transpose(&a), &b);
        assert_eq!(via_kernel.as_slice(), via_transpose.as_slice());
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(
            4,
            3,
            &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        );
        let via_kernel = matmul_nt(&a, &b);
        let via_transpose = matmul(&a, &transpose(&b));
        assert_eq!(via_kernel.as_slice(), via_transpose.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(transpose(&transpose(&a)).as_slice(), a.as_slice());
    }

    #[test]
    fn blocked_transpose_matches_naive_on_odd_shape() {
        // 33×17 straddles the 16×16 tile in both dimensions.
        let (m, n) = (33, 17);
        let a = Tensor::from_vec((0..m * n).map(|i| i as f32).collect(), [m, n]);
        let t = transpose(&a);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t.at(&[j, i]), a.at(&[i, j]));
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = t2(3, 3, &[2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0, 4.0]);
        let id = {
            let mut i = Tensor::zeros([3, 3]);
            for d in 0..3 {
                *i.at_mut(&[d, d]) = 1.0;
            }
            i
        };
        assert_eq!(matmul(&a, &id).as_slice(), a.as_slice());
        assert_eq!(matmul(&id, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn large_matmul_parallel_path_matches_serial() {
        // Force both dispatch paths and compare against the naive
        // triple loop; the packed kernel must agree exactly with itself
        // across thread counts and closely with the scalar reference.
        let m = 70;
        let k = 70;
        let n = 70;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect(),
            [m, k],
        );
        let b = Tensor::from_vec((0..k * n).map(|i| ((i % 7) as f32) - 3.0).collect(), [k, n]);
        let c = matmul(&a, &b);
        let mut c_par = Tensor::zeros([m, n]);
        matmul_into_with(&a, &b, &mut c_par, Par::Always);
        assert_eq!(c.as_slice(), c_par.as_slice(), "serial vs parallel");
        for i in (0..m).step_by(17) {
            for j in (0..n).step_by(23) {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                assert!((c.at(&[i, j]) - s).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn packed_matches_reference_on_tile_straddling_shapes() {
        // 70 = MR·17 + 2 and NR·4 + 6: every edge path (partial MR row
        // panel, partial NR column panel) is exercised.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 33),
            (5, 70, 3),
            (70, 70, 70),
            (65, 257, 17),
        ] {
            let a = Tensor::from_vec(
                (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect(),
                [m, k],
            );
            let b = Tensor::from_vec((0..k * n).map(|i| ((i % 7) as f32) - 3.0).collect(), [k, n]);
            let c = matmul(&a, &b);
            let r = reference::matmul(&a, &b);
            assert_eq!(c.as_slice(), r.as_slice(), "nn {m}x{k}x{n}");
            // TN contracts over rows: B here must be [m, n].
            let b2 = Tensor::from_vec((0..m * n).map(|i| ((i % 5) as f32) - 2.0).collect(), [m, n]);
            let ct = matmul_tn(&a, &b2);
            let rt = reference::matmul_tn(&a, &b2);
            assert_eq!(ct.as_slice(), rt.as_slice(), "tn {m}x{k}x{n}");
            // NT contracts over columns: B here must be [n2, k].
            let b3 = Tensor::from_vec((0..n * k).map(|i| ((i % 9) as f32) - 4.0).collect(), [n, k]);
            let cn = matmul_nt(&a, &b3);
            let rn = reference::matmul_nt(&a, &b3);
            assert_eq!(cn.as_slice(), rn.as_slice(), "nt {m}x{k}x{n}");
        }
    }

    /// Distinct, non-trivial bits at every index.
    fn seq(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (i as f32 * 0.37).sin() * 1e3 + i as f32)
            .collect()
    }

    #[test]
    fn transposed_pack_bodies_write_identical_panels() {
        // an odd row stride and non-zero offsets on both axes
        let (ld, pc, j0) = (263, 3, 5);
        let data = seq((j0 + NR) * ld);
        let b = MatRef {
            data: &data,
            ld,
            trans: true,
        };
        for kc in (1..=17).chain([255, 256]) {
            for nr in 1..=NR {
                let mut panels = [vec![f32::NAN; kc * NR], vec![f32::NAN; kc * NR]];
                for (panel, avx2) in panels.iter_mut().zip([false, true]) {
                    pack_b(panel, b, pc, kc, j0, nr, avx2);
                }
                let [portable, avx2] = panels;
                for (p, row) in portable.chunks_exact(NR).enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        let want = if j < nr {
                            data[(j0 + j) * ld + pc + p]
                        } else {
                            0.0
                        };
                        assert_eq!(v.to_bits(), want.to_bits(), "kc {kc} nr {nr} at ({p}, {j})");
                    }
                }
                // without AVX2 both runs took the portable body
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&avx2), bits(&portable), "kc {kc} nr {nr}");
            }
        }
    }

    #[test]
    fn direct_store_tiles_match_the_acc_path() {
        const STALE: f32 = -7.25;
        let ldc = 37;
        for kc in [1, 7, 8, 100, KC] {
            let ap = seq(KC * MR);
            let bp: Vec<f32> = seq(kc * NR).iter().map(|v| v * 0.5).collect();
            for mr in 1..=MR {
                let mut acc = [0.0f32; MR * NR];
                microkernel(mr, &ap, &bp, NR, kc, &mut acc, NR);
                let mut c = vec![STALE; (MR - 1) * ldc + NR + 3];
                microkernel(mr, &ap, &bp, NR, kc, &mut c, ldc);
                for (i, v) in c.iter().enumerate() {
                    let (row, col) = (i / ldc, i % ldc);
                    let want = if row < mr && col < NR {
                        acc[row * NR + col]
                    } else {
                        STALE
                    };
                    assert_eq!(v.to_bits(), want.to_bits(), "kc {kc} mr {mr} at {i}");
                }
            }
        }
        // Through the gemm: a C full of stale values, every tile stored
        // directly or through `acc`, against a zeroed C.
        for (m, k, n) in [(8, 72, 512), (13, 9, 37), (72, 8, 512), (7, 300, 33)] {
            let a = Tensor::from_vec(seq(m * k), [m, k]);
            let b = Tensor::from_vec(seq(k * n), [k, n]);
            let mut fresh = Tensor::zeros([m, n]);
            let mut stale = Tensor::full([m, n], f32::NAN);
            matmul_into(&a, &b, &mut fresh);
            matmul_into(&a, &b, &mut stale);
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&stale), bits(&fresh), "{m}x{k}x{n}");
        }
    }

    /// Both compilations of the `M`-row microkernel on the same panels,
    /// held to the definition and to each other.
    fn check_microkernel_compilations<const M: usize>() {
        let ldc = NR + 3;
        for ldb in [NR, 37] {
            for kc in (1..=17).chain([255, 256]) {
                let mut ap = seq(KC * MR);
                let mut bp = seq((kc - 1) * ldb + NR);
                for v in ap.iter_mut().chain(bp.iter_mut()).step_by(23) {
                    *v = -0.0;
                }
                // an infinite row of A and column of B: ±∞ in row 1, and
                // ∞ − ∞ = NaN where they meet
                ap[(kc - 1) * MR + 1] = f32::INFINITY;
                bp[(kc / 2) * ldb + 4] = f32::NEG_INFINITY;
                let what = format!("ldb {ldb} kc {kc} M {M}");
                let mut baseline = vec![f32::NAN; MR * ldc];
                microkernel_body::<M>(&ap, &bp, ldb, kc, &mut baseline, ldc);
                // the definition: one fused chain per element from +0.0
                for (i, row) in baseline.chunks_exact(ldc).enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        let want = if i < M && j < NR {
                            (0..kc).fold(0.0f32, |acc, p| {
                                ap[p * MR + i].mul_add(bp[p * ldb + j], acc)
                            })
                        } else {
                            f32::NAN
                        };
                        assert!(
                            v.to_bits() == want.to_bits() || v.is_nan() && want.is_nan(),
                            "{what} at ({i}, {j})"
                        );
                    }
                }
                #[cfg(target_arch = "x86_64")]
                if avx2_available() {
                    let mut fma = vec![f32::NAN; MR * ldc];
                    // SAFETY: avx2_available() holds.
                    unsafe { microkernel_fma::<M>(&ap, &bp, ldb, kc, &mut fma, ldc) };
                    let canon = |c: &[f32]| -> Vec<u32> {
                        c.iter()
                            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                            .collect()
                    };
                    assert_eq!(canon(&fma), canon(&baseline), "{what}");
                }
            }
        }
    }

    #[test]
    fn microkernel_compilations_write_the_same_bits() {
        check_microkernel_compilations::<1>();
        check_microkernel_compilations::<2>();
        check_microkernel_compilations::<3>();
        check_microkernel_compilations::<4>();
        check_microkernel_compilations::<5>();
        check_microkernel_compilations::<MR>();
    }

    #[test]
    fn zero_inner_dimension_yields_zero_matrix() {
        let a = Tensor::zeros([3, 0]);
        let b = Tensor::zeros([0, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape().dims(), &[3, 4]);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
