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
//! NR-wide panels. Both packs walk their source contiguously.
//!
//! Parallelism fans the MC row-blocks of `C` out over threads. Each
//! block runs byte-for-byte the same code serially or in parallel, so
//! results are bit-identical for any thread count — a requirement for
//! the distributed bit-exactness tests (same-seed single-process vs TCP
//! multi-process runs must agree exactly).
//!
//! The pre-rewrite scalar kernels survive in [`reference`](mod@reference)
//! as the test oracle and the `kernel_bench --reference` baseline;
//! flipping [`set_reference_mode`] routes the public entry points
//! through them.

use crate::tensor::Tensor;
use crate::MATMUL_PAR_MACS;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

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
const KC: usize = 256;
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

static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);

/// Route the matmul family through the naive [`reference`](mod@reference)
/// implementations (im2col/col2im are pure data movement and have no
/// second implementation). Used by `kernel_bench
/// --reference` to measure the pre-optimization baseline; not intended
/// for concurrent toggling mid-computation.
pub fn set_reference_mode(on: bool) {
    REFERENCE_MODE.store(on, Ordering::SeqCst);
}

/// Whether [`set_reference_mode`] routing is active.
pub fn reference_mode() -> bool {
    REFERENCE_MODE.load(Ordering::SeqCst)
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
    if reference_mode() {
        reference::matmul_into(a, b, c);
        return;
    }
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
    if reference_mode() {
        reference::matmul_tn_into(a, b, c);
        return;
    }
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
    if reference_mode() {
        reference::matmul_nt_into(a, b, c);
        return;
    }
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
                pack_b(&mut pb[..need], b, pc, kc, j_packed, packed_cols);
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
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(mr, &ap, bpanel, ldb, kc, &mut acc);
            for (i, acc_row) in acc.iter().enumerate().take(mr) {
                let base = (ir + i) * n + j0;
                let row = &mut c_rows[base..base + nr];
                if !first {
                    for (cv, av) in row.iter_mut().zip(acc_row) {
                        *cv += av;
                    }
                } else if let Ok(full) = <&mut [f32; NR]>::try_from(&mut *row) {
                    // a full panel is a fixed-size move, not a memcpy call
                    *full = *acc_row;
                } else {
                    row.copy_from_slice(&acc_row[..nr]);
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
/// is read in storage order.
fn pack_b(bp: &mut [f32], b: MatRef<'_>, pc: usize, kc: usize, j0: usize, nc: usize) {
    for (jp, panel) in bp.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = j0 + jp * NR;
        let nr = NR.min(nc - jp * NR);
        if nr < NR {
            panel.fill(0.0);
        }
        if b.trans {
            for j in 0..nr {
                let src = (j0 + j) * b.ld + pc;
                for (dst, &v) in panel.chunks_exact_mut(NR).zip(&b.data[src..src + kc]) {
                    dst[j] = v;
                }
            }
        } else {
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                let src = (pc + p) * b.ld + j0;
                dst[..nr].copy_from_slice(&b.data[src..src + nr]);
            }
        }
    }
}

/// Whether the AVX2+FMA microkernel can run on this host. Detected
/// once; the result is stable for the process lifetime, so kernel
/// dispatch is deterministic.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Register microkernel: `acc[..mr] = Apanel[kc×MR]ᵀ[..mr] · Bpanel[kc×NR]`,
/// row `p` of the B panel at `bp[p*ldb..][..NR]`. The B panel is either
/// packed and zero-padded or a full in-place panel, and a short A panel
/// runs the variant with exactly `mr` accumulator rows, so the loop
/// body is branch-free and multiplies no padding rows. Dispatches to the
/// AVX2+FMA variant when the host supports it (rustc's baseline x86-64
/// target only autovectorizes the portable loop to SSE2 width, which
/// caps it near the old scalar kernels' throughput).
#[inline(always)]
fn microkernel(
    mr: usize,
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    match mr {
        1 => microkernel_rows::<1>(ap, bp, ldb, kc, acc),
        2 => microkernel_rows::<2>(ap, bp, ldb, kc, acc),
        3 => microkernel_rows::<3>(ap, bp, ldb, kc, acc),
        4 => microkernel_rows::<4>(ap, bp, ldb, kc, acc),
        5 => microkernel_rows::<5>(ap, bp, ldb, kc, acc),
        _ => microkernel_rows::<MR>(ap, bp, ldb, kc, acc),
    }
}

/// [`microkernel`] on the first `M` rows of the A panel and of `acc`.
#[inline(always)]
fn microkernel_rows<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    // The AVX2 kernel reads through raw pointers: its bounds are checked
    // here, once per tile.
    assert!(kc > 0 && ap.len() >= kc * MR && bp.len() >= (kc - 1) * ldb + NR);
    let acc: &mut [[f32; NR]; M] = (&mut acc[..M]).try_into().expect("M <= MR");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: avx2_available() verified the avx2 and fma features,
        // and the assert above is the kernel's bounds contract.
        unsafe { microkernel_avx2(ap, bp, ldb, kc, acc) };
        return;
    }
    microkernel_portable(ap, bp, ldb, kc, acc);
}

/// Portable fallback microkernel (autovectorizes at the target's
/// baseline SIMD width).
#[inline(always)]
fn microkernel_portable<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    acc: &mut [[f32; NR]; M],
) {
    for p in 0..kc {
        let arow = &ap[p * MR..p * MR + M];
        let brow: &[f32; NR] = bp[p * ldb..p * ldb + NR].try_into().unwrap();
        for (acc_row, &ai) in acc.iter_mut().zip(arow) {
            for (av, bv) in acc_row.iter_mut().zip(brow) {
                *av += ai * bv;
            }
        }
    }
}

/// AVX2+FMA microkernel: the full 6×16 accumulator tile is 12 ymm
/// registers, leaving two for the B panel row and one for the A
/// broadcast.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2` and `fma`, and that
/// `ap.len() >= kc * MR` and `bp.len() >= (kc - 1) * ldb + NR`.
// SAFETY: unsafe because of #[target_feature] and the raw-pointer loads
// — the sole caller is gated on avx2_available() and asserts the panel
// lengths, which bound `p * ldb + 8 + 8 <= bp.len()` and
// `p * MR + i < ap.len()` for every `p < kc`, `i < M <= MR`; each acc
// row is NR = 16 floats, covering the two 8-lane stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    acc: &mut [[f32; NR]; M],
) {
    use std::arch::x86_64::*;
    let mut c = [[_mm256_setzero_ps(); 2]; M];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.as_ptr().add(p * ldb));
        let b1 = _mm256_loadu_ps(bp.as_ptr().add(p * ldb + 8));
        for (i, ci) in c.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(ap.get_unchecked(p * MR + i));
            ci[0] = _mm256_fmadd_ps(a, b0, ci[0]);
            ci[1] = _mm256_fmadd_ps(a, b1, ci[1]);
        }
    }
    for (row, ci) in acc.iter_mut().zip(&c) {
        _mm256_storeu_ps(row.as_mut_ptr(), ci[0]);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), ci[1]);
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

pub(crate) fn dims2(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.shape().ndim(), 2, "matmul operands must be rank-2");
    (t.shape().dim(0), t.shape().dim(1))
}

pub(crate) fn dims_nn(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul inner dimension mismatch ({k} vs {k2})");
    (m, k, n)
}

/// Pre-rewrite scalar kernels, kept verbatim as the proptest oracle and
/// the `kernel_bench --reference` baseline. They retain the original
/// single `PAR_FLOP_THRESHOLD` row-parallel dispatch so baseline
/// numbers reflect what the repo actually shipped before the packed
/// rewrite.
pub mod reference {
    use super::{dims2, dims_nn};
    use crate::ops::dot_slice;
    use crate::tensor::Tensor;
    use rayon::prelude::*;

    /// The old single global dispatch threshold (MACs).
    pub const PAR_FLOP_THRESHOLD: usize = 1 << 18;

    /// Naive `C = A·B` (ikj scalar loop).
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _k, n) = dims_nn(a, b);
        let mut c = Tensor::zeros([m, n]);
        matmul_into(a, b, &mut c);
        c
    }

    /// Naive `C = A·B` into a preallocated output.
    pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
        let (m, k, n) = dims_nn(a, b);
        assert_eq!(c.shape().dims(), &[m, n], "output shape mismatch");
        let (a, b) = (a.as_slice(), b.as_slice());
        let kernel = |row_i: usize, c_row: &mut [f32]| {
            c_row.fill(0.0);
            let a_row = &a[row_i * k..(row_i + 1) * k];
            for (p, &aval) in a_row.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aval * bv;
                }
            }
        };
        if m * n * k >= PAR_FLOP_THRESHOLD && m > 1 {
            c.as_mut_slice()
                .par_chunks_exact_mut(n)
                .enumerate()
                .for_each(|(i, row)| kernel(i, row));
        } else {
            for (i, row) in c.as_mut_slice().chunks_exact_mut(n).enumerate() {
                kernel(i, row);
            }
        }
    }

    /// Naive `C = Aᵀ·B` (column-strided reads of A).
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (_m, k) = dims2(a);
        let (_m2, n) = dims2(b);
        let mut c = Tensor::zeros([k, n]);
        matmul_tn_into(a, b, &mut c);
        c
    }

    /// Naive `C = Aᵀ·B` into a preallocated output.
    pub fn matmul_tn_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
        let (m, k) = dims2(a);
        let (m2, n) = dims2(b);
        assert_eq!(m, m2, "matmul_tn inner dimension mismatch ({m} vs {m2})");
        assert_eq!(c.shape().dims(), &[k, n], "output shape mismatch");
        let (a, b) = (a.as_slice(), b.as_slice());
        let kernel = |row_p: usize, c_row: &mut [f32]| {
            c_row.fill(0.0);
            for i in 0..m {
                let aval = a[i * k + row_p];
                if aval == 0.0 {
                    continue;
                }
                let b_row = &b[i * n..(i + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aval * bv;
                }
            }
        };
        if m * n * k >= PAR_FLOP_THRESHOLD && k > 1 {
            c.as_mut_slice()
                .par_chunks_exact_mut(n)
                .enumerate()
                .for_each(|(p, row)| kernel(p, row));
        } else {
            for (p, row) in c.as_mut_slice().chunks_exact_mut(n).enumerate() {
                kernel(p, row);
            }
        }
    }

    /// Naive `C = A·Bᵀ` (row-dot-row).
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _n) = dims2(a);
        let (k, _n2) = dims2(b);
        let mut c = Tensor::zeros([m, k]);
        matmul_nt_into(a, b, &mut c);
        c
    }

    /// Naive `C = A·Bᵀ` into a preallocated output.
    pub fn matmul_nt_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
        let (m, n) = dims2(a);
        let (k, n2) = dims2(b);
        assert_eq!(n, n2, "matmul_nt inner dimension mismatch ({n} vs {n2})");
        assert_eq!(c.shape().dims(), &[m, k], "output shape mismatch");
        let (a, b) = (a.as_slice(), b.as_slice());
        let kernel = |row_i: usize, c_row: &mut [f32]| {
            let a_row = &a[row_i * n..(row_i + 1) * n];
            for (j, cv) in c_row.iter_mut().enumerate() {
                *cv = dot_slice(a_row, &b[j * n..(j + 1) * n]);
            }
        };
        if m * n * k >= PAR_FLOP_THRESHOLD && m > 1 {
            c.as_mut_slice()
                .par_chunks_exact_mut(k)
                .enumerate()
                .for_each(|(i, row)| kernel(i, row));
        } else {
            for (i, row) in c.as_mut_slice().chunks_exact_mut(k).enumerate() {
                kernel(i, row);
            }
        }
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
            for (x, y) in ct.as_slice().iter().zip(rt.as_slice()) {
                assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0), "tn {m}x{k}x{n}");
            }
            // NT contracts over columns: B here must be [n2, k].
            let b3 = Tensor::from_vec((0..n * k).map(|i| ((i % 9) as f32) - 4.0).collect(), [n, k]);
            let cn = matmul_nt(&a, &b3);
            let rn = reference::matmul_nt(&a, &b3);
            for (x, y) in cn.as_slice().iter().zip(rn.as_slice()) {
                assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0), "nt {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn reference_mode_routes_to_naive_kernels() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t2(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        set_reference_mode(true);
        let c = matmul(&a, &b);
        set_reference_mode(false);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
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
