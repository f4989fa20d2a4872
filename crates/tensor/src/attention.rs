//! Softmax attention over every head of a batch at once, and the row
//! softmax, with independent softmaxes across vector lanes.
//!
//! A per-head attention is a dozen tiny products (12 × 8 × 12 at the
//! TransformerMini geometry) and softmaxes whose max and sum chains are
//! serial along a row, so neither vectorises along its own axes. Every
//! (sequence, head) pair runs the same operations on its own data, though,
//! so [`forward`] and [`backward`] put the pairs across the lanes: lane
//! `l = b·heads + h` is head `h` of sequence `b`, and element `(t, d)` of
//! a `[seq, head_dim]` operand is stored at `[(t·head_dim + d)·L + l]`,
//! `L` the lane count padded to whole vectors. Each step of the per-head
//! algorithm then is one vertical operation over `L` lanes: no shuffle,
//! no reduction across lanes. [`softmax_rows`] does the same for the
//! rows of a `[rows, cols]` matrix, eight rows a vector.
//!
//! *Why the bits are the per-head path's:* every lane performs exactly
//! the operations of the per-head code, in the same order, on the same
//! operands. Each product element is the packed GEMM's chain for
//! `k ≤ KC`: one fused multiply-add per term in ascending order from
//! `+0.0`; a sum that spans the outer loop (`dK`, `dV`) stays one chain,
//! kept in memory between steps. The softmax keeps its max fold from
//! `−∞`, its `exp(x − m)`, its sum from `+0.0` and its division; the
//! softmax backward keeps the `Iterator::sum` of `dA ⊙ A` (from `−0.0`,
//! that sum's neutral element) and `A ⊙ (dA − dot)` before the scale.
//! The `exp` is [`crate::math`]'s lane kernel. Padding lanes are zero on
//! the way in and never read on the way out.
//!
//! Each body is compiled twice, for the baseline target and for AVX2
//! and FMA, with the same arithmetic: the const flag `AVX2` a body takes
//! only lets it move blocks by register transposes and run the `exp` by
//! [`crate::math`]'s AVX2 vector body, never changes what it computes.

use crate::math::exp_in_place;
use crate::matmul::KC;
use std::cell::RefCell;

/// Lanes of one vector step: an AVX2 register of `f32`.
const W: usize = 8;

type V = [f32; W];

/// The shape of one batched-heads call: `batch` sequences of `seq`
/// tokens, each token's `heads · head_dim` channels split into `heads`
/// heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heads {
    /// Sequences in the batch.
    pub batch: usize,
    /// Heads per token.
    pub heads: usize,
    /// Tokens per sequence.
    pub seq: usize,
    /// Channels per head.
    pub head_dim: usize,
}

impl Heads {
    /// The lane count `L`: one lane per (sequence, head) pair, padded to
    /// whole vectors.
    pub fn lanes(&self) -> usize {
        (self.batch * self.heads).next_multiple_of(W)
    }

    /// Floats of a `[seq, head_dim]` operand over all lanes: q, k, v,
    /// the context and their gradients.
    pub fn qkv_len(&self) -> usize {
        self.seq * self.head_dim * self.lanes()
    }

    /// Floats of the `[seq, seq]` attention weights over all lanes.
    pub fn weights_len(&self) -> usize {
        self.seq * self.seq * self.lanes()
    }

    fn dim(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Where head `l % heads` of token `t` of sequence `l / heads` starts
    /// in the row-major activations.
    fn row_start(&self, l: usize, t: usize) -> usize {
        ((l / self.heads) * self.seq + t) * self.dim() + (l % self.heads) * self.head_dim
    }

    /// `(real lanes, lanes in whole vectors, channels in whole vectors)`:
    /// the layout transforms move the whole ones by 8×8 blocks.
    fn blocked(&self) -> (usize, usize, usize) {
        let real = self.batch * self.heads;
        (real, real - real % W, self.head_dim - self.head_dim % W)
    }

    fn check(&self) {
        assert!(self.seq > 0 && self.head_dim > 0, "empty head geometry");
        // past KC the packed GEMM splits a chain into blocks
        assert!(
            self.seq <= KC && self.head_dim <= KC,
            "sequence and head dim must be at most {KC}"
        );
    }
}

/// Copy `[batch·seq, heads·head_dim]` row-major activations (row
/// `b·seq + t`, column `h·head_dim + d`) into the lane layout, zeroing
/// the padding lanes.
pub fn to_lanes(g: Heads, rows: &[f32], lanes: &mut [f32]) {
    assert_eq!(
        rows.len(),
        g.batch * g.seq * g.dim(),
        "rows length mismatch"
    );
    assert_eq!(lanes.len(), g.qkv_len(), "lane buffer length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature the body is
        // compiled for.
        unsafe { to_lanes_avx2(g, rows, lanes) };
        return;
    }
    // SAFETY: without AVX2 the body moves blocks in portable code.
    unsafe { to_lanes_body::<false>(g, rows, lanes) };
}

/// [`to_lanes`] compiled for AVX2. A safe fn; its caller checks the
/// feature in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn to_lanes_avx2(g: Heads, rows: &[f32], lanes: &mut [f32]) {
    // SAFETY: this function's target feature.
    unsafe { to_lanes_body::<true>(g, rows, lanes) };
}

/// # Safety
/// With `AVX2` the CPU must support `avx2`.
// SAFETY: unsafe only for the `AVX2` contract; the block moves check
// their own bounds.
#[inline(always)]
unsafe fn to_lanes_body<const AVX2: bool>(g: Heads, rows: &[f32], lanes: &mut [f32]) {
    let (ln, hd) = (g.lanes(), g.head_dim);
    // eight lanes' runs of eight channels of one token are one block
    // SAFETY: the caller's contract.
    for_head_blocks(g, |starts, at| unsafe {
        transpose_block::<AVX2>(rows, starts, lanes, at)
    });
    let (real, full, db) = g.blocked();
    // the channels and lanes left over, one float at a time
    for l in if db < hd { 0 } else { full }..real {
        let d0 = if l < full { db } else { 0 };
        for t in 0..g.seq {
            let row = &rows[g.row_start(l, t)..][..hd];
            for (d, &x) in row.iter().enumerate().skip(d0) {
                lanes[(t * hd + d) * ln + l] = x;
            }
        }
    }
    for element in lanes.chunks_exact_mut(ln) {
        element[real..].fill(0.0);
    }
}

/// The inverse of [`to_lanes`]: overwrite `rows` from the real lanes.
pub fn from_lanes(g: Heads, lanes: &[f32], rows: &mut [f32]) {
    assert_eq!(
        rows.len(),
        g.batch * g.seq * g.dim(),
        "rows length mismatch"
    );
    assert_eq!(lanes.len(), g.qkv_len(), "lane buffer length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx2_available() {
        // SAFETY: avx2_available() verified the avx2 feature the body is
        // compiled for.
        unsafe { from_lanes_avx2(g, lanes, rows) };
        return;
    }
    // SAFETY: without AVX2 the body moves blocks in portable code.
    unsafe { from_lanes_body::<false>(g, lanes, rows) };
}

/// [`from_lanes`] compiled for AVX2. A safe fn; its caller checks the
/// feature in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn from_lanes_avx2(g: Heads, lanes: &[f32], rows: &mut [f32]) {
    // SAFETY: this function's target feature.
    unsafe { from_lanes_body::<true>(g, lanes, rows) };
}

/// # Safety
/// With `AVX2` the CPU must support `avx2`.
// SAFETY: as for [`to_lanes_body`].
#[inline(always)]
unsafe fn from_lanes_body<const AVX2: bool>(g: Heads, lanes: &[f32], rows: &mut [f32]) {
    let (ln, hd) = (g.lanes(), g.head_dim);
    // SAFETY: the caller's contract.
    for_head_blocks(g, |starts, at| unsafe {
        transpose_block::<AVX2>(lanes, at, rows, starts)
    });
    let (real, full, db) = g.blocked();
    for l in if db < hd { 0 } else { full }..real {
        let d0 = if l < full { db } else { 0 };
        for t in 0..g.seq {
            let row = &mut rows[g.row_start(l, t)..][..hd];
            for (d, x) in row.iter_mut().enumerate().skip(d0) {
                *x = lanes[(t * hd + d) * ln + l];
            }
        }
    }
}

/// Calls `f(starts, at)` for every 8×8 block the layout transforms move
/// whole, eight real lanes by eight channels of one token: `starts` are
/// the eight heads' runs in the row-major activations, `at` the eight
/// channels' vectors in the lane layout.
#[inline(always)]
fn for_head_blocks(g: Heads, mut f: impl FnMut([usize; W], [usize; W])) {
    let (ln, hd, dim) = (g.lanes(), g.head_dim, g.dim());
    let (_, full, db) = g.blocked();
    for c in (0..full).step_by(W) {
        let heads: [usize; W] = std::array::from_fn(|r| g.row_start(c + r, 0));
        for t in 0..g.seq {
            for d0 in (0..db).step_by(W) {
                let at: [usize; W] = std::array::from_fn(|q| (t * hd + d0 + q) * ln + c);
                f(heads.map(|h| h + t * dim + d0), at);
            }
        }
    }
}

/// Scaled dot-product attention of every head: `attn = softmax(q·kᵀ /
/// √head_dim)` (entries past the diagonal `−∞` first when `causal`) and
/// `ctx = attn · v`, all in the lane layout.
pub fn forward(
    g: Heads,
    causal: bool,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &mut [f32],
    ctx: &mut [f32],
) {
    g.check();
    for t in [q, k, v, &*ctx] {
        assert_eq!(t.len(), g.qkv_len(), "operand length mismatch");
    }
    assert_eq!(attn.len(), g.weights_len(), "weights length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx2_available() {
        // SAFETY: avx2_available() verified the avx2 and fma features the
        // body is compiled for, and the asserts above are its bounds
        // contract.
        unsafe { forward_avx2(g, causal, q, k, v, attn, ctx) };
        return;
    }
    // SAFETY: the asserts above are the body's contract, and the
    // portable body needs no CPU feature.
    unsafe { forward_body::<false>(g, causal, q, k, v, attn, ctx) };
}

/// [`forward`] compiled for AVX2 and FMA, the `exp` eight lanes a step.
///
/// # Safety
/// The CPU must support `avx2` and `fma`, and the slices have the
/// lengths [`forward`] asserts.
// SAFETY: unsafe because of #[target_feature] and the body's unchecked
// loads; the sole caller is gated on avx2_available() and asserts the
// lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn forward_avx2(
    g: Heads,
    causal: bool,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &mut [f32],
    ctx: &mut [f32],
) {
    forward_body::<true>(g, causal, q, k, v, attn, ctx);
}

/// # Safety
/// Every slice has the length [`forward`] asserts, and with `AVX2` the
/// CPU supports `avx2` and `fma`.
// SAFETY: unsafe because its loads and stores are unchecked. Each lands
// inside its slice: `(t·hd + d)·L + c + 8 <= seq·hd·L` for `t < seq`,
// `d < hd` and `c + 8 <= L`; `(i·seq + j)·L + c + 8 <= seq²·L`; and
// `j·8 + 8 <= seq·8` in the row.
#[inline(always)]
unsafe fn forward_body<const AVX2: bool>(
    g: Heads,
    causal: bool,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &mut [f32],
    ctx: &mut [f32],
) {
    let (seq, hd, ln) = (g.seq, g.head_dim, g.lanes());
    let scale = 1.0 / (hd as f32).sqrt();
    // one row of one vector's weights, contiguous
    let mut row = [0.0f32; KC * W];
    let row = &mut row[..seq * W];
    for c in (0..ln).step_by(W) {
        let at = |t: usize, d: usize| (t * hd + d) * ln + c;
        let aw = |i: usize, j: usize| (i * seq + j) * ln + c;
        for i in 0..seq {
            // scores: q_i · k_j, scaled; a masked score is overwritten,
            // so it is not computed
            let live = if causal { i + 1 } else { seq };
            for j in 0..seq {
                let s = if causal && j > i {
                    [f32::NEG_INFINITY; W]
                } else {
                    let mut acc = [0.0; W];
                    for d in 0..hd {
                        acc = madd(load(q, at(i, d)), load(k, at(j, d)), acc);
                    }
                    acc.map(|x| x * scale)
                };
                store(row, j * W, s);
            }
            softmax_lanes::<AVX2>(row, live);
            // ctx_i = a_i · v
            for d in 0..hd {
                let mut acc = [0.0; W];
                for j in 0..seq {
                    acc = madd(load(row, j * W), load(v, at(j, d)), acc);
                }
                store(ctx, at(i, d), acc);
            }
            for j in 0..seq {
                store(attn, aw(i, j), load(row, j * W));
            }
        }
    }
}

/// The gradients of [`forward`]: from `dctx` and the forward's q, k, v
/// and weights, overwrite `dq`, `dk` and `dv`, all in the lane layout.
#[allow(clippy::too_many_arguments)]
pub fn backward(
    g: Heads,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &[f32],
    dctx: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    g.check();
    for t in [q, k, v, dctx, &*dq, &*dk, &*dv] {
        assert_eq!(t.len(), g.qkv_len(), "operand length mismatch");
    }
    assert_eq!(attn.len(), g.weights_len(), "weights length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx2_available() {
        // SAFETY: avx2_available() verified the avx2 and fma features the
        // body is compiled for, and the asserts above are its bounds
        // contract.
        unsafe { backward_avx2(g, q, k, v, attn, dctx, dq, dk, dv) };
        return;
    }
    // SAFETY: the asserts above are the body's contract.
    unsafe { backward_body(g, q, k, v, attn, dctx, dq, dk, dv) };
}

/// [`backward`] compiled for AVX2 and FMA.
///
/// # Safety
/// The CPU must support `avx2` and `fma`, and the slices have the
/// lengths [`backward`] asserts.
// SAFETY: unsafe because of #[target_feature] and the body's unchecked
// loads; the sole caller is gated on avx2_available() and asserts the
// lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn backward_avx2(
    g: Heads,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &[f32],
    dctx: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    backward_body(g, q, k, v, attn, dctx, dq, dk, dv);
}

/// Row by row: row `i` of the weights' gradient is all `dQ_i` needs,
/// and `dK`, `dV` sum over `i` ascending, which is their GEMM chains'
/// order.
///
/// # Safety
/// Every slice has the length [`backward`] asserts.
// SAFETY: unsafe because its loads and stores are unchecked; they land
// inside their slices by the bounds [`forward_body`] states.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn backward_body(
    g: Heads,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    attn: &[f32],
    dctx: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (seq, hd, ln) = (g.seq, g.head_dim, g.lanes());
    let scale = 1.0 / (hd as f32).sqrt();
    // one row of one vector's dA, then dS, contiguous
    let mut scratch = [0.0f32; KC * W];
    let scratch = &mut scratch[..seq * W];
    for c in (0..ln).step_by(W) {
        let at = |t: usize, d: usize| (t * hd + d) * ln + c;
        let aw = |i: usize, j: usize| (i * seq + j) * ln + c;
        for t in 0..seq {
            for d in 0..hd {
                store(dk, at(t, d), [0.0; W]);
                store(dv, at(t, d), [0.0; W]);
            }
        }
        for i in 0..seq {
            // dV += a_iᵀ · dctx_i
            for j in 0..seq {
                let a = load(attn, aw(i, j));
                for d in 0..hd {
                    let acc = madd(a, load(dctx, at(i, d)), load(dv, at(j, d)));
                    store(dv, at(j, d), acc);
                }
            }
            // dA_i = dctx_i · vᵀ
            for j in 0..seq {
                let mut acc = [0.0; W];
                for d in 0..hd {
                    acc = madd(load(dctx, at(i, d)), load(v, at(j, d)), acc);
                }
                store(scratch, j * W, acc);
            }
            // dS_i = a_i ⊙ (dA_i − Σ dA_i ⊙ a_i), scaled
            let mut dot = [-0.0; W];
            for j in 0..seq {
                let (da, a) = (load(scratch, j * W), load(attn, aw(i, j)));
                for w in 0..W {
                    dot[w] += da[w] * a[w];
                }
            }
            for j in 0..seq {
                let (da, a) = (load(scratch, j * W), load(attn, aw(i, j)));
                let mut ds = [0.0; W];
                for w in 0..W {
                    ds[w] = a[w] * (da[w] - dot[w]) * scale;
                }
                store(scratch, j * W, ds);
            }
            // dQ_i = dS_i · k
            for d in 0..hd {
                let mut acc = [0.0; W];
                for j in 0..seq {
                    acc = madd(load(scratch, j * W), load(k, at(j, d)), acc);
                }
                store(dq, at(i, d), acc);
            }
            // dK += dS_iᵀ · q_i
            for j in 0..seq {
                let s = load(scratch, j * W);
                for d in 0..hd {
                    let acc = madd(s, load(q, at(i, d)), load(dk, at(j, d)));
                    store(dk, at(j, d), acc);
                }
            }
        }
    }
}

thread_local! {
    /// [`softmax_rows`]' eight rows in lane layout, kept across calls so
    /// steady-state steps do not reallocate it.
    static ROW_LANES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Softmax of each `cols`-long row of the row-major `x` in place, rows
/// across the lanes: per row the max fold from `−∞`, `exp(x − m)`, the
/// sum from `+0.0` and the division, the bits of the one-row scalar
/// form.
pub fn softmax_rows(x: &mut [f32], cols: usize) {
    if x.is_empty() {
        return;
    }
    assert!(
        cols > 0 && x.len().is_multiple_of(cols),
        "length must be whole rows"
    );
    ROW_LANES.with(|lanes| {
        let mut lanes = lanes.borrow_mut();
        if lanes.len() < cols * W {
            lanes.resize(cols * W, 0.0);
        }
        let lanes = &mut lanes[..cols * W];
        #[cfg(target_arch = "x86_64")]
        if crate::matmul::avx2_available() {
            // SAFETY: avx2_available() verified the avx2 and fma features
            // the body is compiled for.
            unsafe { softmax_rows_avx2(x, cols, lanes) };
            return;
        }
        // SAFETY: the portable body needs no CPU feature.
        unsafe { softmax_rows_body::<false>(x, cols, lanes) };
    });
}

/// [`softmax_rows`] compiled for AVX2 and FMA, the `exp` eight lanes a
/// step. A safe fn; its caller checks the features in `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn softmax_rows_avx2(x: &mut [f32], cols: usize, lanes: &mut [f32]) {
    // SAFETY: this function's target features are the body's `AVX2`
    // contract.
    unsafe { softmax_rows_body::<true>(x, cols, lanes) };
}

/// Eight rows at a time: transposed into `lanes` (`[cols, 8]`, a last
/// block's missing rows zero), softmaxed, transposed back. Whole 8×8
/// blocks move in registers, the rest one float at a time.
///
/// # Safety
/// With `AVX2` the CPU must support `avx2` and `fma`.
// SAFETY: unsafe only for the `AVX2` contract, which it passes on.
#[inline(always)]
unsafe fn softmax_rows_body<const AVX2: bool>(x: &mut [f32], cols: usize, lanes: &mut [f32]) {
    let cb = cols - cols % W;
    for block in x.chunks_mut(W * cols) {
        let rows = block.len() / cols;
        let j0 = if rows == W { cb } else { 0 };
        let at = |j: usize| -> ([usize; W], [usize; W]) {
            (
                std::array::from_fn(|r| r * cols + j),
                std::array::from_fn(|q| (j + q) * W),
            )
        };
        for j in (0..j0).step_by(W) {
            let (from, to) = at(j);
            transpose_block::<AVX2>(block, from, lanes, to);
        }
        for (j, e) in lanes.chunks_exact_mut(W).enumerate().skip(j0) {
            for (r, l) in e.iter_mut().enumerate() {
                *l = if r < rows { block[r * cols + j] } else { 0.0 };
            }
        }
        softmax_lanes::<AVX2>(lanes, cols);
        for j in (0..j0).step_by(W) {
            let (to, from) = at(j);
            transpose_block::<AVX2>(lanes, from, block, to);
        }
        for (j, e) in lanes.chunks_exact(W).enumerate().skip(j0) {
            for (r, &l) in e.iter().enumerate().take(rows) {
                block[r * cols + j] = l;
            }
        }
    }
}

/// One softmax per lane of the contiguous vectors of `row`, those from
/// `live` on `−∞` (masked scores). Their `exp(−∞ − m)` is `+0.0`, or NaN
/// (as `x + x`) where `m` is `−∞` too, which is what the `exp` kernel
/// returns for those inputs, so only the live ones run it.
///
/// # Safety
/// With `AVX2` the CPU must support `avx2` and `fma`.
// SAFETY: unsafe only for the `AVX2` contract, which it passes on.
#[inline(always)]
unsafe fn softmax_lanes<const AVX2: bool>(row: &mut [f32], live: usize) {
    let mut m = [f32::NEG_INFINITY; W];
    for x in row.chunks_exact(W) {
        for w in 0..W {
            m[w] = m[w].max(x[w]);
        }
    }
    for x in row.chunks_exact_mut(W) {
        for w in 0..W {
            x[w] -= m[w];
        }
    }
    let (live, masked) = row.split_at_mut(live * W);
    exp_in_place::<AVX2>(live);
    for x in masked {
        *x = if x.is_nan() { *x + *x } else { 0.0 };
    }
    let mut z = [0.0; W];
    for x in row.chunks_exact(W) {
        for w in 0..W {
            z[w] += x[w];
        }
    }
    for x in row.chunks_exact_mut(W) {
        for w in 0..W {
            x[w] /= z[w];
        }
    }
}

/// `dst[to[q] + r] = src[from[r] + q]` for `q, r < 8`: eight 8-float
/// runs in, eight out, transposed in registers when `AVX2`.
///
/// # Safety
/// With `AVX2` the CPU must support `avx2`.
// SAFETY: unsafe only for the `AVX2` contract; the asserts keep every
// run inside its slice.
// lint:allow(simd-intrinsic): to_lanes at the training geometry takes 416–486 ns with it against 1 081–1 536 ns for the safe body compiled for AVX2 (2-vCPU AVX2+FMA host, best of 7 × 20 000 calls)
#[inline(always)]
unsafe fn transpose_block<const AVX2: bool>(
    src: &[f32],
    from: [usize; W],
    dst: &mut [f32],
    to: [usize; W],
) {
    assert!(from.iter().all(|&at| at + W <= src.len()));
    assert!(to.iter().all(|&at| at + W <= dst.len()));
    #[cfg(target_arch = "x86_64")]
    if AVX2 {
        use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
        // SAFETY: the caller guarantees avx2, and the asserts above keep
        // every run inside its slice.
        unsafe {
            let rows = from.map(|at| _mm256_loadu_ps(src.as_ptr().add(at)));
            for (at, col) in to.into_iter().zip(crate::matmul::transpose8(rows)) {
                _mm256_storeu_ps(dst.as_mut_ptr().add(at), col);
            }
        }
        return;
    }
    let rows = from.map(|at| load(src, at));
    for (q, at) in to.into_iter().enumerate() {
        store(dst, at, rows.map(|row| row[q]));
    }
}

/// The eight floats at `s[at..]`.
///
/// # Safety
/// `at + 8 <= s.len()`.
// SAFETY: unsafe because the read is unchecked; callers keep it in `s`.
#[inline(always)]
unsafe fn load(s: &[f32], at: usize) -> V {
    debug_assert!(at + W <= s.len());
    s.as_ptr().add(at).cast::<V>().read()
}

/// Overwrite the eight floats at `s[at..]`.
///
/// # Safety
/// `at + 8 <= s.len()`.
// SAFETY: unsafe because the write is unchecked; callers keep it in `s`.
#[inline(always)]
unsafe fn store(s: &mut [f32], at: usize, v: V) {
    debug_assert!(at + W <= s.len());
    s.as_mut_ptr().add(at).cast::<V>().write(v);
}

/// One step of a product chain per lane, fused as the GEMM microkernel's.
#[inline(always)]
fn madd(a: V, b: V, mut acc: V) -> V {
    for w in 0..W {
        acc[w] = a[w].mul_add(b[w], acc[w]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-row softmax the lanes reproduce.
    fn softmax_row(row: &mut [f32]) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for v in row.iter_mut() {
            *v = crate::math::exp_lane(*v - m);
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }

    /// Outputs of one attention call, each in the lane layout.
    #[derive(Default)]
    struct Out {
        attn: Vec<f32>,
        ctx: Vec<f32>,
        dq: Vec<f32>,
        dk: Vec<f32>,
        dv: Vec<f32>,
    }

    /// The per-head algorithm one lane and one scalar at a time: the
    /// definition the lane bodies are held to.
    fn definition(g: Heads, causal: bool, x: &[Vec<f32>; 4]) -> Out {
        let [q, k, v, dctx] = x;
        let (seq, hd, ln) = (g.seq, g.head_dim, g.lanes());
        let scale = 1.0 / (hd as f32).sqrt();
        let mut o = Out {
            attn: vec![0.0; g.weights_len()],
            ctx: vec![0.0; g.qkv_len()],
            dq: vec![0.0; g.qkv_len()],
            dk: vec![0.0; g.qkv_len()],
            dv: vec![0.0; g.qkv_len()],
        };
        for l in 0..g.batch * g.heads {
            let at = |t: usize, d: usize| (t * hd + d) * ln + l;
            let mut a = vec![0.0f32; seq * seq];
            for i in 0..seq {
                let row = &mut a[i * seq..(i + 1) * seq];
                for (j, s) in row.iter_mut().enumerate() {
                    let dot = (0..hd).fold(0.0, |acc, d| q[at(i, d)].mul_add(k[at(j, d)], acc));
                    *s = if causal && j > i {
                        f32::NEG_INFINITY
                    } else {
                        dot * scale
                    };
                }
                softmax_row(row);
            }
            let mut ds = vec![0.0f32; seq * seq];
            for i in 0..seq {
                for d in 0..hd {
                    let c = (0..seq).fold(0.0, |acc, j| a[i * seq + j].mul_add(v[at(j, d)], acc));
                    o.ctx[at(i, d)] = c;
                }
                let da: Vec<f32> = (0..seq)
                    .map(|j| (0..hd).fold(0.0, |acc, d| dctx[at(i, d)].mul_add(v[at(j, d)], acc)))
                    .collect();
                let arow = &a[i * seq..(i + 1) * seq];
                let dot: f32 = da.iter().zip(arow).map(|(x, y)| x * y).sum();
                for j in 0..seq {
                    ds[i * seq + j] = arow[j] * (da[j] - dot) * scale;
                }
            }
            for t in 0..seq {
                for d in 0..hd {
                    o.dq[at(t, d)] =
                        (0..seq).fold(0.0, |acc, j| ds[t * seq + j].mul_add(k[at(j, d)], acc));
                    o.dk[at(t, d)] =
                        (0..seq).fold(0.0, |acc, i| ds[i * seq + t].mul_add(q[at(i, d)], acc));
                    o.dv[at(t, d)] =
                        (0..seq).fold(0.0, |acc, i| a[i * seq + t].mul_add(dctx[at(i, d)], acc));
                }
            }
            for (e, w) in a.iter().enumerate() {
                o.attn[e * ln + l] = *w;
            }
        }
        o
    }

    /// A lane body's outputs: `fwd` and `bwd` are [`forward_body`] and
    /// [`backward_body`], or the dispatched [`forward`] and [`backward`].
    fn run(g: Heads, causal: bool, x: &[Vec<f32>; 4], fwd: Fwd, bwd: Bwd) -> Out {
        let [q, k, v, dctx] = x;
        let mut o = Out {
            attn: vec![f32::NAN; g.weights_len()],
            ctx: vec![f32::NAN; g.qkv_len()],
            dq: vec![f32::NAN; g.qkv_len()],
            dk: vec![f32::NAN; g.qkv_len()],
            dv: vec![f32::NAN; g.qkv_len()],
        };
        fwd(g, causal, q, k, v, &mut o.attn, &mut o.ctx);
        bwd(g, q, k, v, &o.attn, dctx, &mut o.dq, &mut o.dk, &mut o.dv);
        o
    }

    /// [`forward_body`]'s portable body; [`run`] allocates every buffer
    /// at its geometry's length.
    fn forward_portable(
        g: Heads,
        causal: bool,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        attn: &mut [f32],
        ctx: &mut [f32],
    ) {
        // SAFETY: the lengths are the body's contract, and the portable
        // body needs no CPU feature.
        unsafe { forward_body::<false>(g, causal, q, k, v, attn, ctx) }
    }

    /// [`backward_body`]'s portable body, as [`forward_portable`].
    #[allow(clippy::too_many_arguments)]
    fn backward_portable(
        g: Heads,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        attn: &[f32],
        dctx: &[f32],
        dq: &mut [f32],
        dk: &mut [f32],
        dv: &mut [f32],
    ) {
        // SAFETY: as in forward_portable.
        unsafe { backward_body(g, q, k, v, attn, dctx, dq, dk, dv) }
    }

    type Fwd = fn(Heads, bool, &[f32], &[f32], &[f32], &mut [f32], &mut [f32]);

    type Bwd =
        fn(Heads, &[f32], &[f32], &[f32], &[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);

    /// Bits of every float, every NaN as `f32::NAN`: which payload
    /// survives where two NaNs meet is the compiler's choice of operand
    /// order, and Rust leaves it unspecified.
    fn canon<'a>(t: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
        t.into_iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// [`canon`] of the real lanes.
    fn real_bits(g: Heads, t: &[f32]) -> Vec<u32> {
        let (ln, real) = (g.lanes(), g.batch * g.heads);
        canon(t.chunks_exact(ln).flat_map(|e| &e[..real]))
    }

    fn assert_same(g: Heads, got: &Out, want: &Out, what: &str) {
        for (name, a, b) in [
            ("attn", &got.attn, &want.attn),
            ("ctx", &got.ctx, &want.ctx),
            ("dq", &got.dq, &want.dq),
            ("dk", &got.dk, &want.dk),
            ("dv", &got.dv, &want.dv),
        ] {
            assert!(real_bits(g, a) == real_bits(g, b), "{name} differs, {what}");
        }
    }

    /// Seeded normals in lane layout with NaN, ±∞ and −0.0 salted into
    /// some lanes.
    fn inputs(g: Heads, rng: &mut StdRng) -> [Vec<f32>; 4] {
        let dim = g.heads * g.head_dim;
        [0, 1, 2, 3].map(|which| {
            let mut rows = init::randn([g.batch * g.seq, dim], 1.0, rng).into_vec();
            for (e, x) in rows.iter_mut().enumerate() {
                match (e * 7 + which) % 41 {
                    0 => *x = f32::NAN,
                    1 => *x = f32::INFINITY,
                    2 => *x = f32::NEG_INFINITY,
                    3 | 4 => *x = -0.0,
                    _ => {}
                }
            }
            let mut lanes = vec![f32::NAN; g.qkv_len()];
            to_lanes(g, &rows, &mut lanes);
            lanes
        })
    }

    #[test]
    fn lane_layout_round_trips_and_zeroes_padding() {
        let g = Heads {
            batch: 3,
            heads: 2,
            seq: 5,
            head_dim: 4,
        };
        let rows: Vec<f32> = (0..3 * 5 * 8).map(|i| i as f32).collect();
        let mut lanes = vec![f32::NAN; g.qkv_len()];
        to_lanes(g, &rows, &mut lanes);
        // element (t, d) of head h of sequence b
        assert_eq!(
            lanes[(4 * 4 + 3) * 8 + 2 * 2 + 1],
            rows[(2 * 5 + 4) * 8 + 4 + 3]
        );
        assert!(lanes.chunks_exact(8).all(|e| e[6..] == [0.0, 0.0]));
        let mut back = vec![f32::NAN; rows.len()];
        from_lanes(g, &lanes, &mut back);
        assert_eq!(back, rows);
    }

    /// Both compilations against the definition, so also against each
    /// other: the portable body, whatever the host dispatches to, gives
    /// the dispatched bits. The last two shapes are TransformerMini's
    /// training and eval batches.
    #[test]
    fn bodies_match_the_per_lane_definition() {
        let mut rng = StdRng::seed_from_u64(5);
        for (batch, heads, seq, head_dim) in [
            (3, 2, 5, 8),
            (1, 1, 1, 4),
            (5, 3, 7, 4),
            (2, 4, 12, 8),
            (8, 2, 12, 8),
            (16, 2, 12, 8),
        ] {
            let g = Heads {
                batch,
                heads,
                seq,
                head_dim,
            };
            for causal in [true, false] {
                let what = format!("{g:?} causal={causal}");
                let x = inputs(g, &mut rng);
                let want = definition(g, causal, &x);
                let portable = run(g, causal, &x, forward_portable, backward_portable);
                assert_same(g, &portable, &want, &what);
                let dispatched = run(g, causal, &x, forward, backward);
                assert_same(g, &dispatched, &want, &what);
            }
        }
    }

    /// Both compilations against the one-row form, at the loss's 96 × 64
    /// and the classifier's 8 × 10 among other shapes.
    #[test]
    fn softmax_rows_matches_the_one_row_form() {
        let mut rng = StdRng::seed_from_u64(9);
        for cols in [1, 7, 10, 64] {
            for rows in [1, 8, 13, 35, 96] {
                let mut x = init::randn([rows, cols], 3.0, &mut rng).into_vec();
                for (e, v) in x.iter_mut().enumerate() {
                    match e % 37 {
                        5 => *v = f32::NAN,
                        11 => *v = f32::INFINITY,
                        17 => *v = f32::NEG_INFINITY,
                        23 | 29 => *v = -0.0,
                        _ => {}
                    }
                }
                let mut want = x.clone();
                for row in want.chunks_exact_mut(cols) {
                    softmax_row(row);
                }
                let mut got = x.clone();
                softmax_rows(&mut got, cols);
                assert!(canon(&got) == canon(&want), "{rows} x {cols}");

                let mut got = x.clone();
                // SAFETY: the portable body needs no CPU feature.
                unsafe {
                    softmax_rows_body::<false>(&mut got, cols, &mut vec![f32::NAN; cols * W])
                };
                assert!(canon(&got) == canon(&want), "{rows} x {cols}, portable");
            }
        }
    }
}
