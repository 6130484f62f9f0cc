//! Register-tiled assembly of the normal equations `XᵀSX` and `Xᵀy`.
//!
//! Training `h*` is dominated by one `O(n d²)` reduction: the Gram matrix
//! of the training rows (ridge regression), or its per-row weighted form
//! `XᵀSX` with `S = diag(s)` (each damped-Newton Hessian of logistic
//! regression). The kernel here walks the rows in cache-sized blocks and,
//! for each block, keeps an `MR × NR` tile of the upper triangle in
//! registers while it streams the block's rows through it, so every loaded
//! row value feeds `MR` or `NR` products instead of one.
//!
//! **Bit-identical to the row-order loop.** Each entry `G[a][b]` starts at
//! `+0.0` and receives its products `(s_i·x_ia)·x_ib` in ascending row
//! order, one rounded multiply and one rounded add each — exactly the
//! sequence the textbook loop `for i { for a { for b ≥ a { G[a][b] +=
//! (s_i·x_ia)·x_ib } } }` performs. Tiles only change which entries are
//! worked on together, never the order of one entry's terms, and Rust
//! never contracts `a + b·c` into a fused multiply-add. The textbook loop
//! skips zero products; for finite input that is a no-op, because a sum
//! that starts at `+0.0` can never become `-0.0` and adding `±0.0` leaves
//! every other value unchanged. The trained `h*` is therefore the same bits
//! whichever instantiation runs, which journal replay relies on: a replayed
//! sale re-perturbs `h*`.
//!
//! Both [`Kernel`] instantiations compile the same generic body.

use crate::kernel::Kernel;

/// Rows per cache block: 256 rows of `d = 90` are 180 KiB, which stay in
/// L2 while every tile of the block streams through them.
const BLOCK_ROWS: usize = 256;

/// Rows of `G` per register tile.
const MR: usize = 4;

impl Kernel {
    /// Adds the products of the `d`-column row-major rows `x` into the
    /// upper triangle (and diagonal) of the row-major `d × d` matrix `g`:
    /// `G[a][b] += Σ_i (s_i·x_ia)·x_ib` for `a ≤ b`, with `s_i = 1` when
    /// `weights` is `None`. When `y` is given, also adds `y_i·x_ib` into
    /// `xty[b]` in the same pass. Entries below the diagonal of `g` are
    /// left unspecified.
    ///
    /// Panics when the lengths disagree: `x.len()` must be a multiple of
    /// `d`, `g` must be `d × d`, `weights` and `y` must have one entry per
    /// row and `xty` one per column (it is unused without `y`).
    pub(crate) fn accumulate(
        self,
        x: &[f64],
        d: usize,
        weights: Option<&[f64]>,
        y: Option<&[f64]>,
        g: &mut [f64],
        xty: &mut [f64],
    ) {
        if d == 0 {
            return;
        }
        let n = x.len() / d;
        assert!(x.len() == n * d && g.len() == d * d, "gram kernel shapes");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "one weight per row");
        }
        if let Some(y) = y {
            assert!(
                y.len() == n && xty.len() == d,
                "one target per row and one Xᵀy entry per column"
            );
        }
        let args = Args {
            x,
            d,
            weights,
            y,
            g,
            xty,
        };
        match self {
            Kernel::Portable => portable(args),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "the AVX2 kernel needs an AVX2 CPU"
                );
                // SAFETY: the assert above checked that the CPU running this
                // call supports AVX2, the one requirement of `avx2`.
                unsafe { avx2(args) }
            }
        }
    }
}

/// The kernel's inputs, handed whole to each instantiation.
struct Args<'a> {
    x: &'a [f64],
    d: usize,
    weights: Option<&'a [f64]>,
    y: Option<&'a [f64]>,
    g: &'a mut [f64],
    xty: &'a mut [f64],
}

/// The blocks compiled for the target's baseline features, with 4-wide
/// tiles.
fn portable(args: Args<'_>) {
    blocks::<4>(args);
}

/// The same blocks compiled with AVX2 enabled, with 8-wide tiles.
///
/// # Safety
///
/// The CPU running the call must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must run on a CPU with AVX2; the body is safe code that
// the compiler may vectorize with AVX2 instructions.
unsafe fn avx2(args: Args<'_>) {
    blocks::<8>(args);
}

/// Streams `x` through the tiles one block of rows at a time. `NR` is the
/// tile width in columns of `G`. Always inlined, so each caller compiles it
/// with its own target features.
#[inline(always)]
fn blocks<const NR: usize>(args: Args<'_>) {
    let Args {
        x,
        d,
        weights,
        y,
        g,
        xty,
    } = args;
    let mut scaled = Vec::new();
    for (k, block) in x.chunks(BLOCK_ROWS * d).enumerate() {
        let first = k * BLOCK_ROWS;
        let rows = block.len() / d;
        // The left factor of every product: `s_i·x_ia`, rounded once per
        // entry exactly as the row-order loop rounds it.
        let left = match weights {
            None => block,
            Some(w) => {
                scaled.clear();
                for (row, &s) in block.chunks_exact(d).zip(&w[first..first + rows]) {
                    scaled.extend(row.iter().map(|&v| s * v));
                }
                &scaled[..]
            }
        };
        let mut a0 = 0;
        while a0 < d {
            let mr = (d - a0).min(MR);
            match mr {
                4 => stripe::<4, NR>(block, left, d, a0, g),
                3 => stripe::<3, NR>(block, left, d, a0, g),
                2 => stripe::<2, NR>(block, left, d, a0, g),
                _ => stripe::<1, NR>(block, left, d, a0, g),
            }
            a0 += mr;
        }
        if let Some(y) = y {
            for (row, &yi) in block.chunks_exact(d).zip(&y[first..first + rows]) {
                for (o, &v) in xty.iter_mut().zip(row) {
                    *o += yi * v;
                }
            }
        }
    }
}

/// Rows `a0..a0 + M` of `G`, from the diagonal to column `d`: full `NR`-wide
/// tiles, then narrower ones for the remainder.
#[inline(always)]
fn stripe<const M: usize, const NR: usize>(
    block: &[f64],
    left: &[f64],
    d: usize,
    a0: usize,
    g: &mut [f64],
) {
    let mut b0 = a0;
    while d - b0 >= NR {
        tile::<M, NR>(block, left, d, a0, b0, g);
        b0 += NR;
    }
    if NR > 4 && d - b0 >= 4 {
        tile::<M, 4>(block, left, d, a0, b0, g);
        b0 += 4;
    }
    if d - b0 >= 2 {
        tile::<M, 2>(block, left, d, a0, b0, g);
        b0 += 2;
    }
    if d - b0 == 1 {
        tile::<M, 1>(block, left, d, a0, b0, g);
    }
}

/// Adds the block's products into `G[a0..a0+M][b0..b0+N]`, holding the
/// tile in registers across all of the block's rows (ascending).
#[inline(always)]
fn tile<const M: usize, const N: usize>(
    block: &[f64],
    left: &[f64],
    d: usize,
    a0: usize,
    b0: usize,
    g: &mut [f64],
) {
    let mut acc = [[0.0f64; N]; M];
    for (p, acc_row) in acc.iter_mut().enumerate() {
        let start = (a0 + p) * d + b0;
        acc_row.copy_from_slice(&g[start..start + N]);
    }
    for (row, lrow) in block.chunks_exact(d).zip(left.chunks_exact(d)) {
        let right = &row[b0..b0 + N];
        let lhs = &lrow[a0..a0 + M];
        for (acc_row, &l) in acc.iter_mut().zip(lhs) {
            for (a, &r) in acc_row.iter_mut().zip(right) {
                *a += l * r;
            }
        }
    }
    for (p, acc_row) in acc.iter().enumerate() {
        let start = (a0 + p) * d + b0;
        g[start..start + N].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_entries as entries;
    use proptest::prelude::*;

    /// The row-order loops the kernel replaces: `G[a][b] += (s_i·x_ia)·x_ib`
    /// row by row, skipping zero left factors, and `Xᵀy` skipping zero
    /// targets.
    fn reference(
        x: &[f64],
        d: usize,
        w: Option<&[f64]>,
        y: Option<&[f64]>,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut g = vec![0.0; d * d];
        let mut xty = vec![0.0; d];
        for (i, row) in x.chunks_exact(d).enumerate() {
            if let Some(w) = w {
                if w[i] == 0.0 {
                    continue;
                }
            }
            for a in 0..d {
                let left = w.map_or(row[a], |w| w[i] * row[a]);
                if left == 0.0 {
                    continue;
                }
                for b in a..d {
                    g[a * d + b] += left * row[b];
                }
            }
        }
        if let Some(y) = y {
            for (row, &yi) in x.chunks_exact(d).zip(y) {
                if yi == 0.0 {
                    continue;
                }
                for (o, &v) in xty.iter_mut().zip(row) {
                    *o += yi * v;
                }
            }
        }
        (g, xty)
    }

    /// Bits of the upper triangle (the kernel leaves the lower unspecified).
    fn upper_bits(g: &[f64], d: usize) -> Vec<u64> {
        (0..d)
            .flat_map(|a| (a..d).map(move |b| g[a * d + b].to_bits()))
            .collect()
    }

    proptest! {
        #[test]
        fn every_kernel_matches_the_row_order_loop_bit_for_bit(
            n in 0usize..=300,
            d in 1usize..=100,
            weighted in 0u32..2,
            with_y in 0u32..2,
            seed in 0u64..1_000_000,
        ) {
            let x = entries(n * d, seed);
            let w: Vec<f64> = entries(n, seed ^ 1).iter().map(|v| v.abs()).collect();
            let y = entries(n, seed ^ 2);
            let w = (weighted == 1).then_some(&w[..]);
            let y = (with_y == 1).then_some(&y[..]);
            let (want_g, want_xty) = reference(&x, d, w, y);
            for kernel in Kernel::available() {
                let mut g = vec![0.0; d * d];
                let mut xty = vec![0.0; d];
                kernel.accumulate(&x, d, w, y, &mut g, &mut xty);
                prop_assert_eq!(upper_bits(&g, d), upper_bits(&want_g, d), "{:?} G, n={} d={}", kernel, n, d);
                if y.is_some() {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&xty), bits(&want_xty), "{:?} Xᵀy, n={} d={}", kernel, n, d);
                }
            }
        }
    }

    #[test]
    fn blocks_and_tile_edges_match_the_row_order_loop() {
        // More rows than one block, and widths on both sides of each tile
        // width, on every kernel.
        for d in [1, 2, 3, 4, 5, 7, 8, 9, 13, 90] {
            let n = 2 * BLOCK_ROWS + 3;
            let x = entries(n * d, d as u64);
            let w: Vec<f64> = entries(n, 7).iter().map(|v| v.abs()).collect();
            let y = entries(n, 8);
            for (w, y) in [(None, Some(&y[..])), (Some(&w[..]), None)] {
                let (want_g, want_xty) = reference(&x, d, w, y);
                for kernel in Kernel::available() {
                    let mut g = vec![0.0; d * d];
                    let mut xty = vec![0.0; d];
                    kernel.accumulate(&x, d, w, y, &mut g, &mut xty);
                    assert_eq!(
                        upper_bits(&g, d),
                        upper_bits(&want_g, d),
                        "{kernel:?} d={d}"
                    );
                    if y.is_some() {
                        assert_eq!(xty, want_xty, "{kernel:?} d={d}");
                    }
                }
            }
        }
    }
}
