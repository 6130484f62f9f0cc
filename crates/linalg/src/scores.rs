//! Register-tiled scoring of many rows against many linear models.
//!
//! Estimating an error curve scores every test row `x_i` against each of a
//! δ point's noisy models `h_m`. One [`dot_slices`] per pair is bound by
//! the latency of its own add chain; this kernel instead interleaves the
//! models `NR` to a tile (one copy of their weights) and keeps an
//! `MR × NR` tile of (row, model) dot products in registers, so each loaded
//! column of a model tile feeds `MR` rows, each loaded row value feeds `NR`
//! models, and the tile's independent add chains overlap.
//!
//! **Bit-identical to [`dot_slices`].** Every score is computed exactly as
//! `dot_slices(h_m, x_i)` computes it: four lanes that start at `+0.0` and
//! receive one rounded product `h_m[j]·x_i[j]` and one rounded add per
//! term of their lane, in ascending `j`; then `((a0 + a1) + a2) + a3`; then
//! the `d mod 4` tail terms added in order. The tile only changes which
//! pairs are worked on together, never the operations of one pair, and
//! both [`Kernel`] instantiations compile the same generic body.
//!
//! Scores go to the caller's sink one row at a time as each tile finishes,
//! rows ascending for every model, so a caller summing a per-row loss per
//! model adds its terms in the same order as a row loop would, and no
//! `n × models` buffer is ever built.
//!
//! [`dot_slices`]: crate::vector::dot_slices

use crate::kernel::Kernel;

/// Rows per register tile.
const MR: usize = 3;

impl Kernel {
    /// Calls `sink(i, m0, scores)` with `scores[k] = dot_slices(models[m0 +
    /// k], x_i)` for every row `i` of the row-major `n × d` matrix `x` and
    /// every model, at most one tile width of models per call. Every model
    /// receives its rows in ascending order.
    ///
    /// Panics unless `x` holds `n × d` entries and every model `d`.
    pub(crate) fn score<F>(self, x: &[f64], n: usize, d: usize, models: &[&[f64]], sink: &mut F)
    where
        F: FnMut(usize, usize, &[f64]),
    {
        assert!(
            x.len() == n * d && models.iter().all(|m| m.len() == d),
            "score kernel shapes"
        );
        let args = Args { x, n, d, models };
        match self {
            Kernel::Portable => portable(args, sink),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "the AVX2 kernel needs an AVX2 CPU"
                );
                // SAFETY: the assert above checked that the CPU running this
                // call supports AVX2, the one requirement of `avx2`.
                unsafe { avx2(args, sink) }
            }
        }
    }
}

/// The kernel's inputs, handed whole to each instantiation.
struct Args<'a> {
    x: &'a [f64],
    n: usize,
    d: usize,
    models: &'a [&'a [f64]],
}

/// The tiles compiled for the target's baseline features, two models wide.
fn portable<F: FnMut(usize, usize, &[f64])>(args: Args<'_>, sink: &mut F) {
    rows::<2, F>(args, sink);
}

/// The same tiles compiled with AVX2 enabled, four models wide.
///
/// # Safety
///
/// The CPU running the call must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must run on a CPU with AVX2; the body is safe code that
// the compiler may vectorize with AVX2 instructions.
unsafe fn avx2<F: FnMut(usize, usize, &[f64])>(args: Args<'_>, sink: &mut F) {
    rows::<4, F>(args, sink);
}

/// Packs the models `NR` to a tile, then walks the rows `MR` at a time,
/// ascending. Always inlined, so each caller compiles it with its own
/// target features.
#[inline(always)]
fn rows<const NR: usize, F: FnMut(usize, usize, &[f64])>(args: Args<'_>, sink: &mut F) {
    let Args { x, n, d, models } = args;
    let packed = pack::<NR>(models, d);
    let mut r0 = 0;
    while r0 < n {
        if n - r0 >= MR {
            stripe::<MR, NR, F>(x, d, r0, models.len(), &packed, sink);
            r0 += MR;
        } else {
            stripe::<1, NR, F>(x, d, r0, models.len(), &packed, sink);
            r0 += 1;
        }
    }
}

/// The models interleaved `NR` to a tile: tile `t` holds, for each column
/// `j`, the weights `j` of models `t·NR .. t·NR + NR` side by side, so one
/// load fetches a column for the whole tile. The last tile is padded with
/// zero models, whose scores are never handed out.
#[inline(always)]
fn pack<const NR: usize>(models: &[&[f64]], d: usize) -> Vec<[f64; NR]> {
    let mut packed = Vec::with_capacity(models.len().div_ceil(NR) * d);
    for tile in models.chunks(NR) {
        for j in 0..d {
            packed.push(std::array::from_fn(|q| tile.get(q).map_or(0.0, |m| m[j])));
        }
    }
    packed
}

/// Rows `r0..r0 + M` against every model tile in turn.
#[inline(always)]
fn stripe<const M: usize, const NR: usize, F: FnMut(usize, usize, &[f64])>(
    x: &[f64],
    d: usize,
    r0: usize,
    count: usize,
    packed: &[[f64; NR]],
    sink: &mut F,
) {
    let rows: [&[f64]; M] = std::array::from_fn(|p| &x[(r0 + p) * d..(r0 + p + 1) * d]);
    for t in 0..count.div_ceil(NR) {
        let m0 = t * NR;
        let scores = tile::<M, NR>(rows, &packed[t * d..(t + 1) * d]);
        for (p, out) in scores.iter().enumerate() {
            sink(r0 + p, m0, &out[..NR.min(count - m0)]);
        }
    }
}

/// Scores rows `rows` against one packed model tile, holding the `M × NR`
/// pairs' four lanes each in registers across the row length.
#[inline(always)]
fn tile<const M: usize, const NR: usize>(
    rows: [&[f64]; M],
    columns: &[[f64; NR]],
) -> [[f64; NR]; M] {
    let d = columns.len();
    let head = d / 4 * 4;
    let rows = rows.map(|row| &row[..d]);
    // `acc[p][k][q]`: lane `k` of the dot product of row `p` and model `q`.
    let mut acc = [[[0.0f64; NR]; 4]; M];
    for c in 0..d / 4 {
        for k in 0..4 {
            let j = 4 * c + k;
            let w = &columns[j];
            for (lanes, row) in acc.iter_mut().zip(&rows) {
                let xv = row[j];
                for (a, &wq) in lanes[k].iter_mut().zip(w) {
                    *a += wq * xv;
                }
            }
        }
    }
    let mut scores = [[0.0f64; NR]; M];
    for ((out, lanes), row) in scores.iter_mut().zip(&acc).zip(&rows) {
        for q in 0..NR {
            out[q] = lanes[0][q] + lanes[1][q] + lanes[2][q] + lanes[3][q];
        }
        for j in head..d {
            for (s, &wq) in out.iter_mut().zip(&columns[j]) {
                *s += wq * row[j];
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_entries as entries;
    use crate::vector::dot_slices;
    use proptest::prelude::*;

    /// Runs `kernel` and checks every score it hands out against
    /// `dot_slices`, bit for bit, and that each model saw every row once,
    /// in ascending order.
    fn check(kernel: Kernel, x: &[f64], n: usize, d: usize, models: &[Vec<f64>]) {
        let refs: Vec<&[f64]> = models.iter().map(|m| &m[..]).collect();
        let mut next_row = vec![0usize; models.len()];
        kernel.score(x, n, d, &refs, &mut |i, m0, scores| {
            let row = &x[i * d..(i + 1) * d];
            for (k, &s) in scores.iter().enumerate() {
                let m = m0 + k;
                assert_eq!(
                    next_row[m], i,
                    "{kernel:?}: model {m} saw row {i} out of order"
                );
                next_row[m] += 1;
                let want = dot_slices(&models[m], row);
                assert_eq!(
                    s.to_bits(),
                    want.to_bits(),
                    "{kernel:?}: row {i}, model {m}, n={n} d={d}"
                );
            }
        });
        assert!(
            next_row.iter().all(|&r| r == n),
            "{kernel:?}: every model scores every row"
        );
    }

    proptest! {
        #[test]
        fn every_kernel_matches_dot_slices_bit_for_bit(
            n in 0usize..=300,
            d in 1usize..=100,
            count in 1usize..=23,
            seed in 0u64..1_000_000,
        ) {
            let x = entries(n * d, seed);
            let models: Vec<Vec<f64>> =
                (0..count).map(|m| entries(d, seed ^ (m as u64 + 1) << 20)).collect();
            for kernel in Kernel::available() {
                check(kernel, &x, n, d, &models);
            }
        }
    }

    #[test]
    fn tile_edges_and_empty_inputs() {
        // Row counts around the row tile, model counts around every tile
        // width, and lengths around the lane width, on every kernel.
        for kernel in Kernel::available() {
            for d in [0, 1, 3, 4, 5, 8, 54] {
                for n in [0, 1, 2, 3, 5] {
                    for count in [0, 1, 2, 3, 4, 5, 7, 9] {
                        let x = entries(n * d, (n * 31 + d) as u64);
                        let models: Vec<Vec<f64>> =
                            (0..count).map(|m| entries(d, 1000 + m as u64)).collect();
                        check(kernel, &x, n, d, &models);
                    }
                }
            }
        }
    }
}
