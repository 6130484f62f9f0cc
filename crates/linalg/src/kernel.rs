//! The compiled instantiations shared by the crate's register-tiled
//! kernels (Gram assembly in `gram`, row × model scoring in `scores`).
//!
//! Each kernel is one generic, always-inlined body. On x86-64 it is also
//! compiled with AVX2 enabled and chosen at run time when the CPU has it;
//! elsewhere, and under Miri, the portable instantiation runs. AVX2 here
//! never implies FMA, and Rust never contracts `a + b·c`, so both
//! instantiations round every operation the same way.

/// One compiled instantiation of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Plain Rust, compiled for the target's baseline features.
    Portable,
    /// The same code compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The fastest instantiation this CPU can run.
    pub(crate) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Portable
    }

    /// Every instantiation this CPU can run.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Kernel> {
        let mut out = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            out.push(Kernel::detect());
        }
        out
    }
}

/// Deterministic test entries mixing ordinary values with the ones a
/// summation-order change is most likely to expose: `+0.0`, `-0.0`,
/// subnormals and widely spread magnitudes.
#[cfg(test)]
pub(crate) fn test_entries(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            match (state >> 3) % 7 {
                0 => 0.0,
                1 if u < 0.0 => -0.0,
                1 => u * 1e-310,
                2 => u * 1e6,
                _ => u,
            }
        })
        .collect()
}
