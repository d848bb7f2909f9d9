//! The one CPU ladder every SIMD kernel in the workspace dispatches on.
//!
//! A kernel module names the rungs it has kernels for in its `TIERS` and
//! runs the widest of them at or below the rung it is handed —
//! production hands it [`Tier::best`], the tests and bench rows each
//! rung of `TIERS` the CPU can run. Each rung needs every feature of the
//! rungs below it plus its own:
//!
//! | rung | adds | kernels it gates |
//! |---|---|---|
//! | [`Tier::Scalar`] | — | every definition |
//! | [`Tier::Avx2`] | `avx2` | ChaCha20's eight-block keystream |
//! | [`Tier::Avx512`] | `avx512f`, `avx512bw`, `avx512dq` | ChaCha20's sixteen-block keystream; the lossy encoder |
//! | [`Tier::Ifma`] | `avx512ifma` | Poly1305's eight-lane MAC; X25519's eight-lane ladder and comb |
//!
//! So a rung is a whole generation of x86-64, not one kernel's list: an
//! AVX-512F host without BW and DQ (Xeon Phi) stops at `Avx2`, and its
//! ChaCha20 runs the eight-block kernel. SHA-NI ships independently of
//! AVX-512 — on either side of it — so it is probed beside the ladder
//! ([`sha_ni`]), not on it. Detection is the only input: there is no
//! option, env var or feature.

use std::sync::OnceLock;

/// A rung of the ladder, lowest first; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable code: the definition every wide kernel is pinned to.
    Scalar,
    /// AVX2.
    Avx2,
    /// AVX-512 F, BW and DQ, on top of AVX2.
    Avx512,
    /// AVX-512 IFMA (`vpmadd52`), on top of the `Avx512` rung.
    Ifma,
}

impl Tier {
    /// Every rung, lowest first.
    pub const ALL: [Tier; 4] = [Tier::Scalar, Tier::Avx2, Tier::Avx512, Tier::Ifma];

    /// Whether the running CPU has this rung's features and every lower
    /// rung's.
    pub fn available(self) -> bool {
        self <= Tier::best()
    }

    /// The highest rung the running CPU reaches.
    pub fn best() -> Tier {
        detected().0
    }

    /// Every rung the running CPU reaches, scalar first.
    pub fn supported() -> Vec<Tier> {
        Tier::runnable(&Tier::ALL)
    }

    /// The rungs of `tiers` the running CPU reaches, in order — a kernel
    /// module's `TIERS` as its tests and bench rows iterate them.
    pub fn runnable(tiers: &[Tier]) -> Vec<Tier> {
        tiers.iter().copied().filter(|t| t.available()).collect()
    }

    /// The rung's name in bench rows: `"scalar"`, `"avx2"`, `"avx512"`
    /// or `"ifma"`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
            Tier::Ifma => "ifma",
        }
    }
}

/// Whether the running CPU has the SHA-256 extension and what its kernel
/// also needs: `sha`, `ssse3` and `sse4.1`.
pub fn sha_ni() -> bool {
    detected().1
}

/// The top rung and [`sha_ni`], detected on first use: every kernel asks
/// on every call, so this is the one probe that caches.
fn detected() -> (Tier, bool) {
    static DETECTED: OnceLock<(Tier, bool)> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let (rungs, sha_ni) = (
            [
                is_x86_feature_detected!("avx2"),
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512dq"),
                is_x86_feature_detected!("avx512ifma"),
            ],
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (rungs, sha_ni) = ([false; 3], false);
        let climbed = rungs.iter().take_while(|&&has| has).count();
        (Tier::ALL[climbed], sha_ni)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What each rung adds, as the module docs define it.
    const RUNGS: [(Tier, &[&str]); 4] = [
        (Tier::Scalar, &[]),
        (Tier::Avx2, &["avx2"]),
        (Tier::Avx512, &["avx512f", "avx512bw", "avx512dq"]),
        (Tier::Ifma, &["avx512ifma"]),
    ];

    /// Per kernel module on the ladder, the union of its
    /// `#[target_feature(enable = …)]` lists, with the rung that gates it.
    const KERNELS: [(&str, Tier, &[&str]); 5] = [
        ("chacha20::avx2", Tier::Avx2, &["avx2"]),
        ("chacha20::avx512", Tier::Avx512, &["avx512f"]),
        ("codec::avx512", Tier::Avx512, &["avx512f", "avx512bw"]),
        ("poly1305::ifma", Tier::Ifma, &["avx512f", "avx512ifma"]),
        (
            "x25519::ifma",
            Tier::Ifma,
            &["avx512f", "avx512dq", "avx512ifma"],
        ),
    ];

    fn has(feature: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match feature {
                "avx2" => is_x86_feature_detected!("avx2"),
                "avx512f" => is_x86_feature_detected!("avx512f"),
                "avx512bw" => is_x86_feature_detected!("avx512bw"),
                "avx512dq" => is_x86_feature_detected!("avx512dq"),
                "avx512ifma" => is_x86_feature_detected!("avx512ifma"),
                "sha" => is_x86_feature_detected!("sha"),
                "ssse3" => is_x86_feature_detected!("ssse3"),
                "sse4.1" => is_x86_feature_detected!("sse4.1"),
                other => panic!("no probe for {other}"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = feature;
            false
        }
    }

    /// Each rung's features and every lower rung's.
    fn requirement(tier: Tier) -> Vec<&'static str> {
        let below = RUNGS.iter().filter(|(rung, _)| *rung <= tier);
        below.flat_map(|(_, adds)| adds.iter().copied()).collect()
    }

    /// A rung lets a kernel run only where every feature it enables was
    /// detected (X25519's IFMA kernels enable `avx512f`, which the `Ifma`
    /// rung inherits from `Avx512`); `available` is exactly the rung's
    /// requirement, the rungs are monotone, and `best` is the widest
    /// supported rung.
    #[test]
    fn every_rung_requires_what_its_kernels_enable_and_best_is_the_widest() {
        println!("cpu tiers: {:?}", Tier::supported());
        assert_eq!(RUNGS.map(|(rung, _)| rung), Tier::ALL);
        for (kernel, rung, enables) in KERNELS {
            let required = requirement(rung);
            for feature in enables {
                assert!(required.contains(feature), "{kernel} enables {feature}");
            }
        }
        for tier in Tier::ALL {
            let has_all = requirement(tier).into_iter().all(has);
            assert_eq!(tier.available(), has_all, "{tier:?}");
        }
        assert_eq!(sha_ni(), ["sha", "ssse3", "sse4.1"].into_iter().all(has));
        for pair in Tier::ALL.windows(2) {
            assert!(!pair[1].available() || pair[0].available(), "{pair:?}");
        }
        let supported = Tier::supported();
        assert_eq!(supported.first(), Some(&Tier::Scalar));
        assert_eq!(supported.last(), Some(&Tier::best()));
        let names = Tier::ALL.map(Tier::name);
        assert_eq!(names, ["scalar", "avx2", "avx512", "ifma"]);
    }
}
