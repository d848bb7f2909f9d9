//! The three systems under comparison (§6.1.3): classic FL, the
//! noisy-gradient baseline and MixNN — the last through the sealed proxy
//! round the repo ships (`seal → mix_sealed_round`), the only
//! proxy round there is. Beside them, the three cascade [`Layout`]s every
//! beyond-the-paper experiment routes through, declared once.

use mixnn_cascade::{CascadeTopology, FreeRoute, LinearChain, StratifiedLayout};
use mixnn_core::{MixnnProxyConfig, MixnnTransport};
use mixnn_fl::{DirectTransport, NoisyTransport, UpdateTransport};

/// A defense (or its absence) applied to the update path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Defense {
    /// No protection: the server sees attributable raw updates.
    ClassicFl,
    /// Per-scalar Gaussian noise `N(0, σ²)` added on-device (local-DP
    /// style, §6.1.3).
    NoisyGradient {
        /// Noise standard deviation.
        sigma: f32,
    },
    /// The MixNN proxy as deployed: batch mixing over the sealed
    /// transport (seal → enclave ingest → mix).
    MixNn,
}

impl Defense {
    /// The label used in experiment output (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Defense::ClassicFl => "classic-fl",
            Defense::NoisyGradient { .. } => "noisy-gradient",
            Defense::MixNn => "mixnn",
        }
    }

    /// The three defenses compared in Figs. 5–8, with the configured noise
    /// scale.
    pub fn lineup(sigma: f32) -> [Defense; 3] {
        [
            Defense::ClassicFl,
            Defense::NoisyGradient { sigma },
            Defense::MixNn,
        ]
    }

    /// Builds the transport implementing this defense for a model with
    /// the given layer `signature`.
    ///
    /// For MixNN a fresh proxy is launched (attestation service and enclave
    /// included, the signature bound at launch) and every update is sealed
    /// to it: the figures run the path that ships, at no change to a single
    /// output byte (ARCHITECTURE.md, "What was removed", has the
    /// measurement).
    pub fn make_transport(&self, seed: u64, signature: &[usize]) -> Box<dyn UpdateTransport> {
        match self {
            Defense::ClassicFl => Box::new(DirectTransport::new()),
            Defense::NoisyGradient { sigma } => Box::new(NoisyTransport::new(*sigma, seed)),
            Defense::MixNn => Box::new(MixnnTransport::launch(
                MixnnProxyConfig {
                    expected_signature: signature.to_vec(),
                    seed,
                    ..MixnnProxyConfig::default()
                },
                seed,
            )),
        }
    }
}

/// A shipped cascade layout. The topology, pooled and compress
/// experiments build theirs here, so a layout name means one layout in
/// every `BENCH_*.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every client through every hop, in order (§4's proxy, chained).
    Linear,
    /// `hops.div_ceil(2)` strata; each client takes one hop per stratum.
    Stratified,
    /// Each client draws its own route of 1 to `hops` hops.
    FreeRoute,
}

impl Layout {
    /// Every layout, the chain first.
    pub const ALL: [Layout; 3] = [Layout::Linear, Layout::Stratified, Layout::FreeRoute];

    /// The layouts that differ at `hops` hops: at one hop all three are
    /// the same single-hop route, so the chain stands alone.
    pub fn distinct_at(hops: usize) -> &'static [Layout] {
        if hops == 1 {
            &Layout::ALL[..1]
        } else {
            &Layout::ALL
        }
    }

    /// This layout over `hops` hops, its routes drawn from `seed`.
    pub fn topology(self, hops: usize, seed: u64) -> Box<dyn CascadeTopology> {
        match self {
            Layout::Linear => Box::new(LinearChain::new(hops)),
            Layout::Stratified => Box::new(StratifiedLayout::evenly(
                hops,
                hops.div_ceil(2),
                seed ^ 0x57,
            )),
            Layout::FreeRoute => Box::new(FreeRoute::new(hops, 1, hops, seed ^ 0xf4)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_fl::ModelUpdate;
    use mixnn_nn::{LayerParams, ModelParams};

    fn updates(c: usize) -> Vec<ModelUpdate> {
        (0..c)
            .map(|i| {
                ModelUpdate::new(
                    i,
                    ModelParams::from_layers(vec![
                        LayerParams::from_values(vec![i as f32; 2]),
                        LayerParams::from_values(vec![i as f32; 2]),
                    ]),
                )
            })
            .collect()
    }

    #[test]
    fn labels_are_distinct() {
        let lineup = Defense::lineup(0.1);
        let labels: Vec<&str> = lineup.iter().map(Defense::label).collect();
        assert_eq!(labels, vec!["classic-fl", "noisy-gradient", "mixnn"]);
    }

    #[test]
    fn all_transports_relay_round() {
        for d in Defense::lineup(0.1) {
            let mut t = d.make_transport(7, &[2, 2]);
            let out = t.relay(updates(5)).unwrap();
            assert_eq!(out.len(), 5, "{}", d.label());
        }
    }

    #[test]
    fn only_the_mixnn_arm_reports_a_transcript_and_it_inverts_the_relay() {
        for d in Defense::lineup(0.1) {
            let mut t = d.make_transport(7, &[2, 2]);
            assert!(t.transcript().is_none(), "{} before a relay", d.label());
            let ins = updates(5);
            let outs = t.relay(ins.clone()).unwrap();
            if d != Defense::MixNn {
                assert!(t.transcript().is_none(), "{}", d.label());
                continue;
            }
            let transcript = t.transcript().expect("a mixnn relay leaves a transcript");
            let params = |us: Vec<ModelUpdate>| -> Vec<ModelParams> {
                us.into_iter().map(|u| u.params).collect()
            };
            let bits = |ps: &[ModelParams]| -> Vec<u32> {
                ps.iter()
                    .flat_map(ModelParams::flatten)
                    .map(f32::to_bits)
                    .collect()
            };
            let restored = transcript.unmix(&params(outs)).unwrap();
            assert_eq!(bits(&restored), bits(&params(ins)));
        }
    }

    #[test]
    fn classic_is_identity_noisy_and_mixnn_are_not() {
        let ins = updates(6);
        let out = Defense::ClassicFl
            .make_transport(0, &[2, 2])
            .relay(ins.clone())
            .unwrap();
        assert_eq!(out, ins);
        let noisy = Defense::NoisyGradient { sigma: 0.5 }
            .make_transport(0, &[2, 2])
            .relay(ins.clone())
            .unwrap();
        assert_ne!(noisy, ins);
        let mixed = Defense::MixNn
            .make_transport(0, &[2, 2])
            .relay(ins.clone())
            .unwrap();
        assert_ne!(mixed, ins);
        // MixNN preserves the aggregate exactly; noise does not.
        let mean_in = ModelParams::mean(&ins.iter().map(|u| u.params.clone()).collect::<Vec<_>>());
        let mean_mix =
            ModelParams::mean(&mixed.iter().map(|u| u.params.clone()).collect::<Vec<_>>());
        assert_eq!(mean_in, mean_mix);
    }

    #[test]
    fn a_foreign_first_update_cannot_wedge_the_mixnn_arm() {
        // The figures' proxy binds its signature at launch: a foreign
        // update arriving first is the one blamed, and the next honest
        // round commits.
        let mut t = Defense::MixNn.make_transport(0, &[2, 2]);
        let alien = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
        let mut round = vec![ModelUpdate::new(9, alien)];
        round.extend(updates(3));
        let err = t.relay(round).unwrap_err().to_string();
        assert!(
            err.contains("signature [1] does not match proxy model [2, 2]"),
            "{err}"
        );
        let ins = updates(3);
        let outs = t.relay(ins.clone()).unwrap();
        let mean = |us: &[ModelUpdate]| {
            ModelParams::mean(&us.iter().map(|u| u.params.clone()).collect::<Vec<_>>())
        };
        assert_eq!(mean(&ins), mean(&outs));
    }

    #[test]
    fn layouts_are_declared_once_with_their_names_and_the_one_hop_rule() {
        assert_eq!(Layout::distinct_at(1), &[Layout::Linear]);
        assert_eq!(Layout::distinct_at(2), &Layout::ALL);
        assert_eq!(Layout::distinct_at(4), &Layout::ALL);
        let names: Vec<String> = Layout::ALL
            .iter()
            .map(|l| l.topology(3, 5).name().to_string())
            .collect();
        assert_eq!(names, ["linear", "stratified", "free-route"]);
        for seed in [0, 5, 0xf4] {
            let layout = Layout::FreeRoute.topology(3, seed);
            let free = FreeRoute::new(3, 1, 3, seed ^ 0xf4);
            assert_eq!(layout.num_hops(), 3);
            for slot in 0..64 {
                assert_eq!(layout.route(slot), free.route(slot), "seed {seed}");
            }
        }
    }
}
