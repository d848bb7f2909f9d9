//! The three systems under comparison (§6.1.3): classic FL, the
//! noisy-gradient baseline and MixNN — the last through the sealed proxy
//! round the repo ships (`seal → mix_sealed_round`), the only
//! proxy round there is.

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
}
