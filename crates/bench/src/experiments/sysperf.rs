//! **§6.5** — the proxy's memory table: parameters, update size and
//! enclave memory consumption for the 2-conv and 3-conv models.
//!
//! Expected shape: memory grows with model size (the paper measures
//! 26.9 MB for the 2-conv model vs 51.3 MB for the 3-conv one on its
//! TensorFlow-scale networks). §6.5's *time* columns — decryption
//! dominating the per-update cost, mixing an order of magnitude cheaper —
//! are `core.proxy.{decrypt,store,mix}_ms` in the repo benchmark's trace
//! of `proxy_small`, the one stopwatch this repo keeps.

use crate::ExperimentSetup;
use mixnn_attacks::AttackError;
use mixnn_core::{codec, MixnnProxy, MixnnProxyConfig};
use mixnn_crypto::SealedBox;
use mixnn_enclave::AttestationService;
use mixnn_nn::{zoo, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Memory footprint of one model, §6.5 style.
#[derive(Debug, Clone, PartialEq)]
pub struct SysperfRow {
    /// Model description.
    pub model: String,
    /// Trainable parameters.
    pub parameters: usize,
    /// Serialized update size in bytes.
    pub update_bytes: usize,
    /// Enclave memory high-water mark in bytes while the round was
    /// buffered.
    pub epc_high_water: usize,
}

/// Larger model widths so the sysperf numbers exercise meaningful data
/// volumes (the experiment's point is the *scaling*, not the tiny training
/// models used by the accuracy figures).
fn models(setup: &ExperimentSetup) -> Vec<(String, Sequential)> {
    let mut rng = StdRng::seed_from_u64(setup.fl.seed ^ 0x5f5f);
    let input = zoo::InputSpec::new(
        setup.spec.dims.channels,
        setup.spec.dims.height,
        setup.spec.dims.width,
    );
    let classes = setup.spec.num_classes;
    vec![
        (
            "conv2+fc3".to_string(),
            zoo::conv2_fc3(input, classes, 16, 256, &mut rng),
        ),
        (
            "conv3+fc3".to_string(),
            zoo::conv3_fc3(input, classes, 16, 256, &mut rng),
        ),
    ]
}

/// Runs the §6.5 measurement: `clients` sealed updates through the full
/// encrypted pipeline (decrypt → store → batch mix) for each model,
/// reading the EPC high-water mark while the round is buffered.
///
/// # Errors
///
/// Propagates proxy failures as [`AttackError::Fl`]-wrapped transport
/// errors.
pub fn run(setup: &ExperimentSetup, clients: usize) -> Result<Vec<SysperfRow>, AttackError> {
    let mut rows = Vec::new();
    for (name, template) in models(setup) {
        let mut rng = StdRng::seed_from_u64(setup.fl.seed ^ 0xbe9c);
        let service = AttestationService::new(&mut rng);
        let mut proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                expected_signature: template.signature(),
                seed: setup.fl.seed,
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );

        // Synthesize per-client updates: same architecture, perturbed
        // weights (content does not affect cost; size does).
        let base = template.params();
        let updates: Vec<Vec<u8>> = (0..clients)
            .map(|_| {
                let params = base.perturbed(0.01, &mut rng);
                let bytes = codec::encode_params(&params);
                SealedBox::seal(&bytes, proxy.public_key(), &mut rng).unwrap()
            })
            .collect();
        let update_bytes = codec::encoded_len(&template.signature());

        for sealed in &updates {
            proxy
                .submit_encrypted(sealed)
                .map_err(mixnn_fl::FlError::from)?;
        }
        let high_water = proxy.memory_stats().high_water;
        let mixed = proxy.mix_batch().map_err(mixnn_fl::FlError::from)?;
        assert_eq!(mixed.len(), clients);

        rows.push(SysperfRow {
            model: name,
            parameters: template.num_parameters(),
            update_bytes,
            epc_high_water: high_water,
        });
    }
    Ok(rows)
}

/// Formats §6.5 rows for the report table.
pub fn rows(results: &[SysperfRow]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.parameters.to_string(),
                crate::report::fmt_mb(r.update_bytes),
                crate::report::fmt_mb(r.epc_high_water),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn pipeline_measures_both_models() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 1);
        let results = run(&setup, 4).unwrap();
        assert_eq!(results.len(), 2);
        // The 3-conv model must be larger and cost at least as much memory.
        assert!(results[1].parameters > results[0].parameters);
        assert!(results[1].epc_high_water >= results[0].epc_high_water);
        for r in &results {
            // Four buffered updates plus one transient decrypt buffer.
            assert!(r.epc_high_water >= 4 * r.parameters * std::mem::size_of::<f32>());
            assert!(r.update_bytes > 4 * r.parameters);
        }
    }
}
