//! Ingest throughput of the proxy pipeline, by round size.
//!
//! §6.5 shows decryption dominating the proxy's per-update budget. This
//! experiment measures the real path: `C` pre-sealed updates pushed
//! through the full encrypted pipeline (in-order batched ingest → batch
//! mix) on a fresh proxy, reporting wall-clock and updates/second for
//! each round size. Every repetition's mixed output is asserted identical
//! to the first (fixed seeds).
//!
//! Results are also dumped to `BENCH_throughput.json` so they land in a
//! machine-readable artifact alongside the criterion benches.

use crate::report::Percentiles;
use crate::ExperimentSetup;
use mixnn_attacks::AttackError;
use mixnn_core::{codec, MixingStrategy, MixnnProxy, MixnnProxyConfig};
use mixnn_crypto::SealedBox;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Registry, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One measured round size.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Updates ingested in the round (the paper's `C`).
    pub clients: usize,
    /// Wall-clock seconds for the whole ingest (decrypt + store).
    pub ingest_seconds: f64,
    /// Wall-clock seconds for the batch mix.
    pub mix_seconds: f64,
    /// Accepted updates per second of ingest wall-clock.
    pub updates_per_sec: f64,
}

/// Ceiling on acceptable telemetry hook cost, as a fraction of the
/// no-op-registry wall-clock — `eval throughput` fails when
/// [`measure_overhead`] reports more.
pub const MAX_TELEMETRY_OVERHEAD: f64 = 0.02;

/// The round sizes swept by default.
pub const DEFAULT_CLIENTS: [usize; 3] = [32, 128, 512];

/// Five layers, ~8k parameters: the §6.5 cost shape (decrypt-dominated)
/// at a size where C=512 stays a smoke-runnable sweep.
const SIGNATURE: [usize; 5] = [2048, 2048, 2048, 1024, 512];

/// A synthetic multi-layer update sized so decryption does §6.5-realistic
/// work without making the sweep take minutes.
fn synth_update(seed: u64) -> ModelParams {
    let mut rng = StdRng::seed_from_u64(seed);
    ModelParams::from_layers(
        SIGNATURE
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect(),
    )
}

fn launch(seed: u64) -> MixnnProxy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a31);
    let service = AttestationService::new(&mut rng);
    MixnnProxy::launch(
        MixnnProxyConfig {
            strategy: MixingStrategy::Batch,
            expected_signature: SIGNATURE.to_vec(),
            seed,
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    )
}

/// `clients` updates sealed to the (seed-determined) proxy key.
fn sealed_round(seed: u64, clients: usize) -> Vec<Vec<u8>> {
    let reference = launch(seed);
    let mut seal_rng = StdRng::seed_from_u64(seed ^ 0x11);
    (0..clients)
        .map(|i| {
            SealedBox::seal(
                &codec::encode_params(&synth_update(seed ^ (i as u64) << 8)),
                reference.public_key(),
                &mut seal_rng,
            )
            .expect("enclave keys are never low-order")
        })
        .collect()
}

/// One timed pass on a fresh proxy: (ingest seconds, mix seconds, mixed).
fn timed_pass(
    seed: u64,
    sealed: &[Vec<u8>],
    telemetry: Option<&Telemetry>,
) -> Result<(f64, f64, Vec<ModelParams>), AttackError> {
    let mut proxy = launch(seed);
    if let Some(t) = telemetry {
        proxy.attach_telemetry(t.clone());
    }
    let t0 = Instant::now();
    let results = proxy.ingest_sealed(sealed);
    let ingest_seconds = t0.elapsed().as_secs_f64();
    for r in results {
        r.map_err(mixnn_fl::FlError::from)?;
    }
    let t1 = Instant::now();
    let mixed = proxy.mix_batch().map_err(mixnn_fl::FlError::from)?;
    Ok((ingest_seconds, t1.elapsed().as_secs_f64(), mixed))
}

/// Runs the ingest-throughput sweep.
///
/// Each round size is measured `repeats` times (fresh proxy per
/// repetition, after one untimed warm-up pass) and the reported seconds
/// are the median ([`Percentiles::from_samples`]), so `--repeats`
/// suppresses scheduler noise instead of averaging it in.
///
/// # Errors
///
/// Propagates proxy failures as [`AttackError::Fl`]-wrapped transport
/// errors.
pub fn run(
    setup: &ExperimentSetup,
    client_counts: &[usize],
    repeats: usize,
) -> Result<Vec<ThroughputRow>, AttackError> {
    run_with(setup, client_counts, repeats, &mixnn_telemetry::noop())
}

/// [`run`] with a telemetry registry attached to every timed proxy, so
/// the sweep's ingest/mix counters, batch-size distribution and span
/// timings accumulate into the shared registry `eval` exports.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with(
    setup: &ExperimentSetup,
    client_counts: &[usize],
    repeats: usize,
    telemetry: &Telemetry,
) -> Result<Vec<ThroughputRow>, AttackError> {
    let seed = setup.fl.seed;
    let mut rows = Vec::with_capacity(client_counts.len());
    for &clients in client_counts {
        let sealed = sealed_round(seed, clients);
        // One untimed warm-up pass so the first timed repetition is not
        // penalized with cold caches and first-touch page faults; its
        // output is the reference every repetition must reproduce.
        let (_, _, reference) = timed_pass(seed, &sealed, None)?;

        let mut ingest_samples = Vec::with_capacity(repeats.max(1));
        let mut mix_samples = Vec::with_capacity(repeats.max(1));
        for _ in 0..repeats.max(1) {
            let (ingest, mix, mixed) = timed_pass(seed, &sealed, Some(telemetry))?;
            assert_eq!(reference, mixed, "a fixed seed must mix identically");
            ingest_samples.push(ingest);
            mix_samples.push(mix);
        }
        let ingest_seconds = Percentiles::from_samples(&ingest_samples).p50;
        rows.push(ThroughputRow {
            clients,
            ingest_seconds,
            mix_seconds: Percentiles::from_samples(&mix_samples).p50,
            updates_per_sec: if ingest_seconds > 0.0 {
                clients as f64 / ingest_seconds
            } else {
                0.0
            },
        });
    }
    Ok(rows)
}

/// Telemetry hook cost on the proxy hot path, measured honestly: the
/// same sealed batch driven through a proxy with a live registry
/// attached and through one left on the disabled no-op registry,
/// reporting the **minimum** over the repeats of each (min-of-repeats
/// compares best-case against best-case, which is the fair comparison
/// for a fixed workload under scheduler noise).
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Updates per timed pass.
    pub clients: usize,
    /// Repetitions per arm.
    pub repeats: usize,
    /// Best ingest+mix wall-clock with a live registry, seconds.
    pub enabled_seconds: f64,
    /// Best ingest+mix wall-clock with the no-op registry, seconds.
    pub noop_seconds: f64,
    /// `(enabled - noop) / noop`; may be slightly negative under noise.
    pub overhead_fraction: f64,
}

/// Measures the cost of leaving telemetry hooks enabled on the encrypted
/// ingest + mix pipeline (nothing but the hooks differs between the
/// arms). The two arms alternate repetition by repetition so
/// they share cache and thermal conditions.
///
/// # Errors
///
/// Propagates proxy failures as [`AttackError::Fl`]-wrapped transport
/// errors.
pub fn measure_overhead(
    seed: u64,
    clients: usize,
    repeats: usize,
) -> Result<OverheadReport, AttackError> {
    let sealed = sealed_round(seed, clients);
    let pass = |telemetry: Option<Telemetry>| -> Result<f64, AttackError> {
        let (ingest, mix, _) = timed_pass(seed, &sealed, telemetry.as_ref())?;
        Ok(ingest + mix)
    };

    let repeats = repeats.max(1);
    let mut noop_seconds = f64::INFINITY;
    let mut enabled_seconds = f64::INFINITY;
    for _ in 0..repeats {
        noop_seconds = noop_seconds.min(pass(None)?);
        enabled_seconds = enabled_seconds.min(pass(Some(Registry::new().shared()))?);
    }
    Ok(OverheadReport {
        clients,
        repeats,
        enabled_seconds,
        noop_seconds,
        overhead_fraction: (enabled_seconds - noop_seconds) / noop_seconds.max(f64::MIN_POSITIVE),
    })
}

/// Formats throughput rows for the report table.
pub fn rows(results: &[ThroughputRow]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                r.clients.to_string(),
                crate::report::fmt_ms(r.ingest_seconds),
                crate::report::fmt_ms(r.mix_seconds),
                format!("{:.1}", r.updates_per_sec),
            ]
        })
        .collect()
}

/// Serializes throughput rows as a JSON artifact (`BENCH_throughput.json`
/// by convention) — hand-rolled because the offline serde shim does not
/// serialize.
pub fn to_json(results: &[ThroughputRow]) -> String {
    let mut out = "{\n  \"experiment\": \"ingest_throughput\",\n  \"rows\": [\n".to_string();
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"ingest_seconds\": {:.6}, \"mix_seconds\": {:.6}, \
             \"updates_per_sec\": {:.2}}}{}\n",
            r.clients,
            r.ingest_seconds,
            r.mix_seconds,
            r.updates_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn sweep_measures_every_round_size() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 1);
        // Small cells: run-to-run identity is asserted inside run().
        let rows = run(&setup, &[5, 8], 2).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.clients).collect::<Vec<_>>(),
            vec![5, 8]
        );
        for r in &rows {
            assert!(r.updates_per_sec > 0.0);
            assert!(r.ingest_seconds > 0.0);
        }
    }

    #[test]
    fn overhead_measurement_produces_sane_figures() {
        let report = measure_overhead(9, 8, 2).unwrap();
        assert_eq!(report.clients, 8);
        assert_eq!(report.repeats, 2);
        assert!(report.enabled_seconds > 0.0);
        assert!(report.noop_seconds > 0.0);
        assert!(report.overhead_fraction.is_finite());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 1);
        let rows = run(&setup, &[4, 6], 1).unwrap();
        let json = to_json(&rows);
        assert!(json.contains("\"ingest_throughput\""));
        assert_eq!(json.matches("\"clients\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
