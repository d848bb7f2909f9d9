//! `eval compress` — the MIXN v2 quantized + sparsified update codec.
//!
//! Sweeps the three wire modes — lossless `f32`, dense `int8`
//! quantization, and `int8+topk` sparsification — and reports, per mode:
//! wire bytes per client per round and framing-amortized sustained
//! updates/s (both from the simulated-network load generator), and the
//! aggregate error a *real* padded cascade round accumulates against the
//! lossless baseline, taken as the worst case over the three layouts
//! (linear, stratified, free-route).
//!
//! The run fails rather than reporting nonsense. Size uniformity is
//! asserted on every layout: all sealed onions of a route — real clients
//! *and* hop-generated cover — must encode to the same length, because
//! per-layer envelope sizes are adversary-visible and a content-dependent
//! codec would fingerprint clients through the mix. The compressed gate
//! is the ISSUE budget: `int8+topk` must cut ingress bytes at least
//! [`MIN_REDUCTION`]x below `f32` and land under
//! [`MAX_COMPRESSED_BYTES`] at the reference model. Aggregate RMSE must
//! stay under the per-mode tolerance. All figures are virtual-time or
//! arithmetic derived, so `BENCH_compress.json` reproduces byte for byte
//! per seed and scale. What the codec costs in CPU time is measured
//! elsewhere: `core.codec.{encode,decode}_ns_per_param` in the repo
//! benchmark's trace and the `codec/*` criterion rows.

use crate::ExperimentScale;
use mixnn_cascade::{CascadeCoordinator, FailurePolicy, FreeRoute, LinearChain, StratifiedLayout};
use mixnn_core::codec::CompressionConfig;
use mixnn_core::InProcessLink;
use mixnn_enclave::AttestationService;
use mixnn_net::{run_load, FlushPolicy, LoadConfig};
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum factor by which `int8+topk` must cut per-client wire bytes.
pub const MIN_REDUCTION: f64 = 4.0;

/// Ceiling on `int8+topk` wire bytes per client per round at the
/// reference model (the ISSUE budget; f32 is ~24 KB there).
pub const MAX_COMPRESSED_BYTES: f64 = 6_100.0;

/// Aggregate-RMSE tolerance for dense int8 on uniform[-1,1] updates:
/// one quantization step is 2/255 ≈ 0.008, and averaging over clients
/// only shrinks the error.
pub const DENSE_RMSE_TOLERANCE: f64 = 0.01;

/// Aggregate-RMSE tolerance for `int8+topk` (keep 256/1024): the codec
/// zeroes ~3/4 of each update's coordinates, so the aggregate of
/// uniform[-1,1] updates loses mass bounded by the dropped quartiles'
/// magnitude (|v| ≲ 0.75 · 1/√3 RMS on the dropped share).
pub const TOPK_RMSE_TOLERANCE: f64 = 0.2;

/// One wire mode's metrics. Everything derives from virtual time or
/// codec arithmetic, so rows are byte-identical across reruns of one
/// seed and scale.
#[derive(Debug, Clone)]
pub struct CompressRow {
    /// Codec mode name (`f32` / `int8` / `int8+topk`).
    pub mode: &'static str,
    /// Clients the load generator drove.
    pub clients: usize,
    /// Access-link wire bytes per client per round (framing included).
    pub bytes_on_wire_per_client: f64,
    /// `f32` bytes over this mode's bytes.
    pub reduction_vs_f32: f64,
    /// Updates sustained per virtual second under batched flushing.
    pub sustained_updates_per_sec: f64,
    /// Worst stripped-aggregate RMSE vs the lossless baseline over the
    /// layouts swept.
    pub rmse_vs_f32: f64,
    /// Worst per-coordinate absolute aggregate error over the layouts.
    pub max_abs_err_vs_f32: f64,
    /// The tolerance `rmse_vs_f32` was gated against.
    pub rmse_tolerance: f64,
    /// Layouts the accuracy + uniformity checks covered.
    pub layouts_checked: usize,
    /// Sealed onion length on the linear chain — one number because
    /// every client's (and every dummy's) onion must encode to it.
    pub uniform_onion_bytes: usize,
}

/// The paper's reference model signature (5,762 parameters).
pub const PAPER_SIGNATURE: [usize; 5] = [2048, 2048, 1024, 512, 130];

/// The three wire modes in report order (lossless baseline first).
pub fn modes() -> [CompressionConfig; 3] {
    [
        CompressionConfig::F32,
        CompressionConfig::Int8,
        CompressionConfig::int8_top_k(),
    ]
}

fn synthetic_updates(signature: &[usize], clients: usize, seed: u64) -> Vec<ModelParams> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|_| {
            ModelParams::from_layers(
                signature
                    .iter()
                    .map(|&len| {
                        LayerParams::from_values(
                            (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// RMSE and max-|err| between two aggregates of the same signature.
fn aggregate_error(a: &ModelParams, b: &ModelParams) -> (f64, f64) {
    let (xs, ys) = (a.flatten(), b.flatten());
    debug_assert_eq!(xs.len(), ys.len());
    let mut sum_sq = 0.0f64;
    let mut max_abs = 0.0f64;
    for (x, y) in xs.iter().zip(&ys) {
        let d = (*x as f64) - (*y as f64);
        sum_sq += d * d;
        max_abs = max_abs.max(d.abs());
    }
    ((sum_sq / xs.len() as f64).sqrt(), max_abs)
}

/// Drives one padded round per layout under `compression`, returning the
/// worst (RMSE, max-|err|) of the stripped aggregates vs `baseline` and
/// the uniform onion length measured on the linear chain.
///
/// Asserts on every layout that all sealed onions of the first route —
/// the real clients' and fresh hop-generated cover updates' alike —
/// encode to one length.
fn layouts_accuracy_and_uniformity(
    signature: &[usize],
    updates: &[ModelParams],
    baseline: &ModelParams,
    compression: CompressionConfig,
    seed: u64,
) -> Result<(f64, f64, usize, usize), String> {
    let mut worst_rmse = 0.0f64;
    let mut worst_abs = 0.0f64;
    let mut linear_onion = 0usize;
    let clients = updates.len();
    // Three layouts: the classic chain, two strata of two hops, and
    // per-client free routes of 2–3 hops out of four.
    type LayoutFactory = Box<dyn Fn() -> Box<dyn mixnn_cascade::CascadeTopology>>;
    let layouts: Vec<(&str, LayoutFactory)> = vec![
        ("linear", Box::new(|| Box::new(LinearChain::new(3)))),
        (
            "stratified",
            Box::new(move || Box::new(StratifiedLayout::evenly(4, 2, seed))),
        ),
        (
            "free-route",
            Box::new(move || Box::new(FreeRoute::new(4, 2, 3, seed))),
        ),
    ];
    let layout_count = layouts.len();
    for (name, make) in layouts {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::with_topology(
            signature.to_vec(),
            make(),
            seed,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .map_err(|e| format!("{name}: {e}"))?;
        cascade.set_compression(compression);

        // Pad past the client count so hop-generated cover actually
        // rides the round, then strip it at the server boundary.
        let floor = clients + 2;
        let padded = cascade
            .run_padded_round_over(updates, floor, &mut rng, &mut InProcessLink)
            .map_err(|e| format!("{name}: {e}"))?;
        if padded.dummies() == 0 {
            return Err(format!("{name}: floor {floor} injected no cover updates"));
        }
        let stripped = padded
            .server_outputs()
            .map_err(|e| format!("{name}: {e}"))?;
        if stripped.len() != clients {
            return Err(format!(
                "{name}: stripped {} outputs, expected {clients}",
                stripped.len()
            ));
        }
        let aggregate =
            ModelParams::mean(&stripped).ok_or_else(|| format!("{name}: empty round aggregate"))?;
        let (rmse, max_abs) = aggregate_error(baseline, &aggregate);
        worst_rmse = worst_rmse.max(rmse);
        worst_abs = worst_abs.max(max_abs);

        // Size uniformity on the first route: every real onion and every
        // hop-generated dummy must seal to one length, or envelope sizes
        // link clients through the mix.
        let client = cascade
            .client_for_slot(0, &service)
            .map_err(|e| format!("{name}: {e}"))?;
        debug_assert_eq!(client.compression(), compression);
        let mut lens = std::collections::BTreeSet::new();
        for (i, update) in updates.iter().enumerate() {
            let onion = client
                .seal_update(update, &mut rng)
                .map_err(|e| format!("{name}: sealing client {i}: {e}"))?;
            lens.insert(onion.len());
        }
        for nonce in 0..3u64 {
            let dummy = cascade.hops()[0].generate_dummy(signature, nonce);
            let onion = client
                .seal_update(&dummy, &mut rng)
                .map_err(|e| format!("{name}: sealing dummy {nonce}: {e}"))?;
            lens.insert(onion.len());
        }
        if lens.len() != 1 {
            return Err(format!(
                "{name}: onion sizes leak content under {}: {lens:?}",
                compression.name()
            ));
        }
        if name == "linear" {
            linear_onion = lens.into_iter().next().unwrap_or(0);
        }
    }
    Ok((worst_rmse, worst_abs, layout_count, linear_onion))
}

/// Runs the compression experiment at `scale`, returning one row per
/// wire mode (lossless baseline first).
///
/// # Errors
///
/// Fails when a round errors, the stripped aggregate strays past the
/// mode's RMSE tolerance, onion sizes differ within a route (real or
/// dummy), or `int8+topk` misses the [`MIN_REDUCTION`]x /
/// [`MAX_COMPRESSED_BYTES`] budget.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<Vec<CompressRow>, String> {
    // Accuracy rounds use the reference signature at both scales — the
    // tolerances are stated for it — and fewer clients under --quick.
    let signature = PAPER_SIGNATURE.to_vec();
    let clients = match scale {
        ExperimentScale::Paper => 24,
        ExperimentScale::Quick => 8,
    };
    let updates = synthetic_updates(&signature, clients, seed);
    let baseline = ModelParams::mean(&updates).ok_or_else(|| "empty update batch".to_string())?;

    let mut rows = Vec::with_capacity(3);
    let mut f32_bytes = 0.0f64;
    for compression in modes() {
        // Wire cost: the simulated-network load generator, batched
        // flushing (the deployment configuration).
        let mut cfg = match scale {
            ExperimentScale::Paper => LoadConfig::paper(10_000, FlushPolicy::Batched),
            ExperimentScale::Quick => LoadConfig::quick(FlushPolicy::Batched),
        };
        cfg.seed = seed;
        cfg.compression = compression;
        let load = run_load(&cfg).map_err(|e| e.to_string())?;
        if rows.is_empty() {
            f32_bytes = load.bytes_on_wire_per_client;
        }

        let tolerance = match compression {
            CompressionConfig::F32 => 0.0,
            CompressionConfig::Int8 => DENSE_RMSE_TOLERANCE,
            CompressionConfig::Int8TopK { .. } => TOPK_RMSE_TOLERANCE,
        };
        let (rmse, max_abs, layouts_checked, uniform_onion_bytes) =
            layouts_accuracy_and_uniformity(&signature, &updates, &baseline, compression, seed)?;
        if rmse > tolerance {
            return Err(format!(
                "{} aggregate RMSE {rmse:.6} exceeds the {tolerance} tolerance",
                compression.name()
            ));
        }
        rows.push(CompressRow {
            mode: compression.name(),
            clients: load.clients,
            bytes_on_wire_per_client: load.bytes_on_wire_per_client,
            reduction_vs_f32: f32_bytes / load.bytes_on_wire_per_client,
            sustained_updates_per_sec: load.sustained_updates_per_sec,
            rmse_vs_f32: rmse,
            max_abs_err_vs_f32: max_abs,
            rmse_tolerance: tolerance,
            layouts_checked,
            uniform_onion_bytes,
        });
    }

    let topk = &rows[2];
    if topk.reduction_vs_f32 < MIN_REDUCTION {
        return Err(format!(
            "int8+topk cut wire bytes only {:.2}x (budget: ≥{MIN_REDUCTION}x)",
            topk.reduction_vs_f32
        ));
    }
    if topk.bytes_on_wire_per_client > MAX_COMPRESSED_BYTES {
        return Err(format!(
            "int8+topk spends {:.0} B/client/round (budget: ≤{MAX_COMPRESSED_BYTES:.0} B)",
            topk.bytes_on_wire_per_client
        ));
    }
    Ok(rows)
}

/// Formats compress rows for the report table.
pub fn rows(results: &[CompressRow]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.0}", r.bytes_on_wire_per_client),
                format!("{:.2}x", r.reduction_vs_f32),
                format!("{:.1}", r.sustained_updates_per_sec),
                format!("{:.6}", r.rmse_vs_f32),
                format!("{:.6}", r.max_abs_err_vs_f32),
                format!("{}", r.rmse_tolerance),
                r.uniform_onion_bytes.to_string(),
            ]
        })
        .collect()
}

/// Serializes the `BENCH_compress.json` artifact: only virtual-time and
/// arithmetic metrics, reproducible byte for byte from one seed and scale.
pub fn to_json(results: &[CompressRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"compress\",\n");
    out.push_str(&format!(
        "  \"min_reduction\": {MIN_REDUCTION:.1},\n  \"max_compressed_bytes\": {MAX_COMPRESSED_BYTES:.0},\n  \"rows\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \
             \"bytes_on_wire_per_client\": {:.2}, \"reduction_vs_f32\": {:.4}, \
             \"sustained_updates_per_sec\": {:.2}, \"rmse_vs_f32\": {:.8}, \
             \"max_abs_err_vs_f32\": {:.8}, \"rmse_tolerance\": {}, \
             \"layouts_checked\": {}, \"uniform_onion_bytes\": {}}}{}\n",
            r.mode,
            r.clients,
            r.bytes_on_wire_per_client,
            r.reduction_vs_f32,
            r.sustained_updates_per_sec,
            r.rmse_vs_f32,
            r.max_abs_err_vs_f32,
            r.rmse_tolerance,
            r.layouts_checked,
            r.uniform_onion_bytes,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_every_gate_and_orders_modes() {
        let rows = run(ExperimentScale::Quick, 42).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, "f32");
        assert_eq!(rows[1].mode, "int8");
        assert_eq!(rows[2].mode, "int8+topk");
        // Lossless baseline: exactly zero aggregate error.
        assert_eq!(rows[0].rmse_vs_f32, 0.0);
        assert_eq!(rows[0].reduction_vs_f32, 1.0);
        // Monotone byte reduction, topk past the ISSUE budget.
        assert!(rows[1].bytes_on_wire_per_client < rows[0].bytes_on_wire_per_client);
        assert!(rows[2].bytes_on_wire_per_client < rows[1].bytes_on_wire_per_client);
        assert!(rows[2].reduction_vs_f32 >= MIN_REDUCTION);
        assert!(rows[2].bytes_on_wire_per_client <= MAX_COMPRESSED_BYTES);
        // Lossy modes stay within their stated tolerances but are not
        // bit-exact.
        assert!(rows[1].rmse_vs_f32 > 0.0 && rows[1].rmse_vs_f32 <= DENSE_RMSE_TOLERANCE);
        assert!(rows[2].rmse_vs_f32 > 0.0 && rows[2].rmse_vs_f32 <= TOPK_RMSE_TOLERANCE);
        for r in &rows {
            assert_eq!(r.layouts_checked, 3);
            assert!(r.uniform_onion_bytes > 0);
        }
        // Compressed onions are smaller on the wire too (seals included).
        assert!(rows[2].uniform_onion_bytes < rows[0].uniform_onion_bytes);
    }

    #[test]
    fn json_carries_the_budget_and_every_mode() {
        let rows = run(ExperimentScale::Quick, 42).unwrap();
        let json = to_json(&rows);
        for key in [
            "min_reduction",
            "max_compressed_bytes",
            "bytes_on_wire_per_client",
            "reduction_vs_f32",
            "rmse_vs_f32",
            "max_abs_err_vs_f32",
            "uniform_onion_bytes",
            "\"f32\"",
            "\"int8\"",
            "\"int8+topk\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
