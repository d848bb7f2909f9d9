//! Every `BENCH_*.json` artefact `eval` writes is a pure function of seed
//! and scale: each of the four experiments, run twice in-process at quick
//! scale, serializes to the same bytes — rows *and* the embedded telemetry
//! snapshot. CI holds the committed full-scale artefacts to the same
//! standard with `git diff --exit-code`; this is the fast local gate, and
//! it fails the moment a wall-clock reading finds its way into a row or
//! an artefact registry.

use mixnn_bench::experiments::{compress, load, pooled, topology};
use mixnn_bench::report::{artefact_telemetry, embed_telemetry};
use mixnn_bench::{DatasetKind, ExperimentScale, ExperimentSetup};

const SCALE: ExperimentScale = ExperimentScale::Quick;
const SEED: u64 = 42;
const CLIENTS: usize = 8;

fn assert_reproduces(name: &str, artefact: impl Fn() -> String) {
    let first = artefact();
    assert!(first.contains(&format!("\"experiment\": \"{name}\"")));
    assert_eq!(first, artefact(), "{name} artefact differed across reruns");
}

fn setup() -> ExperimentSetup {
    ExperimentSetup::at_scale(DatasetKind::Cifar10, SCALE, SEED)
}

#[test]
fn topology_artefact_reproduces() {
    assert_reproduces("topology", || {
        let telemetry = artefact_telemetry();
        let sweep = topology::run_with(
            &setup(),
            SCALE,
            CLIENTS,
            &topology::DEFAULT_HOPS,
            &telemetry,
        )
        .unwrap();
        embed_telemetry(&topology::to_json(&sweep, CLIENTS), &telemetry)
    });
}

#[test]
fn load_artefact_reproduces() {
    assert_reproduces("load", || {
        let telemetry = artefact_telemetry();
        let rows = load::run_with(SCALE, None, SEED, &telemetry).unwrap();
        embed_telemetry(&load::to_json(&rows), &telemetry)
    });
}

#[test]
fn pooled_artefact_reproduces() {
    assert_reproduces("pooled", || {
        let telemetry = artefact_telemetry();
        let rows = pooled::run_with(SCALE, SEED, &telemetry).unwrap();
        embed_telemetry(&pooled::to_json(&rows), &telemetry)
    });
}

#[test]
fn compress_artefact_reproduces() {
    assert_reproduces("compress", || {
        compress::to_json(&compress::run(SCALE, SEED).unwrap())
    });
}
