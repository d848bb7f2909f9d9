//! One measured block of one workload (what `BENCHMARK.json`'s command
//! runs), the smoke pass, and the multi-pass session that `compare` reads.
//!
//! A block is: set up [`SETUP_REPEATS`] times (build → three gated warm-up
//! rounds), then timed rounds closed-loop from this one thread — one round
//! outstanding — until `--seconds` have passed, then one more gated round.

use crate::json::Json;
use crate::metrics::{fmt_value, Values, END_TO_END};
use crate::workloads::{Kind, Sample, Workload, WARMUP_ROUNDS};
use crate::{host, procfs, stats, trace};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups per block; `setup_s` is the median of the fastest
/// [`SETUP_KEPT`] of them (host noise only ever adds time, and a set-up is
/// too short to have a floor of its own).
const SETUP_REPEATS: usize = 5;
const SETUP_KEPT: usize = 3;
/// Timed rounds a block takes even if `--seconds` is shorter than that.
const MIN_TIMED_ROUNDS: usize = 3;
/// A block stops early after this many failed rounds (it has failed anyway).
const MAX_FAILURES: u64 = 10;
/// Interleaved passes of a session.
const SESSION_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

/// Everything one block produced.
pub struct Block {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Values,
    pub table: &'static [(&'static str, &'static str)],
}

impl Block {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result the driver parses.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.values.to_json(self.table)),
        ])
    }

    /// This block as a one-block session entry (what `--out` writes).
    fn to_result_entry(&self) -> Json {
        let entry = SessionEntry {
            attempted: self.attempted as f64,
            failed: self.failed as f64,
            metrics: self
                .table
                .iter()
                .map(|&(name, unit)| {
                    let value = self.values.get(name).unwrap_or(0.0);
                    (name.to_string(), unit.to_string(), vec![value])
                })
                .collect(),
        };
        entry.to_json(self.kind.name())
    }
}

/// Gate bookkeeping shared by the untraced and the traced block.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }
}

/// A set-up workload plus what setting it up cost and showed.
pub struct SetUp {
    pub workload: Workload,
    pub seconds: f64,
    pub agg_rmse: f64,
}

/// Builds the workload and runs its gated warm-up rounds. The time reported
/// is construction (keys, attestation, inputs, reference aggregate) plus
/// the warm-up rounds; the gate's own work is outside it.
pub fn set_up(kind: Kind, seed: u64, gate: &mut Gate) -> SetUp {
    let t0 = Instant::now();
    let mut workload = Workload::build(kind, seed);
    let mut seconds = t0.elapsed().as_secs_f64();
    let mut agg_rmse = 0.0;
    for _ in 0..WARMUP_ROUNDS {
        match workload.round(true) {
            Ok((sample, observed)) => {
                seconds += sample.wall_ns as f64 / 1e9;
                // The last warm-up round is the same round for a given
                // seed, so the value is a pure function of the seed.
                agg_rmse = workload.agg_rmse(&observed);
                gate.record("warm-up round", workload.check(&observed));
            }
            Err(e) => gate.record("warm-up round", Err(e)),
        }
    }
    SetUp {
        workload,
        seconds,
        agg_rmse,
    }
}

/// Runs ungated rounds until `budget` has passed (at least
/// [`MIN_TIMED_ROUNDS`]); a round that errs or loses updates is a failure
/// and yields no sample.
pub fn timed_rounds(workload: &mut Workload, budget: Duration, gate: &mut Gate) -> Vec<Sample> {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::with_capacity(4096);
    while (Instant::now() < deadline || samples.len() < MIN_TIMED_ROUNDS)
        && gate.failed < MAX_FAILURES
    {
        match workload.round(false) {
            Ok((sample, observed)) => {
                let counted = workload.check_count(&observed);
                if counted.is_ok() {
                    samples.push(sample);
                }
                gate.record("timed round", counted);
            }
            Err(e) => gate.record("timed round", Err(e)),
        }
    }
    samples
}

/// One more round after the timed window, through the full gate.
pub fn final_gated_round(workload: &mut Workload, gate: &mut Gate) {
    let outcome = workload
        .round(true)
        .and_then(|(_, observed)| workload.check(&observed));
    gate.record("last round", outcome);
}

pub fn wall_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect()
}

/// Informational round statistics (README.md, "Why the floor"): they do not
/// repeat within a tenth on a shared box, so nothing is gated on them.
pub struct Harness {
    pub rounds: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub updates_per_s: f64,
    pub cpu_ms_per_round: f64,
    pub floor_block_spread: f64,
}

impl Harness {
    pub fn of(kind: Kind, samples: &[Sample], cpu_ms: f64) -> Harness {
        let ms = wall_ms(samples);
        let (tail_ms, tail_pct) = stats::tail(&ms).unwrap_or((0.0, 0.0));
        // Floors of the three thirds of the window: how far a slow host
        // phase moved the floor within this very run.
        let third = (ms.len() / 3).max(1);
        let floors: Vec<f64> = ms.chunks(third).take(3).filter_map(stats::floor).collect();
        let spread = match (
            stats::floor(&floors),
            floors.iter().copied().reduce(f64::max),
        ) {
            (Some(lo), Some(hi)) if lo > 0.0 => hi / lo,
            _ => 0.0,
        };
        let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
        Harness {
            rounds: ms.len(),
            p50_ms: stats::median(&ms).unwrap_or(0.0),
            tail_ms,
            tail_pct,
            updates_per_s: if total_s > 0.0 {
                (kind.clients() * ms.len()) as f64 / total_s
            } else {
                0.0
            },
            cpu_ms_per_round: cpu_ms / ms.len().max(1) as f64,
            floor_block_spread: spread,
        }
    }

    pub fn print(&self) {
        println!(
            "  harness: {} timed rounds, p50 {:.3} ms, p{:.1} {:.3} ms, {:.1} updates/s, \
             {:.2} CPU ms/round, floor spread over thirds {:.3}",
            self.rounds,
            self.p50_ms,
            self.tail_pct,
            self.tail_ms,
            self.updates_per_s,
            self.cpu_ms_per_round,
            self.floor_block_spread
        );
    }
}

/// The untraced block: every end-to-end metric of one workload.
pub fn measure(kind: Kind, seed: u64, seconds: f64) -> Block {
    let mut gate = Gate::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut current: Option<SetUp> = None;
    for _ in 0..SETUP_REPEATS {
        // Never two instances alive: peak RSS is one instance's.
        drop(current.take());
        let s = set_up(kind, seed, &mut gate);
        setups.push(s.seconds);
        current = Some(s);
    }
    let SetUp {
        mut workload,
        agg_rmse,
        ..
    } = current.expect("SETUP_REPEATS is positive");

    let cpu0 = procfs::cpu_ms();
    let samples = timed_rounds(&mut workload, Duration::from_secs_f64(seconds), &mut gate);
    let cpu_ms = procfs::cpu_ms() - cpu0;
    final_gated_round(&mut workload, &mut gate);

    let clients = kind.clients() as f64;
    let per_round =
        |f: fn(&Sample) -> u64| -> Vec<f64> { samples.iter().map(|s| f(s) as f64).collect() };
    let mut values = Values::default();
    values.set(
        "round_ms_floor",
        stats::floor(&wall_ms(&samples)).unwrap_or(0.0),
    );
    // Per-round medians: one odd round (a lazily grown buffer) cannot move
    // an exact count.
    values.set(
        "alloc_bytes_per_update",
        stats::median(&per_round(|s| s.alloc.bytes)).unwrap_or(0.0) / clients,
    );
    values.set(
        "allocs_per_update",
        stats::median(&per_round(|s| s.alloc.calls)).unwrap_or(0.0) / clients,
    );
    values.set("upload_bytes_per_update", workload.upload_bytes() as f64);
    values.set(
        "epc_high_water_mb",
        workload.epc_high_water() as f64 / (1024.0 * 1024.0),
    );
    values.set("agg_rmse", agg_rmse);
    setups.sort_by(f64::total_cmp);
    values.set(
        "setup_s",
        stats::median(&setups[..SETUP_KEPT]).unwrap_or(0.0),
    );
    values.set("peak_rss_mb", procfs::peak_rss_mib());

    Harness::of(kind, &samples, cpu_ms).print();
    Block {
        kind,
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        values,
        table: END_TO_END,
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_file(args: &RunArgs, results: Vec<Json>) -> Json {
    Json::obj([
        ("host", host::header()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_block", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("results", Json::Arr(results)),
    ])
}

/// `run --workload W`: one block in this process; the last line printed is
/// the driver's result object. Returns whether the block was correct.
pub fn run_block(args: &RunArgs, kind: Kind) -> Result<bool, String> {
    println!("host: {}", host::header());
    println!(
        "workload {} seed {} seconds {} trace {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let block = if args.trace {
        let (block, spans) = trace::measure(kind, args.seed, args.seconds);
        let path = out_dir().join(format!("trace-{}.json", kind.name()));
        write_file(&path, &spans.to_string())?;
        println!("  spans written to {}", path.display());
        block
    } else {
        measure(kind, args.seed, args.seconds)
    };
    block.values.print(block.table);
    for failure in &block.failures {
        println!("  FAILED {failure}");
    }
    if let Some(out) = &args.out {
        write_file(
            out,
            &result_file(args, vec![block.to_result_entry()]).to_string(),
        )?;
    }
    println!("{}", block.result_line());
    Ok(block.correct())
}

/// `run --smoke`: every workload's set-up, warm-up gate, three timed rounds
/// and last-round gate, in this process, in well under 20 s.
pub fn run_smoke(seed: u64) -> bool {
    let mut all_correct = true;
    for kind in Kind::ALL {
        let mut gate = Gate::default();
        let mut s = set_up(kind, seed, &mut gate);
        let samples = timed_rounds(&mut s.workload, Duration::ZERO, &mut gate);
        final_gated_round(&mut s.workload, &mut gate);
        println!(
            "smoke {:<20} {} rounds, {} failed, floor {:.3} ms, agg_rmse {:e}",
            kind.name(),
            gate.attempted,
            gate.failed,
            stats::floor(&wall_ms(&samples)).unwrap_or(0.0),
            s.agg_rmse
        );
        for failure in &gate.failures {
            println!("  FAILED {failure}");
        }
        all_correct &= gate.failed == 0;
    }
    all_correct
}

/// One workload's blocks of a session: counts summed, every metric's
/// values listed block by block.
#[derive(Default)]
struct SessionEntry {
    attempted: f64,
    failed: f64,
    /// `(name, unit, values)` in the order the blocks reported them.
    metrics: Vec<(String, String, Vec<f64>)>,
}

/// Per workload, in the order first seen.
type Session = Vec<(String, SessionEntry)>;

/// Adds one block's result entry (as written by `--out`) to the session.
fn absorb_block(session: &mut Session, block: &Json) -> Result<(), String> {
    let field = |key: &str| block.get(key).ok_or_else(|| format!("a block lacks {key}"));
    let workload = field("workload")?.as_str().unwrap_or_default().to_string();
    let position = match session.iter().position(|(w, _)| *w == workload) {
        Some(p) => p,
        None => {
            session.push((workload, SessionEntry::default()));
            session.len() - 1
        }
    };
    let entry = &mut session[position].1;
    entry.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
    entry.failed += field("failed")?.as_f64().unwrap_or(0.0);
    for (name, metric) in field("metrics")?.as_obj().unwrap_or(&[]) {
        let values = metric.get("values").and_then(Json::as_arr).unwrap_or(&[]);
        let values = values.iter().filter_map(Json::as_f64);
        match entry.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, all)) => all.extend(values),
            None => {
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                entry
                    .metrics
                    .push((name.clone(), unit.to_string(), values.collect()));
            }
        }
    }
    Ok(())
}

impl SessionEntry {
    fn to_json(&self, workload: &str) -> Json {
        let metrics = Json::obj(self.metrics.iter().map(|(name, unit, values)| {
            let values = values.iter().map(|&v| Json::Num(v)).collect();
            let metric = Json::obj([("unit", Json::str(unit)), ("values", Json::Arr(values))]);
            (name.as_str(), metric)
        }));
        Json::obj([
            ("workload", Json::str(workload)),
            ("correct", Json::Bool(self.failed == 0.0)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("metrics", metrics),
        ])
    }
}

fn session_results(session: &Session) -> Vec<Json> {
    session.iter().map(|(w, entry)| entry.to_json(w)).collect()
}

/// `run` without `--workload`: a session of [`SESSION_PASSES`] interleaved
/// passes. Every block is a fresh child process of this executable, so each
/// workload's samples are spread over the whole session and a slow host
/// phase hits all workloads alike. With `--trace 1` a traced pass follows.
/// Writes the file `compare` reads.
pub fn run_session(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    let mut session = Session::new();
    let mut all_correct = true;
    let passes = (0..SESSION_PASSES).map(|p| (p, false));
    let traced = args.trace.then_some((SESSION_PASSES, true));
    for (pass, trace) in passes.chain(traced) {
        for kind in Kind::ALL {
            let block_file = dir.join(format!("block-{}-{pass}.json", kind.name()));
            // `output()` waits for the child, so none outlives the session.
            let child = Command::new(&exe)
                .args(["run", "--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&block_file)
                .output()
                .map_err(|e| format!("cannot start a block: {e}"))?;
            let ok = child.status.success();
            all_correct &= ok;
            println!(
                "pass {pass} {:<20} {}",
                kind.name(),
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                print!("{}", String::from_utf8_lossy(&child.stdout));
            }
            let text = std::fs::read_to_string(&block_file)
                .map_err(|e| format!("{}: {e}", block_file.display()))?;
            let block = Json::parse(&text)?;
            for entry in block.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
                absorb_block(&mut session, entry)?;
            }
        }
    }
    print_session(&session);
    let out = args.out.clone().unwrap_or_else(|| dir.join("session.json"));
    write_file(
        &out,
        &result_file(args, session_results(&session)).to_string(),
    )?;
    println!("session written to {}", out.display());
    Ok(all_correct)
}

fn print_session(session: &Session) {
    for (workload, entry) in session {
        println!("{workload}");
        for (name, unit, values) in &entry.metrics {
            println!(
                "  {name:<42} median {:>18} {unit} over {} block(s)",
                fmt_value(stats::median(values).unwrap_or(0.0)),
                values.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(workload: &str, value: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workload": "{workload}", "correct": {}, "attempted": 5, "failed": {failed},
                "metrics": {{"round_ms_floor": {{"unit": "ms", "values": [{value}]}}}}}}"#,
            failed == 0.0
        ))
        .unwrap()
    }

    #[test]
    fn session_merges_blocks_per_workload() {
        let mut session = Session::new();
        absorb_block(&mut session, &block("a", 1.0, 0.0)).unwrap();
        absorb_block(&mut session, &block("b", 9.0, 0.0)).unwrap();
        absorb_block(&mut session, &block("a", 2.0, 1.0)).unwrap();
        let results = session_results(&session);
        assert_eq!(results.len(), 2);
        let a = &results[0];
        assert_eq!(a.get("workload").unwrap().as_str(), Some("a"));
        assert_eq!(a.get("attempted").unwrap().as_f64(), Some(10.0));
        assert_eq!(a.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(a.get("correct"), Some(&Json::Bool(false)));
        let floor = a.get("metrics").unwrap().get("round_ms_floor").unwrap();
        assert_eq!(floor.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(
            floor.get("values").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
        assert_eq!(results[1].get("correct"), Some(&Json::Bool(true)));
        assert!(absorb_block(&mut session, &Json::obj([("workload", Json::str("a"))])).is_err());
    }

    #[test]
    fn harness_statistics_follow_the_samples() {
        let samples: Vec<Sample> = (1..=24)
            .map(|i| Sample {
                wall_ns: i * 1_000_000,
                alloc: crate::alloc::AllocCount { bytes: 0, calls: 0 },
            })
            .collect();
        let h = Harness::of(Kind::Cascade3Small, &samples, 480.0);
        assert_eq!(h.rounds, 24);
        assert_eq!(h.p50_ms, 12.5);
        assert_eq!(h.tail_ms, 14.0);
        assert!((h.cpu_ms_per_round - 20.0).abs() < 1e-12);
        // Thirds start at 1, 9 and 17 ms.
        assert!((h.floor_block_spread - 17.0).abs() < 1e-12);
        // 64 clients × 24 rounds in 0.3 s of round time.
        assert!((h.updates_per_s - 64.0 * 24.0 / 0.3).abs() < 1e-6);
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut gate = Gate::default();
        gate.record("r", Ok(()));
        gate.record("r", Err("boom".to_string()));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.failures, vec!["r: boom".to_string()]);
    }
}
