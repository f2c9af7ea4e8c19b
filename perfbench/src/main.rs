//! `pollux-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! pollux-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! pollux-perfbench --write-reference
//! ```
//!
//! One workload runs per process, so `peak_rss_mib` belongs to it. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! repeats the untraced measurement, then the same inputs traced, checks
//! that both give the same outputs and prints the per-layer metrics. The
//! last line of standard output is one JSON object; correctness checks
//! run outside the timed region and any failure exits with code 1.
//! `--write-reference` regenerates the stored references under `ref/`.

mod des;
mod env;
mod stats;
mod sweep;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workers of every thread pool, shard set and client set: the core
/// count of the machine the benchmark was defined on.
pub const WORKERS: usize = 2;

const WORKLOADS: [&str; 4] = ["exact_sweep", "whatif_stream", "des_absorb", "des_steady"];
const DEFAULT_SEED: u64 = 2011;
const DEFAULT_SECONDS: f64 = 15.0;
/// Fresh processes whose set-up is timed; `setup_s` is their median.
const SETUP_PROBES: usize = 7;
/// Where traced runs write their spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run (0 for a layer the
/// workload does not call).
const PER_LAYER: [(&str, &str); 37] = [
    ("sweep.cells", "count"),
    ("sweep.cell_busy_s", "s"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_tail_ms", "ms"),
    ("sweep.max_cell_s", "s"),
    ("sweep.pool_idle_share", "fraction"),
    ("transition.calls", "count"),
    ("transition.busy_s", "s"),
    ("transition.key_repeat_share", "fraction"),
    ("analysis.dense.calls", "count"),
    ("analysis.dense.busy_s", "s"),
    ("analysis.sparse.calls", "count"),
    ("analysis.sparse.busy_s", "s"),
    ("analysis.metrics.busy_s", "s"),
    ("analysis.states_max", "states"),
    ("overlay_analysis.cells", "count"),
    ("overlay_analysis.busy_s", "s"),
    ("simulation.cells", "count"),
    ("simulation.busy_s", "s"),
    ("meanfield.build.busy_s", "s"),
    ("meanfield.build.p50_ms", "ms"),
    ("meanfield.equilibrium.busy_s", "s"),
    ("meanfield.equilibrium.p50_ms", "ms"),
    ("meanfield.gap.busy_s", "s"),
    ("meanfield.gap.p50_ms", "ms"),
    ("whatif.queries", "count"),
    ("whatif.struct_key_repeat_share", "fraction"),
    ("whatif.full_key_repeat_share", "fraction"),
    ("des.events", "count"),
    ("des.events_per_cluster", "count"),
    ("des.shard_busy_max_s", "s"),
    ("des.imbalance", "ratio"),
    ("des.parallel_efficiency", "fraction"),
    ("des.outside_loop_s", "s"),
    ("des.audit_bytes_per_node", "bytes/node"),
    ("des.working_set_over_llc", "ratio"),
    ("trace.overhead_share", "fraction"),
];

/// What a timed window of sweeps or DES runs produced.
pub struct Measured<T> {
    /// Seconds the timed operations took.
    pub wall_s: f64,
    /// Units of work completed: cells or DES events.
    pub work: f64,
    /// Latency of each operation: a sweep or a DES run.
    pub latencies_s: Vec<f64>,
    /// Outputs kept for the checks and the traced comparison.
    pub outputs: Vec<T>,
}

impl<T> Measured<T> {
    fn throughput(&self) -> f64 {
        self.work / self.wall_s
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setup_probe: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-probe" => parsed.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got '{}'",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// A workload's inputs, built before anything is timed.
enum Prepared {
    Sweep(sweep::Sweep),
    WhatIf(whatif::Stream, whatif::Window),
    Des(des::Des),
}

/// Everything between process start and the first timed operation.
fn prepare(workload: &str, seed: u64, tiny: bool) -> Result<Prepared, String> {
    Ok(match workload {
        "exact_sweep" => Prepared::Sweep(sweep::prepare(tiny)?),
        "whatif_stream" => {
            let stream = whatif::Stream::new(seed)?;
            let warm = whatif::warm_up(&stream, warmup_queries(tiny));
            Prepared::WhatIf(stream, warm)
        }
        "des_absorb" => Prepared::Des(des::prepare(des::Regime::Absorb, seed, tiny)?),
        "des_steady" => Prepared::Des(des::prepare(des::Regime::Steady, seed, tiny)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn warmup_queries(tiny: bool) -> u64 {
    if tiny {
        4
    } else {
        whatif::WARMUP_QUERIES
    }
}

/// The outcome of one invocation.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Untraced throughput and latencies.
    throughput: f64,
    latencies_s: Vec<f64>,
    peak_rss_mib: f64,
    /// What the throughput counts (plural) and what one latency sample
    /// times (singular).
    work_unit: &'static str,
    operation: &'static str,
    /// Per-layer metrics (traced runs only).
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<trace::Span>,
}

impl Outcome {
    /// The untraced window's figures, taken right after it ends.
    fn of(
        throughput: f64,
        latencies_s: &[f64],
        work_unit: &'static str,
        operation: &'static str,
    ) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            throughput,
            latencies_s: latencies_s.to_vec(),
            peak_rss_mib: pollux_obs::mem::peak_rss_bytes()
                .map_or(0.0, |b| b as f64 / (1u64 << 20) as f64),
            work_unit,
            operation,
            layers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// Adds a traced window's per-layer metrics, spans and overhead.
    fn traced(&mut self, throughput: f64, spans: Vec<trace::Span>) {
        self.layers
            .insert("trace.overhead_share", 1.0 - throughput / self.throughput);
        self.spans = spans;
    }

    /// Counts operations that differ between the untraced and traced
    /// windows as failed.
    fn differing(&mut self, workload: &str, differing: usize) {
        if differing > 0 {
            eprintln!("{workload}: {differing} traced outputs differ from the untraced ones");
            self.failed += differing as u64;
        }
    }
}

/// Runs the timed window, then (when tracing) the traced window, and
/// checks every output.
fn execute(prepared: &Prepared, args: &Args) -> Outcome {
    let epoch = Instant::now();
    let workload = args.workload.as_str();
    match prepared {
        Prepared::Sweep(s) => {
            let (m, failed) = sweep::run(s, args.seed, args.seconds);
            let mut o = Outcome::of(m.throughput(), &m.latencies_s, "cells", "sweep");
            let cells = s.cell_count() as u64;
            o.attempted = m.latencies_s.len() as u64 * cells;
            o.failed = failed;
            if args.trace {
                let t = sweep::run_traced(s, args.seed, epoch);
                o.attempted += cells;
                o.failed += sweep::check(s, &t.output);
                let same = tsvs(&t.output).is_some() && tsvs(&t.output) == tsvs(&m.outputs[0]);
                o.differing(workload, if same { 0 } else { cells as usize });
                sweep::layer_metrics(&t, &mut o.layers);
                o.traced(cells as f64 / t.wall_s, t.spans);
            }
            o
        }
        Prepared::WhatIf(stream, warm) => {
            let first = warm.queries;
            let m = whatif::run(stream, first, args.seconds, None);
            let mut o = Outcome::of(m.throughput(), &m.latencies_s, "queries", "query");
            o.attempted = warm.queries + m.queries;
            o.failed = warm.failed + m.failed;
            if args.trace {
                let t = whatif::run(stream, first, args.seconds, Some(epoch));
                o.attempted += t.queries;
                o.failed += t.failed;
                let untraced: BTreeMap<u64, &Result<whatif::Answer, String>> =
                    m.kept.iter().map(|(i, a)| (*i, a)).collect();
                let differing = t
                    .kept
                    .iter()
                    .filter(|(i, a)| untraced.get(i).is_some_and(|u| *u != a))
                    .count();
                o.differing(workload, differing);
                whatif::layer_metrics(stream, first, &t, &mut o.layers);
                o.traced(t.throughput(), t.spans);
            }
            o
        }
        Prepared::Des(d) => {
            let (m, _) = des::run(d, args.seconds, None);
            let mut o = Outcome::of(m.throughput(), &m.latencies_s, "events", "des_run");
            o.attempted = m.outputs.len() as u64;
            o.failed = des::check(d, &m.outputs);
            if args.trace {
                let (t, spans) = des::run(d, args.seconds, Some(epoch));
                o.attempted += t.outputs.len() as u64;
                o.failed += des::check(d, &t.outputs);
                o.differing(
                    workload,
                    t.outputs
                        .iter()
                        .filter(|out| out.0 != m.outputs[0].0)
                        .count(),
                );
                des::layer_metrics(d, &t, env::l3_bytes(), &mut o.layers);
                o.traced(t.throughput(), spans);
            }
            o
        }
    }
}

fn tsvs(out: &sweep::Rendered) -> Option<Vec<&str>> {
    out.as_ref()
        .ok()
        .map(|r| r.iter().map(|(_, tsv)| tsv.as_str()).collect())
}

/// Times `SETUP_PROBES` fresh processes that stop right before the first
/// timed operation; returns their median wall time.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t = Instant::now();
        let status = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--setup-probe",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("set-up probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
    }
    Ok(stats::median(&samples))
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_reference() -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("ref");
    let sweep = sweep::prepare(false)?;
    let (out, _) = sweep::run(&sweep, DEFAULT_SEED, 0.0);
    let reports = out.outputs[0].as_ref().map_err(|e| e.clone())?;
    if let Some((r, _)) = reports.iter().find(|(r, _)| !r.all_ok()) {
        return Err(format!("{} fails its own validation", r.scenario));
    }
    let reports: Vec<_> = reports.iter().map(|(r, _)| r.clone()).collect();
    std::fs::write(
        dir.join("exact_sweep.tsv"),
        sweep::render_reference(&reports),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(dir.join("whatif.tsv"), whatif::render_reference()?)
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Everything but the refusal exit code: refusals and set-up errors come
/// back as `Err` and print no result.
fn run() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--write-reference"] {
        write_reference()?;
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(raw.into_iter())?;
    env::check_pinned(std::env::vars())?;
    if pollux_obs::METRICS_ENABLED && !args.trace {
        return Err("refusing an untraced run from a build with the `metrics` feature".into());
    }
    if args.setup_probe {
        prepare(&args.workload, args.seed, false)?;
        return Ok(ExitCode::SUCCESS);
    }
    let setup_s = if args.trace {
        None
    } else {
        Some(setup_seconds(&args)?)
    };
    let prepared = prepare(&args.workload, args.seed, false)?;
    let outcome = execute(&prepared, &args);
    Ok(report(&args, setup_s, &outcome))
}

/// Prints the human-readable lines, writes the spans and prints the
/// result object last.
fn report(args: &Args, setup_s: Option<f64>, o: &Outcome) -> ExitCode {
    let provenance = env::Provenance::collect();
    println!(
        "perfbench {} seed={} seconds={} trace={} workers={WORKERS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance.to_json());
    let p50 = stats::median(&o.latencies_s) * 1e3;
    let tail = stats::tail(&o.latencies_s);
    // Each line names the metric as the workload's users know it, then
    // the end-to-end name it is reported under.
    let line = |name: &str, value: f64, unit: &str, note: &str| {
        println!("  {name:<20} {value:>16.6} {unit:<10} {note}");
    };
    line(
        &format!("{}_per_s", o.work_unit),
        o.throughput,
        &format!("{}/s", o.work_unit),
        "[throughput_per_s]",
    );
    line(
        &format!("{}_p50_ms", o.operation),
        p50,
        "ms",
        &format!("[latency_p50_ms] {} samples", tail.samples),
    );
    line(
        &format!("{}_p{}_ms", o.operation, tail.percentile),
        tail.value * 1e3,
        "ms",
        &format!("[latency_tail_ms] {} samples", tail.samples),
    );
    if o.latencies_s.len() <= 16 {
        let each: Vec<String> = o
            .latencies_s
            .iter()
            .map(|l| format!("{:.1}", l * 1e3))
            .collect();
        println!(
            "  {:<20} {}",
            format!("each_{}_ms", o.operation),
            each.join(" ")
        );
    }
    if let Some(s) = setup_s {
        line(
            "setup_s",
            s,
            "s",
            &format!("[setup_s] median of {SETUP_PROBES} fresh processes"),
        );
    }
    line("peak_rss_mib", o.peak_rss_mib, "MiB", "[peak_rss_mib]");
    line(
        "failed_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        "fraction",
        &format!("{} of {} operations failed", o.failed, o.attempted),
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &o.spans) {
            Ok(()) => println!(
                "  spans              {} written to {}",
                o.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        for (name, _) in PER_LAYER {
            if let Some(v) = o.layers.get(name) {
                println!("  {name:<32} {v}");
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, o.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            setup_s.unwrap_or(0.0),
            o.throughput,
            p50,
            tail.value * 1e3,
            o.peak_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    let correct = o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, seed: u64) -> Args {
        Args {
            workload: workload.into(),
            seed,
            seconds: 0.05,
            trace: true,
            setup_probe: false,
        }
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse_args(["--workload", "des_steady"].map(String::from).into_iter()).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let a = parse_args(
            [
                "--workload",
                "exact_sweep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "exact_sweep", "--trace", "2"],
            vec!["--workload", "exact_sweep", "--seconds", "0"],
            vec!["--workload", "exact_sweep", "--seed"],
        ] {
            assert!(parse_args(bad.into_iter().map(String::from)).is_err());
        }
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        let (a, b, c) = (
            whatif::Stream::new(9).unwrap(),
            whatif::Stream::new(9).unwrap(),
            whatif::Stream::new(10).unwrap(),
        );
        let queries = |s: &whatif::Stream| (0..2000).map(|i| s.query(i)).collect::<Vec<_>>();
        assert_eq!(queries(&a), queries(&b));
        assert_ne!(queries(&a), queries(&c));
        // Popularity is fixed across seeds; the draws are not.
        let top =
            |q: &[whatif::Query]| q.iter().filter(|q| q.key == 0).count() as f64 / q.len() as f64;
        assert!((top(&queries(&a)) - top(&queries(&c))).abs() < 0.03);
        for regime in [des::Regime::Absorb, des::Regime::Steady] {
            let (x, y) = (
                des::prepare(regime, 3, true).unwrap(),
                des::prepare(regime, 3, true).unwrap(),
            );
            assert_eq!(
                des::run(&x, 0.0, None).0.outputs[0].0,
                des::run(&y, 0.0, None).0.outputs[0].0
            );
        }
    }

    /// Every workload, tiny, through the same untraced and traced code path
    /// the full run takes.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for workload in WORKLOADS {
            let a = args(workload, 5);
            let prepared = prepare(workload, a.seed, true).unwrap();
            let o = execute(&prepared, &a);
            assert_eq!(
                o.failed, 0,
                "{workload} failed {} of {}",
                o.failed, o.attempted
            );
            assert!(
                o.attempted > 0 && o.throughput > 0.0 && !o.latencies_s.is_empty(),
                "{workload}"
            );
            assert!(!o.spans.is_empty(), "{workload} recorded no spans");
            let expected: &[&str] = match workload {
                "exact_sweep" => &[
                    "sweep.cells",
                    "transition.calls",
                    "analysis.dense.calls",
                    "overlay_analysis.cells",
                    "simulation.cells",
                ],
                "whatif_stream" => &[
                    "meanfield.build.p50_ms",
                    "meanfield.gap.busy_s",
                    "whatif.struct_key_repeat_share",
                ],
                _ => &["des.events", "des.imbalance", "des.working_set_over_llc"],
            };
            for name in expected {
                assert!(
                    o.layers.get(name).is_some_and(|v| *v > 0.0),
                    "{workload}: {name} = {:?}",
                    o.layers.get(name)
                );
            }
            assert!(o.layers.contains_key("trace.overhead_share"));
        }
    }

    #[test]
    fn a_wrong_reference_value_fails_the_check() {
        let sweep = sweep::prepare(true).unwrap();
        let (m, failed) = sweep::run(&sweep, DEFAULT_SEED, 0.0);
        assert_eq!(failed, 0);
        assert_eq!(sweep::check(&sweep, &m.outputs[0]), 0);
        let mut broken = m.outputs[0].clone().unwrap();
        let (report, tsv) = broken
            .iter_mut()
            .find(|(r, _)| r.scenario == "table2")
            .unwrap();
        // Move E_T_S1 of the first row (≈ 12 events) by one part in 10⁴.
        let row = tsv.lines().nth(1).unwrap().to_string();
        let mut fields: Vec<String> = row.split('\t').map(String::from).collect();
        fields[8] = (fields[8].parse::<f64>().unwrap() * 1.0001).to_string();
        *tsv = tsv.replace(&row, &fields.join("\t"));
        report.rows.clear();
        assert_eq!(sweep::check(&sweep, &Ok(broken)), 1);
    }

    /// The metric lists the binary prints are the ones BENCHMARK.json names.
    #[test]
    fn metric_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let listed =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS.map(String::from).to_vec());
    }
}
