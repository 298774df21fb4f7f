//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs the workload's fixed experiment list in closed-loop passes for
//! `--seconds`, checks every experiment against the benchmark's own
//! reference, and prints one JSON result as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer split
//! with `--trace 1`.

use ba_predictions::ba_workloads::{grid_to_json, Pipeline};
use perfbench::stats::{median, percentile, samples_beyond};
use perfbench::trace::{layer_times, LayerTime};
use perfbench::workload::{
    failures, run_pass, setup_sample, Mode, Pass, Plan, Reference, Workload,
};
use perfbench::{clock, crypto_probe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <auth-silent|replay-flood|grid> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// After every pass, one set-up sample takes each experiment's fastest
/// set-up over at least [`SETUP_SLICE_REPS`] repetitions and
/// [`SETUP_SLICE`]. A run takes at least [`SETUP_MIN_SAMPLES`] samples
/// and reports their median.
const SETUP_MIN_SAMPLES: usize = 11;
const SETUP_SLICE: Duration = Duration::from_millis(50);
const SETUP_SLICE_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds < 3600.0) {
        return Err(format!("--seconds must be in (0, 3600), got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// At seed 0 the grid must reproduce the committed regression baseline
/// cell for cell.
fn matches_committed_baseline(reference: &Reference) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_baseline.json");
    match std::fs::read_to_string(path) {
        Ok(text) => text.trim_end() == grid_to_json(&reference.points),
        Err(e) => {
            eprintln!("perfbench: cannot read {path}: {e}");
            false
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median over passes of a per-pass value.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(f).collect();
    median(&values).expect("at least one pass")
}

type Metric = (String, f64, &'static str);

/// Each experiment's time is taken at the reference clock (the clock
/// gauge read around its cell), and, since other tenants of a shared
/// host only ever slow an experiment down, counted at its fastest over
/// the run's passes: `wall_s` is one pass with every experiment at its
/// fastest.
fn end_to_end(plain: &[Pass], setup: &[f64], reference: &Reference) -> Vec<Metric> {
    let mut fastest_ns = vec![f64::INFINITY; plain[0].records().count()];
    for pass in plain {
        let at_reference = pass.cells.iter().flat_map(|c| {
            c.records
                .iter()
                .map(|r| clock::at_reference_clock(r.total_ns, c.gauge_ns))
        });
        for (f, ns) in fastest_ns.iter_mut().zip(at_reference) {
            *f = f.min(ns);
        }
    }
    let wall = fastest_ns.iter().sum::<f64>() / 1e9;
    let experiment_ms: Vec<f64> = fastest_ns.iter().map(|&ns| ns / 1e6).collect();
    let walls: Vec<String> = plain
        .iter()
        .map(|p| format!("{:.3}", secs(p.wall_ns)))
        .collect();
    let gauges: Vec<String> = plain
        .iter()
        .map(|p| {
            let g: Vec<f64> = p.cells.iter().map(|c| c.gauge_ns as f64 / 1e3).collect();
            format!("{:.0}", median(&g).expect("cells ran"))
        })
        .collect();
    println!(
        "# {} experiments a pass, {} set-up samples; measured pass wall_s: {}",
        experiment_ms.len(),
        setup.len(),
        walls.join(" ")
    );
    println!(
        "# clock gauge us per pass: {} (reference {:.0})",
        gauges.join(" "),
        clock::REFERENCE_NS / 1e3
    );
    vec![
        ("wall_s".into(), wall, "s"),
        (
            "envelopes_per_s".into(),
            reference.total().envelopes() as f64 / wall,
            "1/s",
        ),
        (
            "experiment_ms_p50".into(),
            median(&experiment_ms).expect("experiments ran"),
            "ms",
        ),
        ("setup_s".into(), median(setup).expect("set-up ran"), "s"),
        (
            "peak_rss_mib".into(),
            peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
    ]
}

fn per_layer(plan: &Plan, plain: &[Pass], traced: &[Pass], reference: &Reference) -> Vec<Metric> {
    let layers: Vec<_> = traced.iter().map(|p| layer_times(&p.spans)).collect();
    let med = |v: Vec<f64>| median(&v).expect("at least one traced pass");
    let layer = |name: &str, pick: fn(&LayerTime) -> u64| {
        med(layers
            .iter()
            .map(|l| l.get(name).map_or(0, pick) as f64)
            .collect())
    };
    let total_s = |name: &str| layer(name, |l| l.total) / 1e9;
    let step = total_s("round");
    let process = total_s("process.step");
    let adversary = total_s("adversary.act");
    let counts = reference.total();

    let experiment_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.records().map(|r| r.total_ns as f64 / 1e6))
        .collect();
    println!(
        "# experiment_ms_p98 over {} untraced experiments, {} beyond it",
        experiment_ms.len(),
        samples_beyond(&experiment_ms, 98.0)
    );

    let mut out: Vec<Metric> = vec![
        ("runner.step_s".into(), step, "s"),
        ("runner.self_s".into(), step - process - adversary, "s"),
        ("process.step_s".into(), process, "s"),
        ("adversary.act_s".into(), adversary, "s"),
        (
            "process.step_calls".into(),
            layer("process.step", |l| l.calls),
            "count",
        ),
        (
            "process.inbox_envelopes".into(),
            med(traced
                .iter()
                .map(|p| {
                    p.counters
                        .get("process.inbox_envelopes")
                        .copied()
                        .unwrap_or(0) as f64
                })
                .collect()),
            "count",
        ),
        ("session.run_s".into(), total_s("session.run"), "s"),
        (
            "session.self_s".into(),
            layer("session.run", |l| l.self_time) / 1e9,
            "s",
        ),
        ("driver.build_s".into(), total_s("driver.build"), "s"),
        ("generators_s".into(), total_s("generators"), "s"),
        ("probes.k_a_s".into(), total_s("probes.k_a"), "s"),
    ];
    for pipeline in Pipeline::ALL {
        let family = median_of(traced, |p| {
            secs(
                p.cells
                    .iter()
                    .zip(&plan.cells)
                    .filter(|(_, cfg)| cfg.pipeline == pipeline)
                    .map(|(c, _)| c.cell_ns)
                    .sum(),
            )
        });
        out.push((format!("grid.family_s.{}", pipeline.name()), family, "s"));
    }
    out.extend([
        (
            "experiment_ms_p98".into(),
            percentile(&experiment_ms, 98.0).expect("experiments ran"),
            "ms",
        ),
        (
            "envelopes.honest".into(),
            counts.honest_envelopes as f64,
            "count",
        ),
        (
            "envelopes.faulty".into(),
            counts.faulty_envelopes as f64,
            "count",
        ),
        ("bytes.honest".into(), counts.honest_bytes as f64, "B"),
        ("bytes.faulty".into(), counts.faulty_bytes as f64, "B"),
        ("rounds.executed".into(), counts.rounds as f64, "count"),
        (
            "envelopes.faulty_per_honest".into(),
            counts.faulty_envelopes as f64 / counts.honest_envelopes.max(1) as f64,
            "ratio",
        ),
        (
            "crypto.sha256_ns_per_kib".into(),
            crypto_probe::sha256_ns_per_kib(),
            "ns",
        ),
        (
            "crypto.verify_ns".into(),
            crypto_probe::verify_ns().unwrap_or(f64::NAN),
            "ns",
        ),
        (
            "trace.overhead_frac".into(),
            median_of(traced, |p| secs(p.wall_ns)) / median_of(plain, |p| secs(p.wall_ns)) - 1.0,
            "frac",
        ),
    ]);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan(args.seed);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    // The benchmark's own answers; computing them also warms caches and
    // the allocator before anything is timed.
    let reference = Reference::compute(&plan);
    let mut reference_ok = true;
    if !reference.consistent(args.workload.expected()) {
        eprintln!("perfbench: the workload's counts differ from the expected ones");
        reference_ok = false;
    }
    if args.workload == Workload::Grid && args.seed == 0 && !matches_committed_baseline(&reference)
    {
        eprintln!("perfbench: grid at seed 0 differs from BENCH_baseline.json");
        reference_ok = false;
    }

    let traced_mode = if args.workload.hand_built() {
        Mode::Hand
    } else {
        Mode::Driver
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let modes: &[Mode] = if args.trace {
            &[Mode::Plain, traced_mode]
        } else {
            &[Mode::Plain]
        };
        for &mode in modes {
            let pass = run_pass(&plan, mode);
            attempted += pass.records().count();
            failed += failures(&pass, &reference);
            if mode == Mode::Plain {
                plain.push(pass);
            } else {
                traced.push(pass);
            }
        }
        if !args.trace {
            setup.push(setup_sample(&plan, SETUP_SLICE_REPS, SETUP_SLICE));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    while !args.trace && setup.len() < SETUP_MIN_SAMPLES {
        setup.push(setup_sample(&plan, SETUP_SLICE_REPS, SETUP_SLICE));
    }
    if !reference_ok {
        failed = attempted;
    }

    let metrics = if args.trace {
        per_layer(&plan, &plain, &traced, &reference)
    } else {
        end_to_end(&plain, &setup, &reference)
    };
    let mut correct = failed == 0;
    for (name, value, unit) in &metrics {
        println!("{name:>36} {value:>18.6} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench: {name} could not be measured");
            correct = false;
        }
    }
    println!("# failed_frac {}", failed as f64 / attempted as f64);

    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
