//! Whole-experiment benchmark for the ARL reproduction.
//!
//! Runs one paper experiment (`figure8`, `figure4` or `backends_probed`)
//! through the `arl-bench` library entry points, checks its outputs
//! against recorded digests, and prints every metric by name and unit,
//! ending with one JSON result line. `--trace 1` runs the experiment once
//! and then the single-threaded per-layer traced pass instead. See
//! `README.md` in this directory for the metrics and workloads.

mod check;
mod cli;
mod experiment;
mod ledger;
mod os;
mod stats;
mod traced;

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use arl_bench::ExperimentOptions;
use arl_stats::Json;
use arl_timing::MachineConfig;
use arl_workloads::{workload, Scale};

use crate::check::{check, nothing_produced, Reference, Verdict};
use crate::cli::{per_layer, stray_knobs_in_env, valid_name, Args, Workload, END_TO_END, USAGE};
use crate::ledger::OTHER;

/// Set-ups per end-to-end run; `setup_s` is their median. All run in the
/// run's own process before the first experiment call, and the first is
/// timed from `main`, so it also holds argument parsing and the
/// environment check. The ten-run comparison supplies the samples across
/// processes.
const SETUP_REPEATS: usize = 9;

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("arl-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_knobs_in_env();
    if !stray.is_empty() {
        eprintln!(
            "arl-perfbench: refusing to run with {} set: the library reads ARL_* \
             knobs internally, so the measured program would not be the default one",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    match run(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("arl-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn reference_path(w: Workload, scale: u32) -> PathBuf {
    package_dir()
        .join("reference")
        .join(format!("{}.x{scale}.txt", w.name()))
}

fn load_reference(path: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "no reference digests at {} ({e}); record them with --record-reference",
            path.display()
        )
    })?;
    Reference::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<arl_bench::SuiteFailures>() {
        format!("{} job(s) failed: {f:?}", f.0.len())
    } else {
        "non-string panic payload".to_string()
    }
}

/// What produced the numbers: printed with every result.
fn provenance(args: &Args, opts: &ExperimentOptions) -> Json {
    // A small capture shows the trace container the experiments write.
    let probe = workload("compress").expect("compress is in the suite");
    let trace = arl_bench::capture_trace(&probe.build(Scale::tiny()), probe.name);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("workload", Json::from(args.workload.name())),
        ("scale", Json::from(format!("x{}", args.scale))),
        ("threads", Json::from(opts.threads)),
        ("nproc", Json::from(nproc)),
        ("seed", Json::from(args.seed)),
        (
            "core",
            Json::from(format!("{:?}", MachineConfig::baseline_2_0().core)),
        ),
        ("trace_version", Json::from(u64::from(trace.version()))),
        ("compiled_section", Json::from(trace.has_model())),
        ("backend", Json::from(opts.backend.label())),
        (
            "commit",
            Json::from(os::git_commit(
                package_dir().parent().unwrap_or(package_dir()),
            )),
        ),
    ])
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let opts = ExperimentOptions::new(Scale::new(args.scale), threads);
    let ref_path = reference_path(w, args.scale);
    if args.trace || args.record {
        let reference = if args.record {
            None
        } else {
            Some(load_reference(&ref_path)?)
        };
        println!("provenance {}", provenance(args, &opts).render());
        traced_run(args, &opts, reference.as_ref(), &ref_path)
    } else {
        end_to_end_run(args, &opts, &ref_path, started)
    }
}

/// Everything an end-to-end run prepares before its first experiment
/// call.
struct SetUp {
    reference: Reference,
    provenance: Json,
}

/// One set-up: read the reference digests, probe the trace container
/// for the provenance line, and build the workload's programs (the
/// experiment call builds its own; these are dropped).
fn set_up(args: &Args, opts: &ExperimentOptions, ref_path: &Path) -> Result<SetUp, String> {
    let reference = load_reference(ref_path)?;
    let provenance = provenance(args, opts);
    drop(std::hint::black_box(experiment::build_programs(
        args.workload,
        opts.scale,
    )));
    Ok(SetUp {
        reference,
        provenance,
    })
}

/// One experiment call, checked: wall and CPU seconds from the call until
/// the output is checked.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    output: Option<experiment::Output>,
    /// `None` when the caller checks the output itself.
    verdict: Option<Verdict>,
}

fn timed_call(
    w: Workload,
    opts: &ExperimentOptions,
    reference: Option<&Reference>,
) -> Result<Timed, String> {
    let cpu0 = os::process_cpu_seconds();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| experiment::run(w, opts)));
    let verdict = match (&result, reference) {
        (Ok(out), Some(reference)) => Some(check(&out.observed, reference)),
        (Err(payload), Some(reference)) => {
            Some(nothing_produced(reference, &panic_text(payload.as_ref())))
        }
        (Ok(_), None) => None,
        (Err(payload), None) => return Err(panic_text(payload.as_ref())),
    };
    Ok(Timed {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: os::process_cpu_seconds() - cpu0,
        output: result.ok(),
        verdict,
    })
}

fn report_verdict(verdict: &Verdict) {
    let status = if verdict.failed == 0 { "PASS" } else { "FAIL" };
    println!(
        "output check: {status} ({} attempted, {} failed)",
        verdict.attempted, verdict.failed
    );
    for problem in &verdict.problems {
        println!("  mismatch: {problem}");
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    for (name, _, _) in metrics {
        assert!(
            valid_name(name),
            "metric name {name:?} breaks the naming rule"
        );
    }
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })),
        ),
    ])
    .render()
}

fn end_to_end_run(
    args: &Args,
    opts: &ExperimentOptions,
    ref_path: &Path,
    started: Instant,
) -> Result<(), String> {
    let w = args.workload;
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut t0 = started;
    let mut first = None;
    for _ in 0..SETUP_REPEATS {
        let done = set_up(args, opts, ref_path)?;
        setup.push(t0.elapsed().as_secs_f64());
        first.get_or_insert(done);
        t0 = Instant::now();
    }
    let SetUp {
        reference,
        provenance,
    } = first.expect("at least one set-up");
    println!("provenance {}", provenance.render());
    let reference = &reference;

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut peak = None;
    let (mut attempted, mut failed) = (0, 0);
    let begin = Instant::now();
    loop {
        let call = timed_call(w, opts, Some(reference))?;
        let verdict = call.verdict.expect("checked against the reference");
        attempted += verdict.attempted;
        failed += verdict.failed;
        if walls.is_empty() || verdict.failed > 0 {
            if let Some(out) = &call.output {
                for line in &out.headline {
                    println!("{line}");
                }
            }
            report_verdict(&verdict);
        }
        println!(
            "call {}: {:.4} s wall, {:.4} s CPU",
            walls.len() + 1,
            call.wall_s,
            call.cpu_s
        );
        walls.push(call.wall_s);
        cpus.push(call.cpu_s);
        // The first call's high-water mark: later calls can only add
        // allocator growth, which would tie the figure to the call count.
        if peak.is_none() {
            peak = Some(os::peak_rss_mb()?);
        }
        if begin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak = peak.expect("at least one call");
    let samples: [(&str, &[f64]); 4] = [
        ("wall_s", &walls),
        ("cpu_s", &cpus),
        ("peak_rss_mb", &[peak]),
        ("setup_s", &setup),
    ];
    println!(
        "{} experiment call(s), {attempted} operations attempted, {failed} failed \
         (the model is unvalidated; correctness = bit-identity with the reference digests)",
        walls.len()
    );
    let mut metrics = Vec::new();
    for ((name, unit), (sample_name, values)) in END_TO_END.iter().zip(samples) {
        assert_eq!(*name, sample_name, "catalog order");
        let median = stats::median(values).expect("at least one sample");
        let spread = match (stats::quartiles(values), stats::quartile_spread(values)) {
            (Some([q1, _, q3]), Some(share)) => {
                format!(
                    ", quartiles {q1:.4}..{q3:.4} (spread {:.2}%)",
                    100.0 * share
                )
            }
            _ => String::new(),
        };
        let tail = match stats::supported_tail(values.len()) {
            Some(p) => format!(
                ", p{p} {:.4}",
                stats::percentile(values, p).unwrap_or(f64::NAN)
            ),
            None => ", no tail percentile (fewer than 10 samples beyond p90)".to_string(),
        };
        println!(
            "{name:<12} {median:>12.4} {unit:<3} median of n={}{spread}{tail}",
            values.len()
        );
        metrics.push((name.to_string(), *unit, median));
    }
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(())
}

fn traced_run(
    args: &Args,
    opts: &ExperimentOptions,
    reference: Option<&Reference>,
    ref_path: &Path,
) -> Result<(), String> {
    let w = args.workload;
    let tmp = Path::new(".perfbench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;

    // The pooled experiment call gives the runner metrics and the
    // untraced CPU the traced pass's overhead is judged against. Its
    // output is checked below, with the traced pass's fingerprints.
    let pooled = timed_call(w, opts, None)?;
    let out = pooled
        .output
        .as_ref()
        .expect("a call without a reference returns output");
    for line in &out.headline {
        println!("{line}");
    }
    let mut traced = traced::run(w, opts.scale, args.seed, &out.doc, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let mut observed = out.observed.clone();
    observed.stats = Some(std::mem::take(&mut traced.stats));

    if args.record {
        let reference = Reference::from_observed(&observed);
        let header = format!(
            "arl-perfbench reference digests (fnv1a64): {} at x{}",
            w.name(),
            args.scale
        );
        std::fs::write(ref_path, reference.render(&header))
            .map_err(|e| format!("cannot write {}: {e}", ref_path.display()))?;
        println!("recorded {}", ref_path.display());
        return Ok(());
    }
    let verdict = check(&observed, reference.expect("loaded unless recording"));
    report_verdict(&verdict);

    let max_cell_s = traced.max_cell_s.unwrap_or_else(|| {
        out.report
            .as_ref()
            .map(|r| r.records.iter().map(|c| c.wall_seconds).fold(0.0, f64::max))
            .unwrap_or(0.0)
    });
    let layers = traced.ledger.layer_self_s();
    let covered: f64 = layers
        .iter()
        .filter(|(layer, _)| **layer != OTHER)
        .map(|(_, s)| s)
        .sum();
    let mut values = traced.metrics;
    values.extend([
        ("runner.cells".to_string(), out.observed.cells.len() as f64),
        ("runner.cells_failed".into(), verdict.failed as f64),
        ("runner.max_cell_s".into(), max_cell_s),
        (
            "runner.parallel_efficiency".into(),
            pooled.cpu_s / (pooled.wall_s * opts.threads as f64),
        ),
        ("ledger.coverage".into(), covered / traced.cpu_s),
        ("ledger.overhead".into(), traced.cpu_s / pooled.cpu_s),
    ]);

    println!(
        "\ntraced pass: {:.3} s thread CPU, single-threaded \
         (experiment call: {:.3} s wall, {:.3} s CPU, {} threads)",
        traced.cpu_s, pooled.wall_s, pooled.cpu_s, opts.threads
    );
    println!("{:<36} {:>10} {:>8}", "layer (self time)", "CPU s", "share");
    for (layer, s) in &layers {
        println!("{layer:<36} {s:>10.4} {:>7.2}%", 100.0 * s / traced.cpu_s);
    }
    println!("{:<36} {:>6} {:>10}", "span", "calls", "self s");
    for (name, calls, s) in traced.ledger.span_rows() {
        println!("{name:<36} {calls:>6} {s:>10.4}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in per_layer() {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("traced run did not measure {name}"));
        println!("{name:<44} {value:>14.4} {unit}");
        metrics.push((name, unit, value));
    }
    println!(
        "verdict: ledger.coverage {:.4} (other {:.4} s uncovered), ledger.overhead {:.4}",
        covered / traced.cpu_s,
        layers.get(OTHER).copied().unwrap_or(0.0),
        traced.cpu_s / pooled.cpu_s
    );
    println!(
        "{}",
        result_line(verdict.attempted, verdict.failed, &metrics)
    );
    Ok(())
}
