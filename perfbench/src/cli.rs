//! Command line, environment pinning, and the metric catalog.

use arl_timing::BackendConfig;

/// One benchmark input: which paper experiment runs end to end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 12 programs x the 8 Figure 8 machine configs (timing core bound).
    Figure8,
    /// 12 programs x the 5 Figure 4 predictor schemes (decode and ARPT
    /// bound; the timing core never runs).
    Figure4,
    /// 3 programs x 5 memory backends x {(2+0), (3+3)}, every cell
    /// probed.
    BackendsProbed,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Figure8,
        Workload::Figure4,
        Workload::BackendsProbed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure8 => "figure8",
            Workload::Figure4 => "figure4",
            Workload::BackendsProbed => "backends_probed",
        }
    }

    fn parse(value: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == value)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    /// Orders the traced run's program visits; recorded with the result.
    pub seed: u64,
    /// How long the untraced run keeps repeating the experiment.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Program iteration scale (x1 is the paper default).
    pub scale: u32,
    /// Rewrite this workload's reference digests instead of checking them.
    pub record: bool,
}

pub const USAGE: &str = "usage: arl-perfbench --workload <figure8|figure4|backends_probed> \
[--seed N] [--seconds S] [--trace 0|1] [--scale N] [--record-reference]";

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag, missing value or bad value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Figure8,
            seed: 0,
            seconds: 10.0,
            trace: false,
            scale: 1,
            record: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--record-reference" {
                parsed.record = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => {
                    parsed.scale = value.parse().map_err(|_| bad())?;
                    if parsed.scale == 0 {
                        return Err(bad());
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// The `ARL_*` names among the environment variable `names`. The library reads several of
/// them internally (`ARL_CORE`, `ARL_TRACE_COMPILED`, `ARL_TRACE`,
/// `ARL_BACKEND`, `ARL_SHARD`, `ARL_PROBE`, ...), so any one of them
/// silently changes the program being measured; the benchmark refuses to
/// run while the list is non-empty.
pub fn stray_knobs<I: IntoIterator<Item = String>>(names: I) -> Vec<String> {
    let mut names: Vec<String> = names
        .into_iter()
        .filter(|k| k.starts_with("ARL_"))
        .collect();
    names.sort();
    names
}

/// [`stray_knobs`] over the process environment (names only, so
/// non-UTF-8 values cannot hide a knob).
pub fn stray_knobs_in_env() -> Vec<String> {
    stray_knobs(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))
}

/// A metric or workload name: a letter or digit first, then at most 63
/// more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The end-to-end metrics of the untraced run, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the traced run, with units, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = [
        ("workloads.build_s", "s"),
        ("sim.execute_ns_per_inst", "ns/inst"),
        ("trace.encode_ns_per_inst", "ns/inst"),
        ("trace.compile_ns_per_inst", "ns/inst"),
        ("trace.bytes_per_inst", "B/inst"),
        ("trace.decode_ns_per_inst", "ns/inst"),
        ("core.predict_ns_per_inst", "ns/inst"),
        ("timing.core_ns_per_inst", "ns/inst"),
        ("timing.core_ns_per_cycle", "ns/cycle"),
        ("timing.replay_ns_per_inst", "ns/inst"),
        ("timing.probe_ns_per_inst", "ns/inst"),
        ("timing.sim_cycles", "count"),
        ("runner.cells", "count"),
        ("runner.cells_failed", "count"),
        ("runner.max_cell_s", "s"),
        ("runner.parallel_efficiency", "ratio"),
        ("report.render_s", "s"),
        ("sink.write_s", "s"),
        ("ledger.coverage", "ratio"),
        ("ledger.overhead", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect();
    let at = metrics
        .iter()
        .position(|(n, _)| n == "timing.sim_cycles")
        .expect("catalog lists timing.sim_cycles");
    for (i, backend) in BackendConfig::ALL.into_iter().enumerate() {
        metrics.insert(
            at + i,
            (
                format!("timing.backend_ns_per_inst.{}", backend.label()),
                "ns/inst",
            ),
        );
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_stats::Json;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "figure4",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Figure4);
        assert_eq!((a.seed, a.seconds, a.trace, a.scale), (7, 12.0, true, 1));
        assert!(!a.record);
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "figure9"]).is_err());
        assert!(args(&["--workload", "figure8", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "figure8", "--scale", "0"]).is_err());
        assert!(args(&["--workload", "figure8", "--seconds"]).is_err());
        assert!(args(&["--workload", "figure8", "--bogus", "1"]).is_err());
    }

    #[test]
    fn any_arl_variable_is_refused() {
        let vars = |list: &[&str]| -> Vec<String> { list.iter().map(|k| k.to_string()).collect() };
        assert!(stray_knobs(vars(&["PATH", "HOME", "CARGO_TARGET_DIR", "XARL_CORE"])).is_empty());
        assert_eq!(
            stray_knobs(vars(&["PATH", "ARL_TRACE_COMPILED", "ARL_CORE"])),
            ["ARL_CORE", "ARL_TRACE_COMPILED"]
        );
        assert_eq!(stray_knobs(vars(&["ARL_"])), ["ARL_"]);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for ok in [
            "wall_s",
            "timing.backend_ns_per_inst.stacked-memory",
            "9a",
            "a.b_c-d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "(3+3)",
            "ns%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        let catalog = per_layer();
        assert!(catalog.iter().all(|(n, _)| valid_name(n)));
        assert!(END_TO_END.iter().all(|(n, _)| valid_name(n)));
        let mut names: Vec<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
    }

    /// The catalog the binary emits is exactly the one `BENCHMARK.json`
    /// declares, unit for unit.
    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
