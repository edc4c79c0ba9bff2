//! One end-to-end benchmark for the BatchER reproduction: F1 per dollar
//! offline, socket-level serving, and a layer waterfall timed from
//! outside. See `benchmark/README.md` for what each workload is for.
//!
//! ```text
//! er-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|FILE]
//!              [--quick] [--out FILE]
//! er-benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! er-benchmark check-names [BENCHMARK.json]
//! ```

mod drills;
mod http;
mod inputs;
mod offline;
mod report;
mod serve;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Deserialize;

use report::{median, Outcome, END_TO_END, PER_LAYER, UNLISTED_WORKLOADS, WORKLOADS};

/// Measuring time when `--seconds` is not given; equals `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 38.0;
const DEFAULT_SEED: u64 = 42;
/// Every workload sets up this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Exit codes: 1 = a run failed its checks, 2 = usage, 3 = inputs changed.
const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INPUTS_CHANGED: u8 = 3;

/// `cpu_set_t` of glibc: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confines this thread — and so every thread spawned after it, servers
/// and clients alike — to the lowest-numbered CPU it is allowed on, and
/// returns that CPU.
///
/// The whole benchmark runs on one core on purpose. On a shared 2-vCPU
/// box every hand-off between threads (client -> front end -> service ->
/// LLM server and back) otherwise wakes the *other*, halted vCPU through
/// the host, which costs more than the work being handed over and varies
/// with the host's load: unpinned, the socket workloads ran at half the
/// speed and spread 3-4x wider between identical runs. On one core a
/// hand-off is a context switch.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = set
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("empty affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measuring time of the timed section, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A tenth of the work, checks still on, numbers not comparable.
    pub quick: bool,
    /// Where spans go (default: under `out_dir`).
    pub trace_out: Option<PathBuf>,
    /// Appends one JSON record per run, for `compare`.
    pub out: Option<PathBuf>,
    /// Scratch and output directory (WAL, traces), inside the checkout.
    pub out_dir: PathBuf,
}

/// Seed-pinned input digests: a run on a listed seed whose inputs hash
/// differently refuses to report numbers.
#[derive(Debug, Deserialize)]
struct PinnedDigest {
    seed: u64,
    workload: String,
    digest: String,
}

fn pinned_digests() -> Vec<PinnedDigest> {
    serde_json::from_str(include_str!("../input_digests.json"))
        .expect("benchmark/input_digests.json is valid")
}

/// Writes the run's spans next to the other outputs.
pub fn write_trace(tracer: &trace::Tracer, outcome: &Outcome, options: &Options) {
    let path = options.trace_out.clone().unwrap_or_else(|| {
        options.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            outcome.workload, outcome.seed
        ))
    });
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans -> {}", tracer.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: er-benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1|FILE] [--quick] [--out FILE]\n       er-benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]\n       er-benchmark check-names [BENCHMARK.json]",
        WORKLOADS
            .iter()
            .chain(&UNLISTED_WORKLOADS)
            .copied()
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare(&args[1..]),
        Some("check-names") => return check_names(args.get(1).map(String::as_str)),
        _ => {}
    }

    let mut workload: Option<String> = None;
    let mut seconds: Option<f64> = None;
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        trace_out: None,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        let parsed: Result<(), String> = match arg.as_str() {
            "--workload" => value().map(|v| workload = Some(v)),
            "--seed" => value().and_then(|v| {
                v.parse()
                    .map(|n| options.seed = n)
                    .map_err(|_| "--seed takes an unsigned integer".to_owned())
            }),
            "--seconds" => value().and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    seconds = Some(s);
                    Ok(())
                }
                _ => Err("--seconds takes a positive number".to_owned()),
            }),
            "--trace" => value().map(|v| match v.as_str() {
                "0" => options.trace = false,
                "1" => options.trace = true,
                file => {
                    options.trace = true;
                    options.trace_out = Some(PathBuf::from(file));
                }
            }),
            "--out" => value().map(|v| options.out = Some(PathBuf::from(v))),
            "--quick" => {
                options.quick = true;
                Ok(())
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(message) = parsed {
            eprintln!("{message}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    options.seconds = seconds.unwrap_or(if options.quick {
        DEFAULT_SECONDS / 10.0
    } else {
        DEFAULT_SECONDS
    });

    if workload == "all" {
        return run_all(&args);
    }
    let run: fn(&Options) -> Outcome = match workload.as_str() {
        "offline_design_space" => offline::design_space,
        "offline_llm_socket" => offline::llm_socket,
        "serve_repeat" => serve::repeat,
        "serve_fresh" => serve::fresh,
        _ => return usage(),
    };

    // Before any thread exists, so that all of them inherit it.
    let pinned = pin_to_one_cpu();
    let mut outcome = run(&options);
    outcome.notes.insert(
        0,
        match pinned {
            Ok(cpu) => format!("cpu: every thread pinned to cpu {cpu}"),
            Err(e) => format!("cpu: NOT pinned ({e}); timings are not comparable"),
        },
    );

    // Inputs are pinned per seed (at the default measuring time, which
    // sizes the served request streams): numbers measured on other inputs
    // must not be mistaken for comparable ones.
    if !options.quick && options.seconds == DEFAULT_SECONDS {
        let pinned = pinned_digests();
        if let Some(pin) = pinned
            .iter()
            .find(|p| p.seed == options.seed && p.workload == outcome.workload)
        {
            if pin.digest != outcome.input_digest {
                eprintln!(
                    "{}: inputs changed, numbers not comparable (seed {}: pinned digest {}, got {})",
                    outcome.workload, options.seed, pin.digest, outcome.input_digest
                );
                return ExitCode::from(EXIT_INPUTS_CHANGED);
            }
        }
    }

    outcome.print();
    if let Some(path) = &options.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", outcome.record_line()));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(EXIT_FAILED);
        }
    }
    println!("{}", outcome.result_line());
    if outcome.correct() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED)
    }
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is each workload's own), one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(EXIT_FAILED);
        }
    };
    let mut failed = Vec::new();
    for name in WORKLOADS.into_iter().chain(UNLISTED_WORKLOADS) {
        let mut child_args: Vec<String> = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            child_args.push(arg.clone());
            if arg == "--workload" {
                it.next();
                child_args.push(name.to_owned());
            }
        }
        // `status` waits for the child; nothing outlives this loop.
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{name}: {status}")),
            Err(e) => failed.push(format!("{name}: {e}")),
        }
    }
    if failed.is_empty() {
        println!("all workloads passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join("; "));
        ExitCode::from(EXIT_FAILED)
    }
}

// ---------------------------------------------------------------------
// BENCHMARK.json, `check-names`, `compare`
// ---------------------------------------------------------------------

// The spec structs name only the keys this program reads; the vendored
// serde ignores the rest (`command`, `paths`, `why`, ...).
#[derive(Debug, Deserialize)]
struct SpecWorkload {
    name: String,
}

#[derive(Debug, Deserialize)]
struct SpecEndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct SpecPerLayer {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct BenchmarkSpec {
    run_seconds: u64,
    workloads: Vec<SpecWorkload>,
    end_to_end: Vec<SpecEndToEnd>,
    per_layer: Vec<SpecPerLayer>,
}

fn read_spec(path: &str) -> Result<BenchmarkSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The names and units this program prints must be the ones
/// `BENCHMARK.json` lists — in the same order.
fn check_names(path: Option<&str>) -> ExitCode {
    let spec = match read_spec(path.unwrap_or("BENCHMARK.json")) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_FAILED);
        }
    };
    let mut problems = Vec::new();
    let listed: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    if listed != WORKLOADS {
        problems.push(format!("workloads: spec {listed:?}, program {WORKLOADS:?}"));
    }
    let pairs = |defs: &[report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    let spec_e2e: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    if spec_e2e != pairs(END_TO_END) {
        problems.push(format!(
            "end_to_end: spec {spec_e2e:?}, program {:?}",
            pairs(END_TO_END)
        ));
    }
    let spec_layer: Vec<(String, String)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    if spec_layer != pairs(PER_LAYER) {
        let program = pairs(PER_LAYER);
        let missing: Vec<_> = program.iter().filter(|p| !spec_layer.contains(p)).collect();
        let extra: Vec<_> = spec_layer.iter().filter(|p| !program.contains(p)).collect();
        problems.push(format!(
            "per_layer differs: not in spec {missing:?}, not in program {extra:?} (order matters too)"
        ));
    }
    if (spec.run_seconds as f64 - DEFAULT_SECONDS).abs() > f64::EPSILON {
        problems.push(format!(
            "run_seconds: spec {}, program default {DEFAULT_SECONDS}",
            spec.run_seconds
        ));
    }
    if problems.is_empty() {
        println!(
            "names agree: {} workloads, {} end-to-end, {} per-layer metrics",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in problems {
            eprintln!("{p}");
        }
        ExitCode::from(EXIT_FAILED)
    }
}

#[derive(Debug, Deserialize)]
struct RecordMetric {
    name: String,
    value: f64,
}

/// One line of an `--out` file.
#[derive(Debug, Deserialize)]
struct Record {
    workload: String,
    traced: bool,
    metrics: Vec<RecordMetric>,
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Median of `metric` over the untraced records of `workload`.
fn median_of(records: &[Record], workload: &str, metric: &str) -> Option<f64> {
    let mut values: Vec<f64> = records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric).map(|m| m.value))
        .collect();
    (!values.is_empty()).then(|| median(&mut values))
}

/// `compare A B`: per workload and end-to-end metric, both medians, the
/// ratio B/A with A as its base, and pass/fail against the metric's bound.
fn compare(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return usage(),
            }
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return usage();
    };
    let loaded = read_spec(&spec_path)
        .and_then(|spec| Ok((spec, read_records(a_path)?, read_records(b_path)?)));
    let (spec, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_FAILED);
        }
    };

    let mut regressions = 0;
    println!(
        "{:<22} {:<28} {:>14} {:>14} {:>9}  {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for workload in spec.workloads.iter().map(|w| w.name.as_str()) {
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                median_of(&a, workload, &metric.name),
                median_of(&b, workload, &metric.name),
            ) else {
                continue;
            };
            let worse_by = if metric.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let pass = worse_by <= metric.bound;
            if !pass {
                regressions += 1;
            }
            println!(
                "{workload:<22} {:<28} {va:>14.6} {vb:>14.6} {:>9.4}  {:>6.3}  {}",
                metric.name,
                vb / va,
                metric.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if regressions == 0 {
        println!("B is within every bound of A");
        ExitCode::SUCCESS
    } else {
        println!("{regressions} metric(s) of B are worse than A by more than their bound");
        ExitCode::from(EXIT_FAILED)
    }
}
