//! `gmt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets the workload up several times, runs one
//! warm-up pass, then timed passes until `--seconds` have elapsed, with
//! host-speed calibration slices after each, and reports the end-to-end
//! metrics in reference-host CPU seconds of the benchmark thread (see
//! `clock` and `calib`). Traced
//! (`--trace 1`): alternates untraced and traced passes for `--seconds`
//! and reports the per-layer host-time table. Every pass checks the
//! simulated outputs; the last stdout line is one JSON object. The exit
//! code is 1 when any job failed or any check did not hold.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gmt_perfbench::calib::Calibration;
use gmt_perfbench::clock::CpuTimer;
use gmt_perfbench::front::{self, FrontPass};
use gmt_perfbench::layers::{LayerCounts, Row, Spans};
use gmt_perfbench::replay::{self, guarded, App, PassResult, Probe};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RegularReplay,
    GraphReplay,
    FrontendSlo,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "regular_replay" => Some(Workload::RegularReplay),
            "graph_replay" => Some(Workload::GraphReplay),
            "frontend_slo" => Some(Workload::FrontendSlo),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    export: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload '{value}' (regular_replay, graph_replay, frontend_slo)"
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        export: export_path()?,
    })
}

/// `frontend_slo`'s JSONL export goes beside the binary, in the build
/// directory.
fn export_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    Ok(exe.with_file_name("perfbench-frontend-trace.jsonl"))
}

/// Set-up rounds before the first pass (`setup_s` is the median of the
/// rounds' times per build).
const SETUP_ROUNDS: usize = 3;
/// A round repeats the build until it has run this long and is timed as
/// a whole, so a microsecond-scale build is timed over many builds
/// rather than one at a time.
const SETUP_ROUND: Duration = Duration::from_millis(50);
/// Minimum timed passes per run.
const MIN_PASSES: usize = 3;

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM:`,
/// `VmRSS:`), in MiB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's inputs, built by set-up.
enum Inputs {
    Apps(Vec<App>),
    Frontend,
}

fn build(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::RegularReplay => Inputs::Apps(replay::regular_apps()),
        Workload::GraphReplay => Inputs::Apps(replay::graph_apps(seed)),
        Workload::FrontendSlo => {
            drop(std::hint::black_box(front::build(seed)));
            Inputs::Frontend
        }
    }
}

/// Set-up timing: rounds of builds, each at least `SETUP_ROUND` long and
/// followed by its share of calibration.
struct Setup {
    workload: Workload,
    seed: u64,
    /// Seconds per build of each round so far.
    per_build: Vec<f64>,
    /// Builds in the last round.
    last_builds: u32,
}

impl Setup {
    /// Builds the inputs in `SETUP_ROUNDS` rounds and returns the last
    /// build.
    fn new(workload: Workload, seed: u64, calibration: &mut Calibration) -> (Setup, Inputs) {
        let mut setup = Setup {
            workload,
            seed,
            per_build: Vec::new(),
            last_builds: 0,
        };
        // Each round's inputs are dropped before the next is built, so
        // set-up never holds two copies (`peak_rss_mb`).
        for _ in 1..SETUP_ROUNDS {
            drop(setup.round(calibration));
        }
        let inputs = setup.round(calibration);
        (setup, inputs)
    }

    fn round(&mut self, calibration: &mut Calibration) -> Inputs {
        let round = Instant::now();
        let cpu = CpuTimer::start();
        let mut builds = 0u32;
        let inputs = loop {
            let inputs = build(self.workload, self.seed);
            builds += 1;
            if round.elapsed() >= SETUP_ROUND {
                break inputs;
            }
        };
        let seconds = cpu.elapsed().as_secs_f64();
        self.per_build.push(seconds / f64::from(builds));
        self.last_builds = builds;
        calibration.after(seconds);
        inputs
    }

    /// One more round between timed passes when a build is far shorter
    /// than a round: a build of microseconds is then sampled across the
    /// whole run, as throughput is, not only at its start. Longer builds
    /// (the graphs) are timed only before the first pass.
    fn sample_between_passes(&mut self, calibration: &mut Calibration) {
        if self.last_builds > 1 {
            drop(self.round(calibration));
        }
    }

    /// Median seconds per build over every round.
    fn seconds(&self) -> f64 {
        median(&mut self.per_build.clone())
    }
}

/// One pass of any workload, reduced to what the metrics need.
#[derive(Debug, Clone, Default)]
struct Pass {
    jobs: u64,
    failures: Vec<String>,
    refs: u64,
    requests: u64,
    digest: u64,
    /// Host seconds of the pass, excluding the traced run's own analysis.
    seconds: f64,
    /// CPU seconds of the pass (untraced runs).
    cpu_seconds: f64,
    replay: Option<PassResult>,
    front: Option<FrontPass>,
}

fn run_pass(
    args: &Args,
    inputs: &Inputs,
    spans: &mut Spans,
    counts: Option<&mut LayerCounts>,
) -> Pass {
    let started = Instant::now();
    let cpu = CpuTimer::start();
    let mut pass = Pass::default();
    let offline = match inputs {
        Inputs::Apps(apps) => {
            let mut probe = Probe {
                spans,
                counts,
                offline: Duration::ZERO,
            };
            let r = replay::run_pass(apps, args.seed, &mut probe);
            let offline = probe.offline;
            pass.jobs = r.jobs;
            pass.failures = r.failures.clone();
            pass.refs = r.refs;
            pass.requests = r.warp_accesses;
            pass.digest = r.digest;
            pass.replay = Some(r);
            offline
        }
        Inputs::Frontend => {
            let mut offline = Duration::ZERO;
            pass.jobs = 1;
            match guarded(|| front::run_pass(args.seed, &args.export, spans, counts, &mut offline))
            {
                Ok(f) => {
                    pass.refs = f.refs;
                    pass.requests = f.generated;
                    pass.digest = f.digest;
                    pass.front = Some(f);
                }
                Err(e) => pass.failures.push(format!("frontend_slo: {e}")),
            }
            offline
        }
    };
    pass.seconds = started.elapsed().saturating_sub(offline).as_secs_f64();
    pass.cpu_seconds = cpu.elapsed().as_secs_f64();
    pass
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Checks every pass against the warm-up's digest and tallies failures.
struct Ledger {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    drift: u64,
}

impl Ledger {
    fn record(&mut self, pass: &Pass) {
        self.attempted += pass.jobs;
        self.failed += pass.failures.len() as u64;
        for f in &pass.failures {
            eprintln!("job failed: {f}");
        }
        match self.reference {
            None => self.reference = Some(pass.digest),
            Some(d) if d != pass.digest => {
                self.drift += 1;
                eprintln!(
                    "simulated-output digest {:016x} differs from {d:016x}",
                    pass.digest
                );
            }
            Some(_) => {}
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.drift == 0
    }
}

fn print_speedups(result: &PassResult) {
    println!("  {:<16} {:>10} {:>10}", "app", "simulated", "paper");
    for s in &result.speedups {
        let mark = if s.paper.approximate { "~" } else { "" };
        println!(
            "  {:<16} {:>10.3} {:>9}{:.2}",
            s.app, s.simulated, mark, s.paper.reuse_speedup
        );
    }
    if result.speedups.iter().any(|s| s.paper.approximate) {
        println!("  (~ = read approximately off the paper's bar chart)");
    }
}

/// `kernel_mb` is the calibration kernel's resident memory, which
/// `peak_rss_mb` leaves out.
fn untraced(
    args: &Args,
    inputs: &Inputs,
    setup: &mut Setup,
    calibration: &mut Calibration,
    kernel_mb: f64,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let mut spans = Spans::new(false);
    let warmup = run_pass(args, inputs, &mut spans, None);
    ledger.record(&warmup);
    calibration.after(warmup.cpu_seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss = 0.0;
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(args, inputs, &mut spans, None);
        ledger.record(&pass);
        calibration.after(pass.cpu_seconds);
        passes.push(pass);
        // Sampled after a fixed amount of work: allocator growth over
        // later passes would tie it to how many passes the host fits. The
        // calibration kernel's own tables are left out.
        if passes.len() == MIN_PASSES {
            peak_rss = status_mb("VmHWM:") - kernel_mb;
        }
        setup.sample_between_passes(calibration);
    }
    // Rates are total work over total measured time: on a host whose
    // speed swings between passes, that is steadier than a per-pass median.
    // Host times are CPU time, stated in reference-host seconds.
    let speed = calibration.speed();
    let measured: f64 = passes.iter().map(|p| p.cpu_seconds).sum();
    let refs = passes.iter().map(|p| p.refs).sum::<u64>() as f64;
    let requests = passes.iter().map(|p| p.requests).sum::<u64>() as f64;
    let refs_rate = refs / (measured * speed);
    let req_rate = requests / (measured * speed);
    println!(
        "host speed {speed:.4} of the reference ({} calibration slices); measured: \
         setup_s {:.6e}, sim_refs_per_s {:.1}, requests_per_s {:.1}",
        calibration.slices(),
        setup.seconds(),
        refs / measured,
        requests / measured
    );
    let last = passes.last().expect("at least one pass");
    let times: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.cpu_seconds))
        .collect();
    println!("pass CPU seconds: {}", times.join(" "));
    println!(
        "passes: {} timed after 1 warm-up, {:.2} s median pass, digest {:016x}",
        passes.len(),
        median(&mut passes.iter().map(|p| p.cpu_seconds).collect::<Vec<_>>()),
        last.digest
    );

    let fail_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup.seconds() * speed,
            unit: "s",
        },
        Metric {
            name: "sim_refs_per_s",
            value: refs_rate,
            unit: "1/s",
        },
        Metric {
            name: "requests_per_s",
            value: req_rate,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];
    // Simulated metrics repeat exactly for a seed, so they are printed and
    // covered by the digest rather than gated within a bound.
    let mut simulated: Vec<(&str, Option<f64>, &str)> = Vec::new();
    if let Some(r) = &last.replay {
        print_speedups(r);
        simulated.push(("paper_err_pct", r.paper_err_pct(), "%"));
    } else {
        simulated.push(("paper_err_pct", None, "%"));
    }
    if let Some(f) = &last.front {
        println!(
            "frontend: {} requests, {} admitted, {} deferred ({} Batch), {} shed, {} over target",
            f.generated, f.admits, f.defers, f.batch_defers, f.shed, f.violations
        );
        let miss = (f.shed + f.violations) as f64 / f.generated.max(1) as f64;
        simulated.push((
            "sim_interactive_p99_us",
            Some(f.interactive_p99_ns as f64 / 1e3),
            "us",
        ));
        simulated.push(("sim_slo_miss_frac", Some(miss), "ratio"));
    } else {
        simulated.push(("sim_interactive_p99_us", None, "us"));
        simulated.push(("sim_slo_miss_frac", None, "ratio"));
    }
    simulated.push(("fail_frac", Some(fail_frac), "ratio"));
    println!("{:<24} {:>16} unit", "end-to-end metric", "value");
    for m in &metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in simulated {
        match value {
            Some(v) => println!("{name:<24} {v:>16.6} {unit}"),
            None => println!(
                "{name:<24} {:>16} {unit} (not defined on this workload)",
                "n/a"
            ),
        }
    }
    metrics
}

fn traced(args: &Args, inputs: &Inputs, setup_s: f64, ledger: &mut Ledger) -> Vec<Metric> {
    let mut off = Spans::new(false);
    let warmup = run_pass(args, inputs, &mut off, None);
    ledger.record(&warmup);
    let mut spans = Spans::new(true);
    let mut counts = LayerCounts::default();
    let mut front = FrontPass::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(args, inputs, &mut off, None);
        ledger.record(&pass);
        plain.push(pass.seconds);
        let pass = run_pass(args, inputs, &mut spans, Some(&mut counts));
        ledger.record(&pass);
        traced.push(pass.seconds);
        if let Some(f) = &pass.front {
            front.generated += f.generated;
            front.admits += f.admits;
            front.defers += f.defers;
            front.shed += f.shed;
            front.flushes += f.flushes;
            front.interactive_t1_hit_ratio = f.interactive_t1_hit_ratio;
        }
    }
    let n = traced.len() as f64;
    let traced_mean = traced.iter().sum::<f64>() / n;
    let overhead = 100.0 * (median(&mut traced.clone()) / median(&mut plain) - 1.0);
    let empty_span = {
        let t = Instant::now();
        t.elapsed().as_secs_f64()
    };

    println!(
        "traced passes: {}, traced {:.3} s vs untraced {:.3} s (medians)",
        traced.len(),
        median(&mut traced.clone()),
        median(&mut plain.clone())
    );
    let mut m = Vec::new();
    let mut row_sum = 0.0;
    for row in Row::ALL {
        // A layer the workload never calls shows the cost of one empty span.
        let s = if spans.calls(row) == 0 {
            empty_span
        } else {
            spans.seconds(row) / n
        };
        row_sum += s;
        m.push(Metric {
            name: row.name(),
            value: s,
            unit: "s",
        });
    }
    let residual = traced_mean - row_sum;
    m.push(Metric {
        name: "residual_s",
        value: residual,
        unit: "s",
    });
    m.push(Metric {
        name: "traced_pass_s",
        value: traced_mean,
        unit: "s",
    });

    let per = |v: u64| v as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &counts;
    let core = &c.core;
    m.extend([
        Metric {
            name: "ssd.replay_s",
            value: c.ssd_replay_s / n,
            unit: "s",
        },
        Metric {
            name: "pcie.replay_s",
            value: c.pcie_replay_s / n,
            unit: "s",
        },
        Metric {
            name: "mem.replay_s",
            value: c.mem_replay_s / n,
            unit: "s",
        },
        Metric {
            name: "reuse.replay_s",
            value: c.reuse_replay_s / n,
            unit: "s",
        },
        Metric {
            name: "workloads.warp_accesses",
            value: per(c.warp_accesses),
            unit: "count",
        },
        Metric {
            name: "workloads.pages_per_access",
            value: ratio(c.page_refs, c.warp_accesses),
            unit: "pages",
        },
        Metric {
            name: "ssd.reads",
            value: per(c.ssd_reads),
            unit: "count",
        },
        Metric {
            name: "ssd.writes",
            value: per(c.ssd_writes),
            unit: "count",
        },
        Metric {
            name: "ssd.mean_ring_depth",
            value: ratio(c.ssd_depth_sum, c.ssd_reads + c.ssd_writes),
            unit: "commands",
        },
        Metric {
            name: "core.t1_hit_ratio",
            value: core.t1_hit_rate(),
            unit: "ratio",
        },
        Metric {
            name: "core.t2_hit_ratio",
            value: core.t2_hit_rate(),
            unit: "ratio",
        },
        Metric {
            name: "core.wasteful_lookup_ratio",
            value: core.wasteful_lookup_rate(),
            unit: "ratio",
        },
        Metric {
            name: "core.prediction_accuracy",
            value: core.prediction_accuracy(),
            unit: "ratio",
        },
        Metric {
            name: "core.t1_evictions",
            value: per(core.t1_evictions),
            unit: "count",
        },
        Metric {
            name: "pcie.batches",
            value: per(c.pcie_batches),
            unit: "count",
        },
        Metric {
            name: "pcie.zero_copy_frac",
            value: ratio(c.pcie_zero_copy, c.pcie_batches),
            unit: "ratio",
        },
        Metric {
            name: "pcie.mean_batch_pages",
            value: ratio(c.pcie_pages, c.pcie_batches),
            unit: "pages",
        },
        Metric {
            name: "sim.trace_records",
            value: per(c.trace_records),
            unit: "count",
        },
        Metric {
            name: "sim.trace_overhead_pct",
            value: overhead,
            unit: "%",
        },
        Metric {
            name: "frontend.admits",
            value: per(front.admits),
            unit: "count",
        },
        Metric {
            name: "frontend.defers",
            value: per(front.defers),
            unit: "count",
        },
        Metric {
            name: "frontend.sheds",
            value: per(front.shed),
            unit: "count",
        },
        Metric {
            name: "frontend.flushes",
            value: per(front.flushes),
            unit: "count",
        },
        Metric {
            name: "frontend.admit_ratio",
            value: ratio(front.admits, front.generated),
            unit: "ratio",
        },
        Metric {
            name: "serve.interactive_t1_hit_ratio",
            value: front.interactive_t1_hit_ratio,
            unit: "ratio",
        },
        Metric {
            name: "workloads.graph_build_s",
            value: if args.workload == Workload::GraphReplay {
                setup_s
            } else {
                empty_span
            },
            unit: "s",
        },
    ]);
    print_layer_table(&m, &spans, n);
    m
}

/// Prints the traced pass as a table: the top-level rows (which with
/// the residual sum to the pass), then the nested-layer replays and
/// counts.
fn print_layer_table(metrics: &[Metric], spans: &Spans, passes: f64) {
    let pass = metrics
        .iter()
        .find(|m| m.name == "traced_pass_s")
        .map_or(0.0, |m| m.value);
    println!(
        "{:<34} {:>14} {:>7} unit",
        "per-layer (per traced pass)", "value", "share"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i == Row::ALL.len() + 2 {
            println!("  -- nested layers, timed by replaying the trace (not part of the sum) --");
        }
        // Shares of the pass: its rows, the residual and the replays
        // (set-up, such as the graph build, is not part of the pass).
        let in_pass = i < Row::ALL.len() + 2 || m.name.ends_with(".replay_s");
        let share = if in_pass && pass > 0.0 {
            format!("{:>6.1}%", 100.0 * m.value / pass)
        } else {
            String::new()
        };
        println!("{:<34} {:>14.6} {:>7} {}", m.name, m.value, share, m.unit);
        if i == Row::ALL.len() + 1 {
            let calls: u64 = Row::ALL.iter().map(|&r| spans.calls(r)).sum();
            println!(
                "  (rows + residual_s = traced_pass_s; {} spans over {passes} passes)",
                calls
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking job is reported once, as a failed job, by the ledger.
    std::panic::set_hook(Box::new(|info| eprintln!("panic in job: {info}")));
    println!(
        "workload {:?}, seed {}, {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Built (and its memory touched) before set-up, so its resident memory,
    // measured here, is part of every phase `peak_rss_mb` could come from
    // and is subtracted from it.
    let before = status_mb("VmRSS:");
    let mut calibration = Calibration::new();
    let kernel_mb = status_mb("VmRSS:") - before;
    let (mut setup, inputs) = Setup::new(args.workload, args.seed, &mut calibration);
    let mut ledger = Ledger {
        reference: None,
        attempted: 0,
        failed: 0,
        drift: 0,
    };
    let metrics = if args.trace {
        traced(&args, &inputs, setup.seconds(), &mut ledger)
    } else {
        untraced(
            &args,
            &inputs,
            &mut setup,
            &mut calibration,
            kernel_mb,
            &mut ledger,
        )
    };
    let correct = ledger.correct();
    println!(
        "{}",
        json_line(correct, ledger.attempted, ledger.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
