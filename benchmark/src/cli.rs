//! The two passes and the command line shared by `bench` and
//! `bench-trace`.

use crate::calib::HostClock;
use crate::ladder;
use crate::load::DIGEST_BLOCKS;
use crate::report::{
    compare, results_file, Environment, Manifest, Measured, Metrics, Pass, WorkloadResult,
};
use crate::run::{load_gen, peak_rss_mb, set_up, Runner, SETUP_REPEATS};
use crate::stats::{median, percentile_of};
use crate::trace::{write_jsonl, Span, Tracer};
use crate::workloads::{find, Workload, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Settings of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workloads to run, in order.
    pub workloads: Vec<&'static Workload>,
    /// Seed of the request streams.
    pub seed: u64,
    /// Seconds each workload measures.
    pub seconds: f64,
    /// Common factor on every workload's requests per block.
    pub scale: f64,
    /// Directory the results file and traces are written to.
    pub out: PathBuf,
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run workloads.
    Run(Options),
    /// Compare two end-to-end results files.
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage:
  bench       [--workload NAME|all] [--seed N] [--seconds S] [--scale F] [--out DIR] [--trace 0]
  bench-trace [--workload NAME|all] [--seed N] [--seconds S] [--scale F] [--out DIR] [--trace 1]
  bench compare <a.json> <b.json>";

/// Parses the arguments after the program name. `--trace` must name the
/// pass of the binary it is given to: the two passes are two binaries
/// because only one of them may replace the allocator.
pub fn parse_args(args: &[String], pass: Pass, manifest: &Manifest) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        };
    }
    let mut options = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: manifest.run_seconds,
        scale: 1.0,
        out: Path::new("benchmark").join("out"),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{flag} takes a positive number, found {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let workload = find(value).ok_or_else(|| format!("no workload named {value}"))?;
                options.workloads = vec![workload];
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, found {value}"))?;
            }
            "--seconds" => options.seconds = number()?,
            "--scale" => options.scale = number()?,
            "--out" => options.out = value.into(),
            "--trace" if value == pass.flag() => {}
            "--trace" => {
                return Err(format!(
                    "this binary runs --trace {}; benchmark/run.sh picks the binary for --trace {value}",
                    pass.flag()
                ));
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Command::Run(options))
}

/// The end-to-end pass of one workload: tracing off, allocator untouched.
pub fn end_to_end(workload: &Workload, options: &Options) -> WorkloadResult {
    let mut clock = HostClock::new(Instant::now());
    let (mut deployment, setup_s) = set_up(
        workload.driver,
        workload.block_at(options.scale),
        SETUP_REPEATS,
        &mut clock,
    );
    let gen = load_gen(workload, options.seed, options.scale, &deployment.runtime);
    let mut runner = Runner::new(workload, &gen, &mut deployment, &mut clock);
    runner.warm_up_and_check();
    runner.run_for(options.seconds, &mut Tracer::disabled());

    let mut metrics = Metrics::new();
    let mut put = |name: &str, m: Measured| {
        metrics.insert(name.to_string(), m);
    };
    put("setup_s", Measured::median_of(&setup_s));
    put(
        "throughput_rps",
        Measured::median_of(&runner.throughput_rps),
    );
    put(
        "latency_p50_us",
        Measured::median_of(&runner.latency_p50_us),
    );
    let (input_digest, blocks) = (runner.input_digest(), runner.blocks());
    let (attempted, mut failed) = (runner.attempted, runner.failed);
    let host_speed = median(&runner.host_speed);
    drop(runner);

    // A server's own counters must agree: nothing refused, everything
    // admitted was served.
    if let Some(stats) = deployment.front.shutdown() {
        let (served, rejected) = stats.lanes.iter().fold((0, 0), |(s, r), lane| {
            (s + lane.served, r + lane.rejected + lane.shed)
        });
        failed += attempted.abs_diff(served) + rejected;
    }
    // Read last, so it covers everything the run touched.
    put("peak_rss_mb", Measured::exact(peak_rss_mb().unwrap_or(0.0)));
    WorkloadResult {
        workload: workload.name.into(),
        input_digest,
        attempted,
        failed,
        blocks,
        host_speed,
        metrics,
    }
}

/// The traced pass of one workload: spans on every other block, the
/// counting allocator (when the binary installed it), then the layer
/// ladder over block 0. Returns the result and every span recorded.
pub fn traced(workload: &Workload, options: &Options) -> (WorkloadResult, Vec<Span>) {
    let epoch = Instant::now();
    let mut clock = HostClock::new(epoch);
    let block_requests = workload.block_at(options.scale);
    let (mut deployment, _) = set_up(workload.driver, block_requests, 1, &mut clock);
    let gen = load_gen(workload, options.seed, options.scale, &deployment.runtime);
    let mut runner = Runner::new(workload, &gen, &mut deployment, &mut clock);
    runner.warm_up_and_check();

    // Blocks alternate untraced and traced, so drift in the host's speed
    // falls on both alike; the share of throughput lost is the overhead.
    let mut tracer = Tracer::recording(epoch, 4 * block_requests * 16);
    let mut untraced = Tracer::disabled();
    let (mut plain_rps, mut traced_rps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain_rps.len() < DIGEST_BLOCKS.div_ceil(2)
        || traced_rps.len() < DIGEST_BLOCKS / 2 + 1
        || start.elapsed().as_secs_f64() < options.seconds
    {
        let spans_on = runner.blocks() % 2 == 1;
        runner.step(if spans_on { &mut tracer } else { &mut untraced });
        let rps = *runner.throughput_rps.last().expect("a block just ran");
        if spans_on {
            traced_rps.push(rps);
        } else {
            plain_rps.push(rps);
        }
    }
    let block = runner.first_block().to_vec();
    let result = WorkloadResult {
        workload: workload.name.into(),
        input_digest: runner.input_digest(),
        attempted: runner.attempted,
        failed: runner.failed,
        blocks: runner.blocks(),
        host_speed: median(&runner.host_speed),
        metrics: Metrics::new(),
    };
    let (generate_s, modeled) = (runner.generate_s, runner.modeled.clone());
    let latency_p99_us = percentile_of(&runner.untraced_latencies_us, 99.0);
    let tail_samples = runner.untraced_latencies_us.len();
    let (requests, calls, bytes) = runner.untraced_allocs;
    drop(runner);

    let mut ladder_tracer = Tracer::recording(epoch, 64 * ladder::LADDER_SAMPLE * 16);
    let mut metrics = ladder::climb(
        &deployment.runtime,
        &block,
        options.seed,
        &mut ladder_tracer,
        &mut clock,
    );
    tracer.absorb(ladder_tracer);
    deployment.front.shutdown();

    let mut put = |name: &str, m: Measured| {
        metrics.insert(name.to_string(), m);
    };
    put(
        "trace.overhead_share",
        Measured::of(
            1.0 - median(&traced_rps) / median(&plain_rps),
            traced_rps.len(),
        ),
    );
    put("latency_p99_us", Measured::of(latency_p99_us, tail_samples));
    put("load.generate_s", Measured::exact(generate_s));
    let per_request = |total: u64| Measured::exact(total as f64 / requests.max(1) as f64);
    put("allocs_per_request", per_request(calls));
    put("alloc_bytes_per_request", per_request(bytes));
    put(
        "energy_per_sentence_uj",
        Measured::exact(modeled.energy_per_sentence_uj()),
    );
    put(
        "model.layers_per_sentence",
        Measured::exact(modeled.layers_per_sentence()),
    );
    put(
        "tight_violation_share",
        Measured::exact(modeled.tight_violation_share()),
    );
    put(
        "tight_sojourn_p99_ms",
        Measured::exact(modeled.tight_sojourn_p99_ms()),
    );
    put(
        "failed_share",
        Measured::exact(result.failed as f64 / result.attempted.max(1) as f64),
    );
    (
        WorkloadResult { metrics, ..result },
        tracer.spans().to_vec(),
    )
}

fn write_file(path: &Path, write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>) {
    let result = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(path))
        .and_then(|mut file| write(&mut file));
    if let Err(err) = result {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
}

/// Runs the command line of one of the two binaries and returns its exit
/// code: 0 when every output checked out, 1 when a check failed, 2 on a
/// usage error.
pub fn main(pass: Pass) -> i32 {
    let manifest = Manifest::builtin();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args, pass, &manifest) {
        Ok(Command::Run(options)) => options,
        Ok(Command::Compare(a, b)) => {
            let read =
                |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
            let table = read(&a)
                .and_then(|a| Ok((a, read(&b)?)))
                .and_then(|(a, b)| compare(&manifest, &a, &b));
            return match table {
                Ok(table) => {
                    print!("{table}");
                    0
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    2
                }
            };
        }
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };

    let env = Environment::capture();
    println!(
        "seed={} scale={} seconds={} nproc={} available_parallelism={} rustc={:?} commit={} profile={}",
        options.seed,
        options.scale,
        options.seconds,
        env.nproc,
        env.available_parallelism,
        env.rustc,
        env.git_commit,
        env.profile
    );
    let mut results = Vec::new();
    for &workload in &options.workloads {
        let result = match pass {
            Pass::EndToEnd => end_to_end(workload, &options),
            Pass::Traced => {
                let (result, spans) = traced(workload, &options);
                let path = options.out.join(format!("{}.trace.jsonl", workload.name));
                write_file(&path, |file| {
                    let mut out = std::io::BufWriter::new(file);
                    write_jsonl(&spans, &mut out)?;
                    out.flush()
                });
                result
            }
        };
        if let Err(err) = result.check_against(&manifest, pass) {
            eprintln!("error: {err}");
            return 1;
        }
        print!("{}", result.table(&manifest, pass));
        results.push(result);
    }

    let file = match pass {
        Pass::EndToEnd => "results.json",
        Pass::Traced => "results.trace.json",
    };
    let text = results_file(
        &manifest,
        pass,
        options.seed,
        options.scale,
        options.seconds,
        &env,
        &results,
    );
    write_file(&options.out.join(file), |f| f.write_all(text.as_bytes()));

    // The contract's last line, when one workload was asked for.
    if let [result] = results.as_slice() {
        println!("{}", result.result_line(&manifest, pass));
    }
    i32::from(results.iter().any(|r| r.failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let manifest = Manifest::builtin();
        let cmd = parse_args(
            &args(&[
                "--workload",
                "sched_drain",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "0",
            ]),
            Pass::EndToEnd,
            &manifest,
        )
        .expect("parses");
        let Command::Run(options) = cmd else {
            panic!("not a run")
        };
        assert_eq!(options.workloads.len(), 1);
        assert_eq!(options.workloads[0].name, "sched_drain");
        assert_eq!(
            (options.seed, options.seconds, options.scale),
            (9, 3.0, 1.0)
        );
    }

    #[test]
    fn defaults_run_every_workload_for_the_manifests_seconds() {
        let manifest = Manifest::builtin();
        let Ok(Command::Run(options)) = parse_args(&[], Pass::Traced, &manifest) else {
            panic!("no arguments is a run")
        };
        assert_eq!(options.workloads.len(), WORKLOADS.len());
        assert_eq!(options.seconds, manifest.run_seconds);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let manifest = Manifest::builtin();
        let refuse = |words: &[&str], pass| parse_args(&args(words), pass, &manifest).is_err();
        assert!(refuse(&["--trace", "1"], Pass::EndToEnd));
        assert!(refuse(&["--trace", "0"], Pass::Traced));
        assert!(refuse(&["--workload", "nope"], Pass::EndToEnd));
        assert!(refuse(&["--seconds", "-1"], Pass::EndToEnd));
        assert!(refuse(&["--seed"], Pass::EndToEnd));
        assert!(refuse(&["--frobnicate", "1"], Pass::EndToEnd));
        assert!(refuse(&["compare", "only-one.json"], Pass::EndToEnd));
        assert_eq!(
            parse_args(
                &args(&["compare", "a.json", "b.json"]),
                Pass::EndToEnd,
                &manifest
            ),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
    }
}
