//! The ledger: what `BENCHMARK.json` promises, what a run measured, the
//! results file, and the comparison of two results files.

use serde::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `BENCHMARK.json`, compiled in: the one list of workloads and metrics
/// (names, units, directions, bounds) that the run is checked against.
pub const MANIFEST_JSON: &str = include_str!("../../BENCHMARK.json");

/// A `serde::Value` tree that goes through the shim's JSON front end.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str) -> Result<Value, String> {
    json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

fn render(value: Value) -> String {
    json::to_string(&Json(value))
}

fn str_of(value: &Value, field: &str) -> Result<String, String> {
    match value.field(field).map_err(|e| e.to_string())? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "field `{field}`: expected a string, found {other:?}"
        )),
    }
}

fn f64_of(value: &Value, field: &str) -> Result<f64, String> {
    value
        .field(field)
        .map_err(|e| e.to_string())?
        .as_f64()
        .ok_or_else(|| format!("field `{field}`: expected a number"))
}

fn seq_of<'a>(value: &'a Value, field: &str) -> Result<&'a [Value], String> {
    match value.field(field).map_err(|e| e.to_string())? {
        Value::Seq(items) => Ok(items),
        other => Err(format!("field `{field}`: expected a list, found {other:?}")),
    }
}

fn map_of<'a>(value: &'a Value, field: &str) -> Result<&'a [(String, Value)], String> {
    match value.field(field).map_err(|e| e.to_string())? {
        Value::Map(entries) => Ok(entries),
        other => Err(format!("field `{field}`: expected a map, found {other:?}")),
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Which of the two passes a run was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Tracing off, system allocator: the end-to-end metrics.
    EndToEnd,
    /// Spans and the counting allocator on: the per-layer metrics.
    Traced,
}

impl Pass {
    /// The value of `--trace` that selects this pass.
    pub fn flag(self) -> &'static str {
        match self {
            Pass::EndToEnd => "0",
            Pass::Traced => "1",
        }
    }

    /// The pass's name in a results file.
    pub fn name(self) -> &'static str {
        match self {
            Pass::EndToEnd => "end_to_end",
            Pass::Traced => "per_layer",
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names and whys, in order.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, in order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in order.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

impl Manifest {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = parse(text)?;
        let metrics = |field: &str| -> Result<Vec<MetricSpec>, String> {
            seq_of(&root, field)?
                .iter()
                .map(|m| {
                    let better = str_of(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("`better` must be lower or higher, found {better}"));
                    }
                    Ok(MetricSpec {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        lower_is_better: better == "lower",
                        bound: m.field("bound").ok().and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: seq_of(&root, "workloads")?
                .iter()
                .map(|w| Ok((str_of(w, "name")?, str_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: f64_of(&root, "run_seconds")?,
        })
    }

    /// The compiled-in manifest.
    ///
    /// # Panics
    ///
    /// Panics if the repo's `BENCHMARK.json` does not parse: that is a
    /// broken build, not a run-time condition.
    pub fn builtin() -> Self {
        Self::parse(MANIFEST_JSON).expect("the repo's BENCHMARK.json parses")
    }

    /// The metrics a pass must report.
    pub fn metrics(&self, pass: Pass) -> &[MetricSpec] {
        match pass {
            Pass::EndToEnd => &self.end_to_end,
            Pass::Traced => &self.per_layer,
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported value (for a timing, the median over blocks or
    /// samples).
    pub value: f64,
    /// Inter-quartile range over the blocks or samples as a share of
    /// the median, where the metric is a median.
    pub spread: Option<f64>,
    /// Blocks or samples behind the value.
    pub samples: usize,
}

impl Measured {
    /// A value that is not a median of samples (a count, a total).
    pub fn exact(value: f64) -> Self {
        Self::of(value, 1)
    }

    /// A value worked out from `samples` measurements some other way
    /// than as their median, so without a spread of its own.
    pub fn of(value: f64, samples: usize) -> Self {
        Self {
            value,
            spread: None,
            samples,
        }
    }

    /// The median of `samples` with its spread.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn median_of(samples: &[f64]) -> Self {
        let s = crate::stats::summarize(samples);
        Self {
            value: s.median,
            spread: Some(s.spread),
            samples: s.blocks,
        }
    }
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Measured>;

/// One workload's result in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Hash over the generated requests of the first blocks.
    pub input_digest: u64,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests refused, lost or answered wrongly.
    pub failed: u64,
    /// Blocks measured.
    pub blocks: usize,
    /// Median of the host's speed factor over the blocks (see
    /// [`crate::calib`]): every host time in `metrics` was divided by
    /// the factor measured beside it, so multiplying by this one gives
    /// back roughly the raw time.
    pub host_speed: f64,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl WorkloadResult {
    /// Checks that the result names exactly the metrics the manifest
    /// lists for `pass`, and a workload it lists.
    pub fn check_against(&self, manifest: &Manifest, pass: Pass) -> Result<(), String> {
        if !manifest.workloads.iter().any(|(n, _)| *n == self.workload) {
            return Err(format!(
                "workload {} is not in BENCHMARK.json",
                self.workload
            ));
        }
        let specs = manifest.metrics(pass);
        for spec in specs {
            if !self.metrics.contains_key(&spec.name) {
                return Err(format!("metric {} was not measured", spec.name));
            }
        }
        for name in self.metrics.keys() {
            if !specs.iter().any(|s| s.name == *name) {
                return Err(format!("metric {name} is not in BENCHMARK.json"));
            }
        }
        Ok(())
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, manifest: &Manifest, pass: Pass) -> String {
        let metrics = manifest
            .metrics(pass)
            .iter()
            .filter_map(|spec| {
                let m = self.metrics.get(&spec.name)?;
                Some((
                    spec.name.clone(),
                    map(vec![
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(spec.unit.clone())),
                    ]),
                ))
            })
            .collect();
        render(map(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]))
    }

    /// Every metric by name and unit, with spread and sample count.
    pub fn table(&self, manifest: &Manifest, pass: Pass) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{}] input_digest={:#018x} attempted={} failed={} blocks={} host_speed={:.3}",
            self.workload,
            pass.name(),
            self.input_digest,
            self.attempted,
            self.failed,
            self.blocks,
            self.host_speed
        );
        for spec in manifest.metrics(pass) {
            let Some(m) = self.metrics.get(&spec.name) else {
                continue;
            };
            let spread = m.spread.map_or(String::new(), |s| {
                format!("  iqr {:.1}% of {}", s * 100.0, m.samples)
            });
            let _ = writeln!(
                out,
                "  {:<36} {:>16.4} {:<6}{spread}",
                spec.name, m.value, spec.unit
            );
        }
        out
    }

    fn to_value(&self, manifest: &Manifest, pass: Pass) -> Value {
        let metrics = manifest
            .metrics(pass)
            .iter()
            .filter_map(|spec| {
                let m = self.metrics.get(&spec.name)?;
                Some((
                    spec.name.clone(),
                    map(vec![
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(spec.unit.clone())),
                        ("spread", m.spread.map_or(Value::Null, Value::F64)),
                        ("samples", Value::U64(m.samples as u64)),
                    ]),
                ))
            })
            .collect();
        map(vec![
            (
                "input_digest",
                Value::Str(format!("{:#018x}", self.input_digest)),
            ),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("blocks", Value::U64(self.blocks as u64)),
            ("host_speed", Value::F64(self.host_speed)),
            ("metrics", Value::Map(metrics)),
        ])
    }
}

/// Where and how a results file was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// `nproc`, as the run script saw it.
    pub nproc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub git_commit: String,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
}

impl Environment {
    /// Reads what the run script exported (`BENCH_NPROC`, `BENCH_RUSTC`,
    /// `BENCH_GIT_COMMIT`) and what the process can see itself.
    pub fn capture() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let var = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        Self {
            nproc: var("BENCH_NPROC").unwrap_or_else(|| available_parallelism.to_string()),
            available_parallelism,
            rustc: var("BENCH_RUSTC").unwrap_or_else(|| "unknown".into()),
            git_commit: var("BENCH_GIT_COMMIT").unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The text of a results file: the settings, the environment, and one
/// section per workload run.
pub fn results_file(
    manifest: &Manifest,
    pass: Pass,
    seed: u64,
    scale: f64,
    seconds: f64,
    env: &Environment,
    results: &[WorkloadResult],
) -> String {
    let workloads = results
        .iter()
        .map(|r| (r.workload.clone(), r.to_value(manifest, pass)))
        .collect();
    render(map(vec![
        ("pass", Value::Str(pass.name().into())),
        ("seed", Value::U64(seed)),
        ("scale", Value::F64(scale)),
        ("seconds", Value::F64(seconds)),
        (
            "env",
            map(vec![
                ("nproc", Value::Str(env.nproc.clone())),
                (
                    "available_parallelism",
                    Value::U64(env.available_parallelism as u64),
                ),
                ("rustc", Value::Str(env.rustc.clone())),
                ("git_commit", Value::Str(env.git_commit.clone())),
                ("profile", Value::Str(env.profile.into())),
            ]),
        ),
        ("workloads", Value::Map(workloads)),
    ]))
}

/// How a metric moved between two results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound.
    Worse,
    /// Within the bound either way.
    Same,
    /// The spread between blocks of either run exceeds the bound, so the
    /// two runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The verdict's name in a comparison row.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric: `base` against `new`, each with its block
/// spread, under the manifest's bound.
pub fn verdict(spec: &MetricSpec, base: (f64, f64), new: (f64, f64)) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if base.1.max(new.1) > bound {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the base.
    let worse_by = if spec.lower_is_better {
        (new.0 - base.0) / base.0
    } else {
        (base.0 - new.0) / base.0
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two end-to-end results files: per-workload rows for every
/// end-to-end metric with base value, new value, ratio and verdict.
/// Refuses files whose seed, scale, `nproc` or an `input_digest` differ:
/// they did not measure the same thing.
pub fn compare(manifest: &Manifest, base_text: &str, new_text: &str) -> Result<String, String> {
    let (base, new) = (parse(base_text)?, parse(new_text)?);
    for side in [&base, &new] {
        if str_of(side, "pass")? != Pass::EndToEnd.name() {
            return Err("compare takes two end-to-end results files".into());
        }
    }
    for field in ["seed", "scale"] {
        if f64_of(&base, field)? != f64_of(&new, field)? {
            return Err(format!("the two runs differ in --{field}"));
        }
    }
    let nproc = |side: &Value| str_of(side.field("env").map_err(|e| e.to_string())?, "nproc");
    if nproc(&base)? != nproc(&new)? {
        return Err("the two runs differ in nproc".into());
    }

    let new_workloads = map_of(&new, "workloads")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for (name, base_w) in map_of(&base, "workloads")? {
        let Some((_, new_w)) = new_workloads.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if str_of(base_w, "input_digest")? != str_of(new_w, "input_digest")? {
            return Err(format!("the two runs differ in input_digest on {name}"));
        }
        let side = |w: &Value, metric: &str| -> Result<(f64, f64), String> {
            let m = w
                .field("metrics")
                .and_then(|ms| ms.field(metric))
                .map_err(|e| e.to_string())?;
            let spread = m.field("spread").ok().and_then(Value::as_f64);
            Ok((f64_of(m, "value")?, spread.unwrap_or(0.0)))
        };
        for spec in &manifest.end_to_end {
            let (b, n) = (side(base_w, &spec.name)?, side(new_w, &spec.name)?);
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>7.3}  {}",
                name,
                spec.name,
                b.0,
                n.0,
                n.0 / b.0,
                verdict(spec, b, n).name()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn full_result(manifest: &Manifest, pass: Pass, workload: &str) -> WorkloadResult {
        WorkloadResult {
            workload: workload.into(),
            input_digest: 0xABCD,
            attempted: 10,
            failed: 0,
            blocks: 5,
            host_speed: 1.0,
            metrics: manifest
                .metrics(pass)
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (
                        s.name.clone(),
                        Measured::median_of(&[i as f64 + 1.0, 2.0, 3.0]),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn manifest_names_the_workloads_the_code_runs() {
        let manifest = Manifest::builtin();
        let named: Vec<(&str, &str)> = manifest
            .workloads
            .iter()
            .map(|(n, w)| (n.as_str(), w.as_str()))
            .collect();
        let run: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(named, run);
        assert!(manifest
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(manifest.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(manifest.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_result_must_name_exactly_the_manifests_metrics() {
        let manifest = Manifest::builtin();
        for pass in [Pass::EndToEnd, Pass::Traced] {
            let mut result = full_result(&manifest, pass, "serve_deep");
            assert_eq!(result.check_against(&manifest, pass), Ok(()));

            result
                .metrics
                .insert("made_up".into(), Measured::exact(1.0));
            assert!(result.check_against(&manifest, pass).is_err());
            result.metrics.remove("made_up");

            let first = manifest.metrics(pass)[0].name.clone();
            result.metrics.remove(&first);
            assert!(result.check_against(&manifest, pass).is_err());
        }
        let stray = full_result(&manifest, Pass::EndToEnd, "no_such_workload");
        assert!(stray.check_against(&manifest, Pass::EndToEnd).is_err());
    }

    #[test]
    fn result_line_has_the_contracts_keys_and_every_metric() {
        let manifest = Manifest::builtin();
        let result = full_result(&manifest, Pass::EndToEnd, "serve_deep");
        let line = parse(&result.result_line(&manifest, Pass::EndToEnd)).expect("valid JSON");
        let Value::Map(entries) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = map_of(&line, "metrics").expect("metrics map");
        assert_eq!(metrics.len(), manifest.end_to_end.len());
        for ((name, m), spec) in metrics.iter().zip(&manifest.end_to_end) {
            assert_eq!(*name, spec.name);
            assert_eq!(str_of(m, "unit").expect("unit"), spec.unit);
            assert!(f64_of(m, "value").is_ok());
        }
    }

    #[test]
    fn results_file_names_the_workloads_and_metrics_of_the_manifest() {
        let manifest = Manifest::builtin();
        let env = Environment::capture();
        let results: Vec<WorkloadResult> = manifest
            .workloads
            .iter()
            .map(|(name, _)| full_result(&manifest, Pass::EndToEnd, name))
            .collect();
        let text = results_file(&manifest, Pass::EndToEnd, 7, 1.0, 20.0, &env, &results);
        let root = parse(&text).expect("valid JSON");
        let workloads = map_of(&root, "workloads").expect("workloads");
        let names: Vec<&String> = workloads.iter().map(|(n, _)| n).collect();
        let expected: Vec<&String> = manifest.workloads.iter().map(|(n, _)| n).collect();
        assert_eq!(names, expected);
        for (_, w) in workloads {
            let metrics: Vec<&String> = map_of(w, "metrics")
                .expect("metrics")
                .iter()
                .map(|(n, _)| n)
                .collect();
            let expected: Vec<&String> = manifest.end_to_end.iter().map(|m| &m.name).collect();
            assert_eq!(metrics, expected);
        }
        for field in [
            "nproc",
            "available_parallelism",
            "rustc",
            "git_commit",
            "profile",
        ] {
            assert!(root.field("env").expect("env").field(field).is_ok());
        }
    }

    fn spec(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdict_follows_the_bound_the_direction_and_the_spread() {
        let lower = spec(true, 0.10);
        assert_eq!(verdict(&lower, (100.0, 0.02), (105.0, 0.02)), Verdict::Same);
        assert_eq!(
            verdict(&lower, (100.0, 0.02), (115.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, (100.0, 0.02), (85.0, 0.02)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&lower, (100.0, 0.02), (150.0, 0.12)),
            Verdict::Unresolved
        );
        let higher = spec(false, 0.10);
        assert_eq!(verdict(&higher, (100.0, 0.0), (85.0, 0.0)), Verdict::Worse);
        assert_eq!(
            verdict(&higher, (100.0, 0.0), (115.0, 0.0)),
            Verdict::Better
        );
    }

    #[test]
    fn compare_rows_and_refusals() {
        let manifest = Manifest::builtin();
        let env = Environment::capture();
        let base = [full_result(&manifest, Pass::EndToEnd, "serve_deep")];
        let file = |seed: u64, results: &[WorkloadResult]| {
            results_file(&manifest, Pass::EndToEnd, seed, 1.0, 20.0, &env, results)
        };
        let table = compare(&manifest, &file(7, &base), &file(7, &base)).expect("comparable");
        assert_eq!(table.lines().count(), 1 + manifest.end_to_end.len());
        assert!(table.contains("serve_deep"));
        assert!(table.contains("1.000"));

        assert!(compare(&manifest, &file(7, &base), &file(8, &base))
            .expect_err("seeds differ")
            .contains("seed"));
        let mut other = base.clone();
        other[0].input_digest += 1;
        assert!(compare(&manifest, &file(7, &base), &file(7, &other))
            .expect_err("digests differ")
            .contains("input_digest"));
        let traced = results_file(&manifest, Pass::Traced, 7, 1.0, 20.0, &env, &[]);
        assert!(compare(&manifest, &file(7, &base), &traced).is_err());
    }
}
