//! The repository benchmark: replays the same generated traces through AGILE
//! and BaM and reports end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <raw-mixed|cached-hot|cached-writeback> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines (prefixed `#`) carry provenance and every metric
//! with its unit and sample count. The last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, whose metrics are the
//! end-to-end set with `--trace 0` and the per-layer set with `--trace 1`.
//! The process exits 1 when a correctness check fails and 2 on bad
//! arguments.

mod measure;
mod replay;
mod stitch;
mod workload;

use measure::{Metric, Outcome};
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The commit the benchmark was built from, read from `.git` in the working
/// directory when there is one.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Ask glibc's malloc to keep freed memory mapped instead of returning it to
/// the kernel, so repeated set-ups and replays reuse pages that are already
/// faulted in. Without this every trace generation re-faults about 1 MB,
/// and on a virtual machine the cost of a page fault drifts by up to ten
/// times over minutes, which swung `setup_s` by 2x between runs. Returns
/// whether both settings took effect.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only changes glibc allocator tunables, takes plain
    // integers and is called before this process starts any other thread.
    unsafe { mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() -> bool {
    false
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let samples = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("#   {:<32} {} {}{samples}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: agile-perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let malloc_retains_freed = retain_freed_memory();
    let wl = args.workload;
    let mut out: Outcome = measure::run(wl, args.seed, args.seconds as f64, wl.ops);
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        if !m.value.is_finite() {
            out.failures.push(format!("{} is not finite", m.name));
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"traces\": {}, \"ops_per_trace\": {}, \
         \"seconds\": {}, \
         \"rounds\": {}, \"available_parallelism\": {cores}, \"build_profile\": \"{profile}\", \
         \"engine\": \"sequential\", \"caches\": \"empty at start\", \
         \"malloc_retains_freed\": {malloc_retains_freed}, \"git_revision\": \"{}\", \
         \"model_validation\": \"none\"}}",
        wl.name,
        args.seed,
        wl.traces,
        wl.ops,
        args.seconds,
        out.rounds,
        git_revision()
    );
    println!(
        "# simulated metrics (sim_*) come from an unvalidated model: the repository holds \
         no hardware reference results, so no error figure is given"
    );
    print_table("end-to-end (untraced replays)", &out.end_to_end);
    println!(
        "#   {:<32} {} ratio (n={})",
        "failed_op_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    print_table("per-layer (traced replay)", &out.per_layer);
    for f in &out.failures {
        eprintln!("correctness check failed: {f}");
    }
    let correct = out.failures.is_empty();
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(metrics)
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

    /// `(name, unit)` of every metric declared in one section of
    /// `BENCHMARK.json` (one metric object per line in that file).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let end = text[start..].find(']').expect("section ends") + start;
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        text[start..end]
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn assert_matches_declaration(emitted: &[Metric], section: &str) {
        let declared = declared(section);
        let valid = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for m in emitted {
            assert!(
                !m.name.is_empty() && m.name.chars().all(valid),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                declared.contains(&(m.name.clone(), m.unit.to_string())),
                "{} [{}] is not declared in {section}",
                m.name,
                m.unit
            );
        }
        let emitted: Vec<&str> = emitted.iter().map(|m| m.name.as_str()).collect();
        for (name, _) in &declared {
            assert!(emitted.contains(&name.as_str()), "{name} is never emitted");
        }
    }

    #[test]
    fn every_emitted_metric_is_declared_in_benchmark_json() {
        for wl in &WORKLOADS {
            let out = measure::run(wl, 3, 0.0, 256);
            assert!(out.failures.is_empty(), "{}: {:?}", wl.name, out.failures);
            assert_eq!(
                (out.attempted, out.failed),
                (2 * 256 * out.rounds as u64, 0)
            );
            assert_matches_declaration(&out.end_to_end, "end_to_end");
            assert_matches_declaration(&out.per_layer, "per_layer");
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload cached-hot --seed 9 --seconds 4 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("cached-hot", 9, 4, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload raw-mixed --seed x").is_err());
        assert!(parse("--workload raw-mixed --seed 1 --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload raw-mixed --seed").is_err());
    }
}
