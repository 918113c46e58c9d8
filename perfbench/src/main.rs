//! The Vectorscope benchmark: end-to-end and per-layer performance of the
//! trace → DDG → Algorithm 1 → stride pipeline on the bundled kernels.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyze|whole_program|gap --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the workload end to end through the
//! library's public entry point; with `--trace 1` it recomposes every
//! pipeline from the layers' public functions and times each call (see
//! [`layers`]). Every output is checked, human-readable lines come first,
//! and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--write-expected` creates any missing reference output under
//! `perfbench/expected/` (it never overwrites one).

mod alloc;
mod layers;
mod stats;
mod workload;

use stats::{median, tail, Rng};
use std::time::Instant;
use workload::{Tally, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a run makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <analyze|whole_program|gap> --seed <u64> \
                     --seconds <n> --trace <0|1>\n       perfbench --write-expected";

/// One reported metric.
pub struct Metric {
    /// `<layer>.<metric>` or an end-to-end name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a run prints.
pub struct Outcome {
    /// Program calls (and checked outputs) in the run.
    pub attempted: u64,
    /// Calls that erred, outputs that failed a check, and failed guards.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-expected"] {
        if let Err(e) = write_expected() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => print_outcome(args.workload, &outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_outcome(workload: Workload, o: &Outcome) {
    println!(
        "workload {} (host nproc = {})",
        workload.name(),
        host_cpus()
    );
    for note in &o.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for m in &o.metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        fields.join(", ")
    );
}

/// JSON has no NaN or infinity; a metric that is not finite is printed as
/// `null` so the line stays parseable and the gap is visible.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One pass over the programs: per-call wall times and the pass's peak
/// heap above its starting level. Every output is checked after its call
/// returns, outside the timed section.
struct Pass {
    call_secs: Vec<f64>,
    peak_bytes: usize,
}

fn run_pass(
    w: Workload,
    programs: &[workload::Program],
    options: &vectorscope::AnalysisOptions,
    tally: &mut Tally,
) -> Pass {
    let base = alloc::live();
    let mut peak_bytes = 0;
    let mut call_secs = Vec::with_capacity(programs.len());
    for p in programs {
        alloc::reset_peak();
        let start = Instant::now();
        let result = w.call(p, options);
        call_secs.push(start.elapsed().as_secs_f64());
        peak_bytes = peak_bytes.max(alloc::peak().saturating_sub(base));
        tally.record(&result, |out| out.matches(&p.name, &p.expected));
    }
    Pass {
        call_secs,
        peak_bytes,
    }
}

/// The end-to-end run: `SETUPS` set-ups (load inputs and references, one
/// untimed warm-up pass), then timed passes for `seconds`, each in a fresh
/// seeded order, one program at a time.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let options = w.options();
    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        programs = w.programs()?;
        rng.shuffle(&mut programs);
        run_pass(w, &programs, &options, &mut tally);
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut programs);
        passes.push(run_pass(w, &programs, &options, &mut tally));
    }

    // The streaming engine's whole-run metrics must equal the batch
    // engine's on every program, checked once outside the timed passes.
    if w == Workload::WholeProgram {
        for p in &programs {
            let batch = workload::batch_program_render(p);
            tally.record(&batch, |text| *text == p.expected);
        }
    }

    let pass_secs: Vec<f64> = passes.iter().map(|p| p.call_secs.iter().sum()).collect();
    let call_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.call_secs.iter().map(|s| s * 1e3))
        .collect();
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_bytes as f64 / 1e6).collect();
    let p90 = tail(&call_ms);
    let notes = vec![
        format!(
            "{} programs per pass, {} timed passes, {} analysis thread(s), closed loop with one client",
            programs.len(),
            passes.len(),
            w.threads()
        ),
        format!(
            "program_p90_ms is the p{:.1} of {} samples ({} beyond it)",
            p90.percentile, p90.samples, p90.beyond
        ),
        format!(
            "failed_frac {} ratio ({} of {} calls: {} errors, {} wrong outputs)",
            tally.failed_frac(),
            tally.failed(),
            tally.attempted,
            tally.errors,
            tally.mismatches
        ),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&setups),
            },
            Metric {
                name: "pass_s",
                unit: "s",
                value: median(&pass_secs),
            },
            Metric {
                name: "program_p50_ms",
                unit: "ms",
                value: median(&call_ms),
            },
            Metric {
                name: "program_p90_ms",
                unit: "ms",
                value: p90.value,
            },
            Metric {
                name: "peak_heap_mb",
                unit: "MB",
                value: median(&peaks),
            },
        ],
        notes,
    })
}

/// Creates the reference output of every workload program that has none:
/// `analyze`/`gap` outputs of the kernels without a golden snapshot at one
/// thread, and the batch engine's whole-run metrics for `whole_program`.
fn write_expected() -> Result<(), String> {
    let dir = workload::expected_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        for w in Workload::ALL {
            let path = w.expected_path(&name);
            let whole = w == Workload::WholeProgram;
            if path.exists() || (whole && !workload::WHOLE_PROGRAM_KERNELS.contains(&name.as_str()))
            {
                continue;
            }
            let module = if whole {
                Some(kernel.compile().map_err(|e| format!("{name}: {e}"))?)
            } else {
                None
            };
            let program = workload::Program {
                name: name.clone(),
                source: kernel.source.clone(),
                module,
                expected: String::new(),
            };
            let text = if whole {
                workload::batch_program_render(&program)
            } else {
                w.call(&program, &workload::options(1))
                    .map(|out| out.render(&name))
            }
            .map_err(|e| format!("{name} ({}): {e}", w.name()))?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_parsed_and_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload gap --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Gap, 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload gap --seed -1 --seconds 10 --trace 1",
            "--workload gap --seed 3 --seconds 0 --trace 1",
            "--workload gap --seed 3 --seconds 10 --trace 2",
            "--workload gap --seed 3 --seconds 10",
            "--workload gap --seed 3 --seconds 10 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// A different seed reorders the programs and changes no output byte.
    #[test]
    fn seed_changes_order_only() {
        let w = Workload::Analyze;
        let run = |seed| {
            let mut programs = w.programs().unwrap();
            programs.truncate(8);
            Rng::new(seed).shuffle(&mut programs);
            programs
                .iter()
                .map(|p| {
                    let out = w.call(p, &w.options()).unwrap();
                    (p.name.clone(), out.render(&p.name))
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (run(1), run(2));
        let names = |v: &[(String, String)]| v.iter().map(|x| x.0.clone()).collect::<Vec<_>>();
        assert_ne!(names(&a), names(&b), "the seed must change the order");
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b, "the seed must not change any output");
    }

    /// Corrupting one expected output makes the run report failures.
    #[test]
    fn a_corrupted_reference_is_caught() {
        let w = Workload::Analyze;
        let mut programs = w.programs().unwrap();
        programs.truncate(6);
        let mut tally = Tally::default();
        run_pass(w, &programs, &w.options(), &mut tally);
        assert_eq!(tally.failed_frac(), 0.0, "{tally:?}");

        programs[2].expected = programs[2].expected.replacen("\"line\":", "\"line\":1", 1);
        let mut tally = Tally::default();
        run_pass(w, &programs, &w.options(), &mut tally);
        assert_eq!((tally.errors, tally.mismatches), (0, 1));
        assert!(tally.failed_frac() > 0.0);
    }
}
