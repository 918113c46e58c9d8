//! `vscope`: command-line driver for the vectorscope analyzer.
//!
//! ```text
//! vscope analyze <file.kern> [--threshold PCT] [--break-reductions]
//!                            [--integer-ops] [--verbose] [--json]
//! vscope stats <file.kern> [--integer-ops] [--json]
//! vscope profile <file.kern>
//! vscope vectorize <file.kern>
//! vscope trace <file.kern> [--out trace.bin]
//! vscope ir <file.kern> [--no-verify]
//! vscope kernels
//! vscope kernel <name> [<variant>] [--verbose]
//! vscope triage <file.kern> [--threshold PCT]
//! vscope gap <file.kern> [--json]
//! vscope gap --all-kernels [--json]
//! vscope table <1|2|3|4>
//! vscope fig <1|2>
//! ```

use std::io::Write;
use std::process::ExitCode;
use vectorscope::report::{render_inst_breakdown, render_table};
use vectorscope::{analyze_source, AnalysisOptions, Engine};
use vectorscope_autovec::{analyze_module, percent_packed};
use vectorscope_interp::{CaptureSpec, Vm, VmOptions};
use vectorscope_kernels::Variant;

/// `print!` to standard output, returning a write error from the enclosing
/// command instead of panicking (`main` ends quietly on a closed pipe).
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*)?
    };
}

/// `println!` through the same writer as [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)?
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "vscope — dynamic trace-based analysis of vectorization potential\n\
         \n\
         USAGE:\n\
           vscope analyze <file.kern> [--threshold PCT] [--break-reductions] [--verbose]\n\
                          [--threads N]       analysis worker threads (0 = auto;\n\
                                              also via VSCOPE_THREADS; results are\n\
                                              identical at every thread count)\n\
                          [--engine E]        VM execution engine: `decoded` (the\n\
                                              default pre-decoded bytecode engine)\n\
                                              or `tree` (the tree-walking escape\n\
                                              hatch); outputs are byte-identical\n\
           vscope stats <file.kern> [--json]    stream a whole run and report the\n\
                                                engine's observability counters and\n\
                                                peak memory vs. the batch pipeline\n\
           vscope profile <file.kern> [--phases] show per-loop cycle profile; with\n\
                                                --phases also wall-clock time per\n\
                                                pipeline phase (decode/execute/\n\
                                                trace/ddg/analysis)\n\
           vscope vectorize <file.kern>         show model auto-vectorizer decisions\n\
           vscope trace <file.kern> [--out F]   capture a whole-program trace\n\
           vscope ir <file.kern> [--no-verify]  verify and dump the compiled IR\n\
           vscope kernels                       list the built-in benchmark kernels\n\
           vscope kernel <name> [<variant>]     analyze a built-in kernel\n\
           vscope triage <file.kern>            rank loops by missed opportunity\n\
           vscope gap <file.kern> [--json]      static dependence oracle: cross-validate\n\
           vscope gap --all-kernels [--json]    static vs. dynamic analysis (exit 1 on\n\
                                                any oracle violation)\n\
           vscope parallelism <file.kern>       Kumar critical-path profile (prior work)\n\
           vscope ddg <file.kern> [--out F.dot] export the DDG as Graphviz DOT\n\
           vscope suite                         characterize the built-in kernel suite\n\
           vscope table <1|2|3|4>               regenerate a paper table\n\
           vscope fig <1|2>                     regenerate a paper figure"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "stats" => cmd_stats(rest),
        "profile" => cmd_profile(rest),
        "vectorize" => cmd_vectorize(rest),
        "trace" => cmd_trace(rest),
        "ir" => cmd_ir(rest),
        "kernels" => cmd_kernels(),
        "kernel" => cmd_kernel(rest),
        "triage" => cmd_triage(rest),
        "gap" => cmd_gap(rest),
        "parallelism" => cmd_parallelism(rest),
        "ddg" => cmd_ddg(rest),
        "suite" => cmd_suite(rest),
        "table" => cmd_table(rest),
        "fig" => cmd_fig(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`vscope kernels | head -2`): nothing is
        // left to report to.
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vscope: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn is_broken_pipe(e: &(dyn std::error::Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

fn read_source(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path)?)
}

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn opt_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn positional(rest: &[String], idx: usize) -> Option<&str> {
    let mut skip_next = false;
    let mut seen = 0;
    for a in rest {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--threshold" || a == "--out" || a == "--threads" || a == "--engine" {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        if seen == idx {
            return Some(a);
        }
        seen += 1;
    }
    None
}

fn analysis_options(rest: &[String]) -> Result<AnalysisOptions, Box<dyn std::error::Error>> {
    let mut options = AnalysisOptions {
        break_reductions: flag(rest, "--break-reductions"),
        include_integer_ops: flag(rest, "--integer-ops"),
        ..AnalysisOptions::default()
    };
    if let Some(t) = opt_value(rest, "--threshold") {
        options.hot_threshold_pct = t.parse::<f64>()?;
    }
    if let Some(t) = opt_value(rest, "--threads") {
        options.threads = t.parse::<usize>()?;
    }
    options.engine = engine_opt(rest)?;
    Ok(options)
}

/// Parses `--engine decoded|tree` (default: the pre-decoded engine).
fn engine_opt(rest: &[String]) -> Result<Engine, Box<dyn std::error::Error>> {
    match opt_value(rest, "--engine") {
        None => Ok(Engine::default()),
        Some("decoded") => Ok(Engine::Decoded),
        Some("tree") => Ok(Engine::Tree),
        Some(other) => {
            Err(format!("unknown engine `{other}` (expected `decoded` or `tree`)").into())
        }
    }
}

/// Builds a VM honoring `--engine` for the direct-VM subcommands.
fn vm_for<'m>(
    module: &'m vectorscope_ir::Module,
    rest: &[String],
) -> Result<Vm<'m>, Box<dyn std::error::Error>> {
    Ok(Vm::with_options(
        module,
        VmOptions {
            engine: engine_opt(rest)?,
            ..VmOptions::default()
        },
    ))
}

/// Captures the whole run of `main` (a capture run: no profile is kept).
fn capture_program(
    module: &vectorscope_ir::Module,
    rest: &[String],
    cmd: &str,
) -> Result<vectorscope_trace::Trace, Box<dyn std::error::Error>> {
    let mut vm = vm_for(module, rest)?;
    vm.set_capture(CaptureSpec::Program, module.name());
    vm.capture_main()?;
    Ok(vm
        .take_trace()
        .ok_or(format!("{cmd}: the program capture produced no trace"))?)
}

/// The whole-run DDG under the run's candidate policy (`--integer-ops`).
fn program_ddg(
    module: &vectorscope_ir::Module,
    rest: &[String],
    cmd: &str,
) -> Result<vectorscope_ddg::Ddg, Box<dyn std::error::Error>> {
    let trace = capture_program(module, rest, cmd)?;
    let policy = analysis_options(rest)?.candidate_policy();
    Ok(vectorscope_ddg::Ddg::try_build_with_policy(
        module, &trace, policy,
    )?)
}

/// Analyzes a source and prints its hot-loop table (shared by `analyze`
/// and `kernel`).
fn analyze_and_print(
    name: &str,
    source: &str,
    options: &AnalysisOptions,
    verbose: bool,
    json: bool,
) -> CliResult {
    let suite = analyze_source(name, source, options)?;
    let decisions = analyze_module(&suite.module);
    let mut loops = suite.loops;
    for report in &mut loops {
        let counts: Vec<(vectorscope_ir::InstId, u64)> = report
            .per_inst
            .iter()
            .map(|m| (m.inst, m.instances))
            .collect();
        report.percent_packed = Some(percent_packed(&decisions, &counts));
    }
    if json {
        outln!("{}", vectorscope::json::suite_json(&loops));
        return Ok(());
    }
    if loops.is_empty() {
        outln!(
            "no loops above {:.0}% of cycles; try --threshold with a lower value",
            options.hot_threshold_pct
        );
        return Ok(());
    }
    outln!("{}", render_table(name, &loops));
    if verbose {
        for report in &loops {
            outln!("{}", render_inst_breakdown(report));
        }
    }
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("analyze: missing <file.kern>")?;
    let source = read_source(path)?;
    let options = analysis_options(rest)?;
    analyze_and_print(
        path,
        &source,
        &options,
        flag(rest, "--verbose"),
        flag(rest, "--json"),
    )
}

/// Streams a whole run through the bounded-memory engine and reports its
/// per-phase observability counters, then rebuilds the same run through
/// the batch pipeline (trace + DDG) for a peak-memory comparison. The
/// counters live here — never in `vscope analyze` output, whose bytes are
/// contractually identical between the two engines.
fn cmd_stats(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("stats: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let options = analysis_options(rest)?;

    let outcome = vectorscope::stream_program(&module, &options)?;
    let s = &outcome.stats;

    // Batch-pipeline footprint for the same run: the materialized trace
    // plus the DDG the streaming engine never builds.
    let trace = capture_program(&module, rest, "stats")?;
    let ddg =
        vectorscope_ddg::Ddg::try_build_with_policy(&module, &trace, options.candidate_policy())?;
    let trace_bytes = trace.approx_bytes();
    let ddg_bytes = ddg.memory_bytes();
    let streaming_peak = s.peak_resident_bytes();

    if flag(rest, "--json") {
        outln!(
            "{{\"events\":{},\"nodes\":{},\"candidate_instances\":{},\"partitions\":{},\
             \"peak_reg_shadow\":{},\"peak_mem_shadow\":{},\"peak_shadow_bytes\":{},\
             \"peak_accumulator_bytes\":{},\"streaming_peak_bytes\":{},\
             \"batch_ddg_bytes\":{},\"batch_trace_bytes\":{}}}",
            s.events,
            s.nodes,
            s.candidate_instances,
            s.partitions,
            s.peak_reg_shadow,
            s.peak_mem_shadow,
            s.peak_shadow_bytes,
            s.peak_accumulator_bytes,
            streaming_peak,
            ddg_bytes,
            trace_bytes,
        );
        return Ok(());
    }
    outln!("streaming engine counters for {path}:");
    outln!("  events consumed        {:>14}", s.events);
    outln!("  dynamic nodes          {:>14}", s.nodes);
    outln!("  candidate instances    {:>14}", s.candidate_instances);
    outln!("  partitions             {:>14}", s.partitions);
    outln!("  peak register shadows  {:>14}", s.peak_reg_shadow);
    outln!("  peak memory shadows    {:>14}", s.peak_mem_shadow);
    outln!("  peak shadow bytes      {:>14}", s.peak_shadow_bytes);
    outln!("  peak accumulator bytes {:>14}", s.peak_accumulator_bytes);
    outln!("  peak resident bytes    {:>14}", streaming_peak);
    outln!("batch pipeline for the same run:");
    outln!("  DDG bytes              {:>14}", ddg_bytes);
    outln!("  trace bytes            {:>14}", trace_bytes);
    let denom = ddg_bytes.max(1);
    outln!(
        "streaming peak = {:.1}% of the batch DDG ({:.1}% of DDG + trace)",
        streaming_peak as f64 * 100.0 / denom as f64,
        streaming_peak as f64 * 100.0 / (ddg_bytes + trace_bytes).max(1) as f64
    );
    Ok(())
}

fn cmd_profile(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("profile: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let t0 = std::time::Instant::now();
    let mut vm = vm_for(&module, rest)?;
    let decode_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    vm.run_main()?;
    let execute_time = t1.elapsed();
    let profiles = vm.profiler().profiles(&module, vm.forests());
    outln!(
        "{:<30} {:>6} {:>14} {:>14} {:>10} {:>8}",
        "loop",
        "depth",
        "self cycles",
        "incl cycles",
        "entries",
        "percent"
    );
    for p in profiles {
        outln!(
            "{:<30} {:>6} {:>14} {:>14} {:>10} {:>7.1}%",
            format!("{}:{}", p.func_name, p.span.line),
            p.depth,
            p.self_cycles,
            p.inclusive_cycles,
            p.entries,
            p.percent
        );
    }
    outln!("total cycles: {}", vm.profiler().total_cycles());
    // The default output above is deterministic (CI diffs two runs); the
    // wall-clock phase breakdown is opt-in behind `--phases`.
    if flag(rest, "--phases") {
        drop(vm);
        let t2 = std::time::Instant::now();
        let trace = capture_program(&module, rest, "profile")?;
        let trace_time = t2.elapsed();
        let t3 = std::time::Instant::now();
        let ddg = vectorscope_ddg::Ddg::try_build_with_policy(
            &module,
            &trace,
            analysis_options(rest)?.candidate_policy(),
        )?;
        let ddg_time = t3.elapsed();
        let t4 = std::time::Instant::now();
        let _ = vectorscope::metrics::analyze_ddg(
            &module,
            &ddg,
            &vectorscope::metrics::MetricOptions {
                break_reductions: false,
                threads: 1,
            },
        );
        let analysis_time = t4.elapsed();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        outln!("phase breakdown (wall clock):");
        outln!(
            "  decode    {:>10.3} ms  (VM construction incl. bytecode pre-decode)",
            ms(decode_time)
        );
        outln!(
            "  execute   {:>10.3} ms  (profiling run, no capture)",
            ms(execute_time)
        );
        outln!(
            "  trace     {:>10.3} ms  (capture run incl. event buffering)",
            ms(trace_time)
        );
        outln!(
            "  ddg       {:>10.3} ms  (dependence-graph construction)",
            ms(ddg_time)
        );
        outln!(
            "  analysis  {:>10.3} ms  (partitioning + stride stages)",
            ms(analysis_time)
        );
    }
    Ok(())
}

fn cmd_vectorize(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("vectorize: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    for d in analyze_module(&module) {
        let func = module.function(d.func).name();
        if d.vectorized {
            outln!(
                "{func}:{} VECTORIZED{} ({} packed FP instruction(s))",
                d.line,
                if d.reduction { " (reduction)" } else { "" },
                d.packed.len()
            );
        } else {
            outln!(
                "{func}:{} not vectorized: {}",
                d.line,
                d.reason.map(|r| r.to_string()).unwrap_or_default()
            );
        }
    }
    Ok(())
}

fn cmd_trace(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("trace: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let trace = capture_program(&module, rest, "trace")?;
    outln!("captured {} events", trace.len());
    if let Some(out) = opt_value(rest, "--out") {
        std::fs::write(out, trace.to_bytes())?;
        outln!("wrote {out}");
    }
    Ok(())
}

fn cmd_ir(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("ir: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    if !flag(rest, "--no-verify") {
        if let Err(e) = vectorscope_ir::verify::verify_module(&module) {
            let line = verify_error_line(&module, &e);
            eprintln!(
                "{path}:{line}: warning: verifier: {} (in `{}`)",
                e.message, e.func
            );
            eprintln!("printing the IR anyway; pass --no-verify to silence this check");
        }
    }
    outln!("{module}");
    Ok(())
}

/// Best-effort source line for a verifier diagnostic: the first
/// instruction of the offending block (the verifier reports function and
/// block, not spans).
fn verify_error_line(
    module: &vectorscope_ir::Module,
    e: &vectorscope_ir::verify::VerifyError,
) -> u32 {
    let Some(func) = module.lookup_function(&e.func) else {
        return 0;
    };
    let function = module.function(func);
    let block = function.block(e.block.unwrap_or_else(|| function.entry()));
    block
        .insts
        .first()
        .map(|i| i.span.line)
        .unwrap_or_else(|| block.terminator().span.line)
}

fn cmd_kernels() -> CliResult {
    outln!("{:<20} {:<10} {:<12}", "name", "group", "variant");
    for k in vectorscope_kernels::all_kernels() {
        outln!(
            "{:<20} {:<10} {:<12}",
            k.name,
            format!("{:?}", k.group),
            k.variant.to_string()
        );
    }
    Ok(())
}

fn cmd_kernel(rest: &[String]) -> CliResult {
    let name = positional(rest, 0).ok_or("kernel: missing <name>")?;
    let variant = match positional(rest, 1) {
        None => None,
        Some("sole") => Some(Variant::Sole),
        Some("array") => Some(Variant::Array),
        Some("pointer") => Some(Variant::Pointer),
        Some("original") => Some(Variant::Original),
        Some("transformed") => Some(Variant::Transformed),
        Some(other) => return Err(format!("unknown variant `{other}`").into()),
    };
    let kernel = vectorscope_kernels::all_kernels()
        .into_iter()
        .find(|k| k.name == name && variant.map(|v| v == k.variant).unwrap_or(true))
        .ok_or_else(|| format!("no kernel `{name}` (try `vscope kernels`)"))?;
    let options = analysis_options(rest)?;
    analyze_and_print(
        &kernel.file_name(),
        &kernel.source,
        &options,
        flag(rest, "--verbose"),
        flag(rest, "--json"),
    )
}

/// The prior-work whole-DAG parallelism profile (Kumar 1988, paper §2.1):
/// critical path, average parallelism, and the operations-per-timestamp
/// histogram over the whole program trace.
fn cmd_parallelism(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("parallelism: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let ddg = program_ddg(&module, rest, "parallelism")?;
    let k = vectorscope_ddg::kumar::analyze(&ddg);
    outln!(
        "{} DDG nodes, critical path {}, average parallelism {:.2}",
        ddg.len(),
        k.critical_path,
        k.average_parallelism()
    );
    // Coarse histogram: bucket the timestamp axis into at most 20 rows.
    let buckets = 20usize.min(k.histogram.len().max(1));
    if k.histogram.is_empty() {
        return Ok(());
    }
    let per = k.histogram.len().div_ceil(buckets);
    let max: u64 = k
        .histogram
        .chunks(per)
        .map(|c| c.iter().sum())
        .max()
        .unwrap_or(1);
    for (i, chunk) in k.histogram.chunks(per).enumerate() {
        let total: u64 = chunk.iter().sum();
        let width = (total * 50 / max.max(1)) as usize;
        outln!(
            "t{:>6}..{:<6} {:>8} |{}",
            i * per + 1,
            (i + 1) * per,
            total,
            "#".repeat(width)
        );
    }
    Ok(())
}

/// Exports the whole-program DDG as Graphviz DOT (the paper's Fig. 1/2
/// style dependence diagrams).
fn cmd_ddg(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("ddg: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let ddg = program_ddg(&module, rest, "ddg")?;
    let options = vectorscope_ddg::dot::DotOptions {
        candidates_only: flag(rest, "--candidates-only"),
        ..vectorscope_ddg::dot::DotOptions::default()
    };
    let text = vectorscope_ddg::dot::to_dot(&module, &ddg, &options);
    match opt_value(rest, "--out") {
        Some(out) => {
            std::fs::write(out, &text)?;
            outln!("wrote {out} ({} nodes)", ddg.len());
        }
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_triage(rest: &[String]) -> CliResult {
    use vectorscope::triage::{triage_suite, TriageThresholds};
    let path = positional(rest, 0).ok_or("triage: missing <file.kern>")?;
    let source = read_source(path)?;
    let options = analysis_options(rest)?;
    let suite = analyze_source(path, &source, &options)?;
    let decisions = analyze_module(&suite.module);
    let mut loops = suite.loops;
    for report in &mut loops {
        let counts: Vec<(vectorscope_ir::InstId, u64)> = report
            .per_inst
            .iter()
            .map(|m| (m.inst, m.instances))
            .collect();
        report.percent_packed = Some(percent_packed(&decisions, &counts));
    }
    let thresholds = TriageThresholds::default();
    outln!(
        "{:<30} {:>8} {:>8} {:>10} {:>8}  verdict",
        "loop",
        "%cycles",
        "%packed",
        "potential",
        "irreg."
    );
    for (i, verdict) in triage_suite(&loops, &thresholds) {
        let r = &loops[i];
        outln!(
            "{:<30} {:>7.1}% {:>7.1}% {:>9.1}% {:>8.2}  {}",
            r.location(),
            r.percent_cycles,
            r.percent_packed.unwrap_or(0.0),
            r.metrics.pct_unit_vec_ops + r.metrics.pct_non_unit_vec_ops,
            r.control_irregularity,
            verdict
        );
    }
    Ok(())
}

/// The static dependence oracle (`vscope gap`): run the dynamic analysis
/// and the static direction/distance-vector analysis on the same hot
/// loops, cross-validate (witness, bound, and stride obligations), and
/// report the classified static↔dynamic gap. Exits non-zero when any
/// oracle obligation fails — the CI contract.
fn cmd_gap(rest: &[String]) -> CliResult {
    use vectorscope::gap::{analyze_gap, analyze_gap_sources, render_gap};
    use vectorscope::json::gap_suite_json;
    let options = analysis_options(rest)?;
    let json = flag(rest, "--json");

    let mut violations: Vec<String> = Vec::new();
    if flag(rest, "--all-kernels") {
        let kernels = vectorscope_kernels::all_kernels();
        let programs: Vec<(String, String)> = kernels
            .iter()
            .map(|k| (k.file_name(), k.source.clone()))
            .collect();
        let results = analyze_gap_sources(&programs, &options);
        let mut rows: Vec<String> = Vec::new();
        for (kernel, result) in kernels.iter().zip(results) {
            let suite = match result {
                Ok(s) => s,
                Err(e) => return Err(format!("{}: {e}", kernel.file_name()).into()),
            };
            violations.extend(suite.violations());
            if json {
                rows.push(format!(
                    "{{\"kernel\":\"{}\",\"loops\":{}}}",
                    kernel.file_name(),
                    gap_suite_json(&suite)
                ));
            } else {
                outln!("# {}", kernel.file_name());
                out!("{}", render_gap(&suite));
            }
        }
        if json {
            outln!("[{}]", rows.join(","));
        }
    } else {
        let path = positional(rest, 0).ok_or("gap: missing <file.kern> (or --all-kernels)")?;
        let source = read_source(path)?;
        let suite = analyze_gap(path, &source, &options)?;
        violations.extend(suite.violations());
        if json {
            outln!("{}", gap_suite_json(&suite));
        } else {
            out!("{}", render_gap(&suite));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("gap oracle: {} violation(s)", violations.len()).into())
    }
}

/// Characterizes the whole built-in kernel suite — the paper's
/// "characterization of code bases" workflow (§1): one triage verdict per
/// kernel's hottest loop. The kernels are independent programs, so the
/// batch fans out across the worker pool (`--threads` / `VSCOPE_THREADS`);
/// rows still print in suite order with identical contents at every
/// thread count.
fn cmd_suite(rest: &[String]) -> CliResult {
    use vectorscope::triage::{triage, TriageThresholds};
    let options = analysis_options(rest)?;
    let thresholds = TriageThresholds::default();
    outln!(
        "{:<28} {:>8} {:>10} {:>8}  verdict",
        "kernel",
        "%packed",
        "potential",
        "irreg."
    );
    let kernels = vectorscope_kernels::all_kernels();
    let programs: Vec<(String, String)> = kernels
        .iter()
        .map(|k| (k.file_name(), k.source.clone()))
        .collect();
    let results = vectorscope::analyze_sources(&programs, &options);
    for (kernel, result) in kernels.iter().zip(results) {
        let suite = match result {
            Ok(s) => s,
            Err(e) => {
                outln!("{:<28} error: {e}", kernel.file_name());
                continue;
            }
        };
        let decisions = analyze_module(&suite.module);
        // The kernel's hottest FP loop.
        let mut best: Option<vectorscope::LoopReport> = None;
        for mut report in suite.loops {
            if report.metrics.total_ops == 0 {
                continue;
            }
            let counts: Vec<(vectorscope_ir::InstId, u64)> = report
                .per_inst
                .iter()
                .map(|m| (m.inst, m.instances))
                .collect();
            report.percent_packed = Some(percent_packed(&decisions, &counts));
            let better = best
                .as_ref()
                .map(|b| report.percent_cycles > b.percent_cycles)
                .unwrap_or(true);
            if better {
                best = Some(report);
            }
        }
        let Some(report) = best else {
            outln!("{:<28} no FP loops above threshold", kernel.file_name());
            continue;
        };
        outln!(
            "{:<28} {:>7.1}% {:>9.1}% {:>8.2}  {}",
            kernel.file_name(),
            report.percent_packed.unwrap_or(0.0),
            report.metrics.pct_unit_vec_ops + report.metrics.pct_non_unit_vec_ops,
            report.control_irregularity,
            triage(&report, &thresholds)
        );
    }
    Ok(())
}

fn cmd_table(rest: &[String]) -> CliResult {
    match positional(rest, 0) {
        Some("1") => outln!("{}", vectorscope_bench::tables::table1()),
        Some("2") => outln!("{}", vectorscope_bench::tables::table2()),
        Some("3") => outln!("{}", vectorscope_bench::tables::table3()),
        Some("4") => outln!("{}", vectorscope_bench::tables::table4()),
        _ => return Err("table: expected 1, 2, 3, or 4".into()),
    }
    Ok(())
}

fn cmd_fig(rest: &[String]) -> CliResult {
    match positional(rest, 0) {
        Some("1") => outln!("{}", vectorscope_bench::figures::fig1()),
        Some("2") => outln!("{}", vectorscope_bench::figures::fig2()),
        _ => return Err("fig: expected 1 or 2".into()),
    }
    Ok(())
}
