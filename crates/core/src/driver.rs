//! End-to-end driver: source → hot loops → sub-traces → reports.

use crate::metrics::{analyze_ddg, MetricOptions};
use crate::report::LoopReport;
use crate::stream::{StreamOutcome, StreamingAnalyzer};
use std::cell::RefCell;
use std::rc::Rc;
use vectorscope_ddg::{BuildError, CandidatePolicy, Ddg};
use vectorscope_frontend::CompileError;
use vectorscope_interp::{CaptureSpec, Engine, Vm, VmError, VmOptions};
use vectorscope_ir::loops::LoopId;
use vectorscope_ir::{FuncId, Module};

/// Any failure of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Kern compilation failed.
    Compile(CompileError),
    /// Program execution failed.
    Vm(VmError),
    /// The requested loop produced no trace (never entered).
    EmptyTrace {
        /// The loop's function.
        func: String,
        /// The loop's source line.
        line: u32,
    },
    /// An armed capture handed back no trace (a pipeline invariant was
    /// violated, e.g. by a VM whose capture state was consumed early).
    /// Reported as an error instead of panicking so one bad analysis in a
    /// batch cannot take down the others.
    TraceUnavailable {
        /// What the missing trace was supposed to cover.
        what: String,
    },
    /// The captured region held more dynamic instances than `u32` node ids
    /// can express (see [`vectorscope_ddg::BuildError`]); both engines
    /// surface this instead of silently corrupting dependences.
    TraceTooLarge {
        /// How many nodes the region tried to create.
        nodes: usize,
    },
    /// A load or store event of the captured region carried no address
    /// (see [`vectorscope_ddg::BuildError::MissingAddress`]).
    MissingAddress {
        /// Index of the event in the region's trace.
        event: usize,
        /// The event's static instruction.
        inst: vectorscope_ir::InstId,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Vm(e) => write!(f, "execution error: {e}"),
            Error::EmptyTrace { func, line } => {
                write!(f, "loop {func}:{line} was never entered; no trace captured")
            }
            Error::TraceUnavailable { what } => {
                write!(f, "no trace available for {what} despite an armed capture")
            }
            Error::TraceTooLarge { nodes } => {
                write!(f, "{}", BuildError::TraceTooLarge { nodes: *nodes })
            }
            Error::MissingAddress { event, inst } => write!(
                f,
                "{}",
                BuildError::MissingAddress {
                    event: *event,
                    inst: *inst
                }
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Vm(e) => Some(e),
            Error::EmptyTrace { .. }
            | Error::TraceUnavailable { .. }
            | Error::TraceTooLarge { .. }
            | Error::MissingAddress { .. } => None,
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Self {
        Error::Vm(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::TraceTooLarge { nodes } => Error::TraceTooLarge { nodes },
            BuildError::MissingAddress { event, inst } => Error::MissingAddress { event, inst },
        }
    }
}

/// How to pick the dynamic loop instance whose sub-trace is analyzed.
///
/// The paper "randomly chose several instances of the loop, analyzed each
/// corresponding subtrace ... and chose one representative subtrace". A
/// fixed instance can be unrepresentative — e.g. the first instance of the
/// PDE solver's inner loop runs entirely on the domain boundary and
/// executes no floating-point work at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstancePick {
    /// A specific instance (clamped to the number observed).
    Index(u64),
    /// Sample this many instances spread over the run and keep the one
    /// with the most candidate (FP) operations.
    Representative(u64),
}

/// Options for the end-to-end analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Minimum share of total cycles for a loop to be analyzed (the paper
    /// uses 10%; its extended study drops to 5%).
    pub hot_threshold_pct: f64,
    /// Which dynamic loop instance to capture.
    pub loop_instance: InstancePick,
    /// Break detected reduction chains before partitioning (the paper's
    /// proposed extension; off by default to match the published tables).
    pub break_reductions: bool,
    /// Also characterize integer add/sub/mul/div (the paper's §4
    /// generalization; off by default — the published tables are FP-only).
    pub include_integer_ops: bool,
    /// VM instruction budget per run.
    pub fuel: u64,
    /// Worker threads for the analysis engine (per-(loop, instance)
    /// sub-trace analyses, per-(candidate, partition) stride shards, and
    /// batch runs). `0` resolves via [`rayon_lite::resolve_threads`]: the
    /// `VSCOPE_THREADS` environment variable if set to a positive integer,
    /// else the machine's available parallelism, clamped to ≥ 1. Reports
    /// are bit-identical at every thread count.
    pub threads: usize,
    /// Use the streaming bounded-memory engine ([`crate::stream`]) instead
    /// of materializing traces and DDGs (default off). Reports are
    /// byte-identical to the batch engine's; peak analysis memory scales
    /// with live state + candidate instances instead of trace length.
    /// Combined with `break_reductions` the driver silently falls back to
    /// the batch engine — reduction-chain discovery needs the whole graph.
    pub streaming: bool,
    /// Which VM execution engine runs the profiling and capture passes
    /// (default [`Engine::Decoded`], the pre-decoded bytecode engine;
    /// [`Engine::Tree`] is the tree-walking escape hatch). Both produce
    /// byte-identical traces, profiles, and reports.
    pub engine: Engine,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            hot_threshold_pct: 10.0,
            loop_instance: InstancePick::Representative(4),
            break_reductions: false,
            include_integer_ops: false,
            fuel: 2_000_000_000,
            threads: 0,
            streaming: false,
            engine: Engine::default(),
        }
    }
}

impl AnalysisOptions {
    fn vm_options(&self) -> VmOptions {
        VmOptions {
            fuel: self.fuel,
            engine: self.engine,
            ..VmOptions::default()
        }
    }

    fn metric_options(&self) -> MetricOptions {
        MetricOptions {
            break_reductions: self.break_reductions,
            threads: self.threads,
        }
    }

    /// Metric options for code already running *inside* a worker: the
    /// stride stage stays single-threaded there, so an outer fan-out does
    /// not multiply into nested thread explosions.
    fn worker_metric_options(&self) -> MetricOptions {
        MetricOptions {
            break_reductions: self.break_reductions,
            threads: 1,
        }
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        if self.include_integer_ops {
            CandidatePolicy::IntAndFloatArith
        } else {
            CandidatePolicy::FloatArith
        }
    }
}

/// The output of [`analyze_source`]: the compiled module and one report per
/// hot loop (sorted by percent of cycles, descending).
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The compiled module (kept so callers can attach Percent Packed from
    /// a vectorizer model, or inspect instructions).
    pub module: Module,
    /// Hot-loop reports.
    pub loops: Vec<LoopReport>,
}

/// The output of [`analyze_loop`]: the report plus the analyzed DDG.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// The loop's report row.
    pub report: LoopReport,
    /// The DDG of the captured sub-trace (for further inspection).
    pub ddg: Ddg,
}

/// The output of [`analyze_program`]: whole-run metrics.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Aggregated table metrics over the whole run.
    pub metrics: crate::metrics::LoopMetrics,
    /// Per-instruction breakdown.
    pub per_inst: Vec<crate::metrics::InstMetrics>,
    /// The whole-run DDG.
    pub ddg: Ddg,
}

/// Captures and analyzes the entire execution of `main` (used for
/// whole-benchmark rows like the paper's Table 3, where one number
/// characterizes the whole kernel rather than a single loop).
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails and [`Error::TraceUnavailable`]
/// if the VM hands back no trace for the armed program capture.
pub fn analyze_program(
    module: &Module,
    options: &AnalysisOptions,
) -> Result<ProgramAnalysis, Error> {
    let mut vm = Vm::with_options(module, options.vm_options());
    vm.set_capture(CaptureSpec::Program, module.name());
    vm.run_main()?;
    let trace = vm.take_trace().ok_or_else(|| Error::TraceUnavailable {
        what: format!("program capture of `{}`", module.name()),
    })?;
    let ddg = Ddg::try_build_with_policy(module, &trace, options.candidate_policy())?;
    let (metrics, per_inst) = analyze_ddg(module, &ddg, &options.metric_options());
    Ok(ProgramAnalysis {
        metrics,
        per_inst,
        ddg,
    })
}

/// Streams the entire execution of `main` through the bounded-memory
/// engine: the analytical twin of [`analyze_program`] that never
/// materializes a trace or DDG, returning byte-identical metrics plus the
/// engine's observability counters ([`crate::StreamStats`]).
///
/// `break_reductions` is not supported by the streaming engine and is
/// ignored here; callers wanting the reduction extension should use
/// [`analyze_program`].
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails and [`Error::TraceTooLarge`]
/// if the run exceeds `u32` instance ids (the same limit as the batch
/// builder).
pub fn stream_program(module: &Module, options: &AnalysisOptions) -> Result<StreamOutcome, Error> {
    let cell = Rc::new(RefCell::new(StreamingAnalyzer::new(
        module,
        options.candidate_policy(),
    )));
    let sink_cell = Rc::clone(&cell);
    let mut vm = Vm::with_options(module, options.vm_options());
    vm.add_sink(
        CaptureSpec::Program,
        Box::new(move |e| sink_cell.borrow_mut().consume(e)),
    );
    vm.run_main()?;
    drop(vm); // releases the sink closure's Rc clone
    let analyzer = Rc::try_unwrap(cell)
        .ok()
        .expect("sink closure dropped with the VM")
        .into_inner();
    Ok(analyzer.finish(&options.metric_options())?)
}

/// Compiles `source`, profiles a full run of `main`, selects hot loops
/// (≥ `hot_threshold_pct` of cycles, the paper's §4.1 rule), captures one
/// sub-trace per hot loop, and analyzes each.
///
/// The capture phase executes the program exactly **once** regardless of
/// how many hot loops or sampled instances there are: every sampled
/// (loop, instance) pair is armed as its own simultaneous [`CaptureSpec`]
/// on a single VM, so the whole analysis costs two executions total
/// (profile + capture) instead of one per sampled instance.
///
/// # Errors
///
/// Returns [`Error::Compile`] for invalid source and [`Error::Vm`] if any
/// run traps or exhausts its budget.
pub fn analyze_source(
    name: &str,
    source: &str,
    options: &AnalysisOptions,
) -> Result<SuiteReport, Error> {
    let module = vectorscope_frontend::compile(name, source)?;

    // Profiling run.
    let mut vm = Vm::with_options(&module, options.vm_options());
    vm.run_main()?;
    let hot = vm
        .profiler()
        .hot_loops(&module, vm.forests(), options.hot_threshold_pct);
    let inst_counts = vm.inst_counts().to_vec();
    let branch_taken = vm.branch_taken().to_vec();

    // Plan every (loop, instance) capture, then run once.
    struct Plan {
        func: FuncId,
        loop_id: LoopId,
        line: u32,
        percent: f64,
        n_traces: usize,
    }
    // With `break_reductions` the analysis needs the whole dependence
    // graph, so the streaming engine silently defers to the batch one.
    let use_streaming = options.streaming && !options.break_reductions;
    let mut cap_vm = Vm::with_options(&module, options.vm_options());
    let mut plans: Vec<Plan> = Vec::new();
    let mut cells: Vec<Rc<RefCell<StreamingAnalyzer<'_>>>> = Vec::new();
    for h in &hot {
        let func = h.profile.key.func;
        let loop_id = h.profile.key.loop_id;
        let function = module.function(func);
        let line = vm.forests()[func.index()].span_of(function, loop_id).line;
        if h.profile.entries == 0 {
            return Err(Error::EmptyTrace {
                func: function.name().to_string(),
                line,
            });
        }
        let label = format!("{}:{}", function.name(), line);
        let instances = sampled_instances(options.loop_instance, h.profile.entries);
        for &instance in &instances {
            let spec = CaptureSpec::Loop {
                func,
                loop_id,
                instance,
            };
            if use_streaming {
                let cell = Rc::new(RefCell::new(StreamingAnalyzer::new(
                    &module,
                    options.candidate_policy(),
                )));
                let sink_cell = Rc::clone(&cell);
                cap_vm.add_sink(spec, Box::new(move |e| sink_cell.borrow_mut().consume(e)));
                cells.push(cell);
            } else {
                cap_vm.add_capture(spec, &label);
            }
        }
        plans.push(Plan {
            func,
            loop_id,
            line,
            percent: h.profile.percent,
            n_traces: instances.len(),
        });
    }
    // Both VMs hold boxed capture state borrowing `module`; drop them
    // before `module` moves into the returned report. The profiling VM's
    // last use was `forests()` in the plan loop above.
    drop(vm);
    if !plans.is_empty() {
        cap_vm.run_main()?;
    }

    if use_streaming {
        drop(cap_vm); // releases the sink closures' Rc clones
        let mut analyzers = cells.into_iter().map(|c| {
            Rc::try_unwrap(c)
                .ok()
                .expect("sink closures dropped with the VM")
                .into_inner()
        });
        let mut loops = Vec::with_capacity(plans.len());
        for p in plans {
            let plan_analyzers: Vec<_> = analyzers.by_ref().take(p.n_traces).collect();
            let Some(outcome) = best_of_streams(plan_analyzers, &options.metric_options())? else {
                return Err(Error::EmptyTrace {
                    func: module.function(p.func).name().to_string(),
                    line: p.line,
                });
            };
            let mut report = make_report(
                &module,
                p.func,
                p.loop_id,
                p.line,
                p.percent,
                outcome.metrics,
                outcome.per_inst,
                outcome.nodes,
            );
            report.control_irregularity = crate::control::loop_irregularity(
                &module,
                p.func,
                p.loop_id,
                &inst_counts,
                &branch_taken,
            );
            loops.push(report);
        }
        drop(analyzers); // analyzers borrow `module`, which moves below
        loops.sort_by(|a, b| {
            b.percent_cycles
                .partial_cmp(&a.percent_cycles)
                .expect("percentages are finite")
        });
        return Ok(SuiteReport { module, loops });
    }

    // Hand each plan its slice of the captured traces and fan the
    // per-(loop, instance) sub-trace analyses — DDG construction,
    // Algorithm 1, and the stride stage — across the work pool. Workers
    // return into pre-indexed slots (plan order), and a worker's failure
    // surfaces as the lowest-indexed error, so the result is identical to
    // the sequential engine's at every thread count. The stride stage
    // inside each worker stays single-threaded ([`AnalysisOptions::
    // worker_metric_options`]) unless there is only one plan to analyze.
    let mut traces = cap_vm.take_traces().into_iter();
    drop(cap_vm);
    let work: Vec<(Plan, Vec<vectorscope_trace::Trace>)> = plans
        .into_iter()
        .map(|p| {
            let loop_traces: Vec<_> = traces.by_ref().take(p.n_traces).collect();
            (p, loop_traces)
        })
        .collect();
    let metric_options = if work.len() > 1 {
        options.worker_metric_options()
    } else {
        options.metric_options()
    };
    let mut loops = rayon_lite::try_par_map(options.threads, &work, |_, (p, loop_traces)| {
        let Some((ddg, metrics, per_inst)) =
            best_of_traces(&module, options, &metric_options, loop_traces)?
        else {
            return Err(Error::EmptyTrace {
                func: module.function(p.func).name().to_string(),
                line: p.line,
            });
        };
        let mut report = make_report(
            &module,
            p.func,
            p.loop_id,
            p.line,
            p.percent,
            metrics,
            per_inst,
            ddg.len(),
        );
        report.control_irregularity = crate::control::loop_irregularity(
            &module,
            p.func,
            p.loop_id,
            &inst_counts,
            &branch_taken,
        );
        Ok(report)
    })?;
    loops.sort_by(|a, b| {
        b.percent_cycles
            .partial_cmp(&a.percent_cycles)
            .expect("percentages are finite")
    });
    Ok(SuiteReport { module, loops })
}

/// Analyzes a batch of independent programs — `(name, source)` pairs —
/// concurrently, one worker per program.
///
/// This is the engine behind `vscope suite` and any code-base
/// characterization run: each program's profile/capture/analysis pipeline
/// is self-contained, so the batch fans out across
/// [`AnalysisOptions::threads`] workers while each worker runs its inner
/// stages single-threaded. Results come back in input order, and one
/// failing program yields its own `Err` entry without disturbing (or being
/// reordered by) the others.
pub fn analyze_sources(
    programs: &[(String, String)],
    options: &AnalysisOptions,
) -> Vec<Result<SuiteReport, Error>> {
    // Inside a worker, run the whole per-program pipeline on one thread;
    // with a single program there is no outer fan-out, so let the inner
    // stages use the full budget instead.
    let per_program = if programs.len() > 1 {
        AnalysisOptions {
            threads: 1,
            ..options.clone()
        }
    } else {
        options.clone()
    };
    rayon_lite::par_map(options.threads, programs, |_, (name, source)| {
        analyze_source(name, source, &per_program)
    })
}

/// Captures and analyzes one dynamic instance of one loop of `module`.
///
/// Runs a profiling pass first so the report's *Percent Cycles* is filled
/// in.
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails and [`Error::EmptyTrace`] if
/// the loop is never entered.
pub fn analyze_loop(
    module: &Module,
    func: FuncId,
    loop_id: LoopId,
    options: &AnalysisOptions,
) -> Result<LoopAnalysis, Error> {
    let mut vm = Vm::with_options(module, options.vm_options());
    vm.run_main()?;
    let profiles = vm.profiler().profiles(module, vm.forests());
    let (percent, entries) = profiles
        .iter()
        .find(|p| p.key.func == func && p.key.loop_id == loop_id)
        .map(|p| (p.percent, p.entries))
        .unwrap_or((0.0, 0));
    let mut analysis = analyze_loop_inner(module, func, loop_id, options, percent, entries)?;
    analysis.report.control_irregularity = crate::control::loop_irregularity(
        module,
        func,
        loop_id,
        vm.inst_counts(),
        vm.branch_taken(),
    );
    Ok(analysis)
}

/// The dynamic loop instances to capture, per the sampling policy.
///
/// `entries` must be non-zero (callers return [`Error::EmptyTrace`] before
/// arming any capture otherwise).
fn sampled_instances(pick: InstancePick, entries: u64) -> Vec<u64> {
    let clamp = |i: u64| i.min(entries - 1);
    match pick {
        InstancePick::Index(i) => vec![clamp(i)],
        InstancePick::Representative(k) => {
            let k = k.max(1);
            let mut v: Vec<u64> = (0..k).map(|s| clamp(s * entries / k)).collect();
            v.dedup();
            v
        }
    }
}

/// Analyzes each captured sub-trace and keeps the one with the most
/// candidate operations (the paper's "representative subtrace"). Returns
/// `None` if every trace is empty.
fn best_of_traces(
    module: &Module,
    options: &AnalysisOptions,
    metric_options: &MetricOptions,
    traces: &[vectorscope_trace::Trace],
) -> Result<
    Option<(
        Ddg,
        crate::metrics::LoopMetrics,
        Vec<crate::metrics::InstMetrics>,
    )>,
    Error,
> {
    let mut best: Option<(
        Ddg,
        crate::metrics::LoopMetrics,
        Vec<crate::metrics::InstMetrics>,
    )> = None;
    for trace in traces {
        if trace.is_empty() {
            continue;
        }
        let ddg = Ddg::try_build_with_policy(module, trace, options.candidate_policy())?;
        let (metrics, per_inst) = analyze_ddg(module, &ddg, metric_options);
        let better = match &best {
            None => true,
            Some((_, m, _)) => metrics.total_ops > m.total_ops,
        };
        if better {
            best = Some((ddg, metrics, per_inst));
        }
    }
    Ok(best)
}

/// The streaming counterpart of [`best_of_traces`]: finishes each armed
/// analyzer for one plan and keeps the outcome with the most candidate
/// operations (ties go to the earliest instance, matching the batch
/// engine's strict `>` comparison). Analyzers that saw no events
/// correspond to empty traces and are skipped.
fn best_of_streams(
    analyzers: Vec<StreamingAnalyzer<'_>>,
    metric_options: &MetricOptions,
) -> Result<Option<StreamOutcome>, Error> {
    let mut best: Option<StreamOutcome> = None;
    for analyzer in analyzers {
        if analyzer.events() == 0 {
            continue;
        }
        let outcome = analyzer.finish(metric_options)?;
        let better = match &best {
            None => true,
            Some(b) => outcome.metrics.total_ops > b.metrics.total_ops,
        };
        if better {
            best = Some(outcome);
        }
    }
    Ok(best)
}

fn analyze_loop_inner(
    module: &Module,
    func: FuncId,
    loop_id: LoopId,
    options: &AnalysisOptions,
    percent_cycles: f64,
    entries: u64,
) -> Result<LoopAnalysis, Error> {
    let function = module.function(func);
    let forest = vectorscope_ir::loops::LoopForest::new(function);
    let line = forest.span_of(function, loop_id).line;

    // A loop that was never entered cannot produce a trace; fail before
    // spending a capture run (and before `sampled_instances`, whose clamp
    // needs `entries > 0`).
    if entries == 0 {
        return Err(Error::EmptyTrace {
            func: function.name().to_string(),
            line,
        });
    }

    // One execution captures every sampled instance simultaneously.
    let label = format!("{}:{}", function.name(), line);
    let mut vm = Vm::with_options(module, options.vm_options());
    for &instance in &sampled_instances(options.loop_instance, entries) {
        vm.add_capture(
            CaptureSpec::Loop {
                func,
                loop_id,
                instance,
            },
            &label,
        );
    }
    vm.run_main()?;

    let Some((ddg, metrics, per_inst)) = best_of_traces(
        module,
        options,
        &options.metric_options(),
        &vm.take_traces(),
    )?
    else {
        return Err(Error::EmptyTrace {
            func: function.name().to_string(),
            line,
        });
    };
    let report = make_report(
        module,
        func,
        loop_id,
        line,
        percent_cycles,
        metrics,
        per_inst,
        ddg.len(),
    );
    Ok(LoopAnalysis { report, ddg })
}

/// Assembles a report row from the analysis results.
#[allow(clippy::too_many_arguments)]
fn make_report(
    module: &Module,
    func: FuncId,
    loop_id: LoopId,
    line: u32,
    percent_cycles: f64,
    metrics: crate::metrics::LoopMetrics,
    per_inst: Vec<crate::metrics::InstMetrics>,
    ddg_nodes: usize,
) -> LoopReport {
    LoopReport {
        module_name: module.name().to_string(),
        func_name: module.function(func).name().to_string(),
        func,
        loop_id,
        loop_line: line,
        percent_cycles,
        percent_packed: None,
        control_irregularity: 0.0,
        metrics,
        per_inst,
        ddg_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_vectorizable_loop() {
        let src = r#"
            const int N = 64;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { b[i] = (double)i; }
                for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; }
            }
        "#;
        let suite = analyze_source("v.kern", src, &AnalysisOptions::default()).unwrap();
        assert!(!suite.loops.is_empty());
        // The multiply loop must be a hot loop with near-total unit-stride
        // vectorizability.
        let best = suite
            .loops
            .iter()
            .max_by(|a, b| {
                a.metrics
                    .pct_unit_vec_ops
                    .partial_cmp(&b.metrics.pct_unit_vec_ops)
                    .unwrap()
            })
            .unwrap();
        assert!(best.metrics.pct_unit_vec_ops > 99.0);
        assert!(best.percent_cycles >= 10.0);
    }

    #[test]
    fn compile_errors_are_propagated() {
        let err = analyze_source("bad.kern", "void main( {", &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::Compile(_))));
    }

    #[test]
    fn trap_is_propagated() {
        let src = "int z = 0; int o = 0; void main() { o = 1 / z; }";
        let err = analyze_source("trap.kern", src, &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::Vm(_))));
    }

    #[test]
    fn analyze_specific_loop() {
        let src = r#"
            const int N = 16;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("one.kern", src).unwrap();
        let main = module.lookup_function("main").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
        let (loop_id, _) = forest.iter().next().unwrap();
        let analysis = analyze_loop(&module, main, loop_id, &AnalysisOptions::default()).unwrap();
        assert_eq!(analysis.report.metrics.total_ops, 16);
        assert!(analysis.report.percent_cycles > 0.0);
        assert!(analysis.ddg.len() > 16);
    }

    #[test]
    fn loop_instance_clamped() {
        let src = r#"
            const int N = 8;
            double a[N];
            void main() {
                for (int r = 0; r < 2; r++)
                    for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("cl.kern", src).unwrap();
        let main = module.lookup_function("main").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
        let (inner, _) = forest.iter().find(|(_, l)| l.is_innermost()).unwrap();
        let options = AnalysisOptions {
            loop_instance: InstancePick::Index(99), // clamps to the last of 2
            ..AnalysisOptions::default()
        };
        let analysis = analyze_loop(&module, main, inner, &options).unwrap();
        assert_eq!(analysis.report.metrics.total_ops, 8);
    }

    #[test]
    fn never_entered_loop_is_empty_trace_error() {
        let src = r#"
            const int N = 8;
            double a[N];
            double dead(double x) {
                for (int i = 0; i < N; i++) { x = x + a[i]; }
                return x;
            }
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 2.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("never.kern", src).unwrap();
        let dead = module.lookup_function("dead").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(dead));
        let (loop_id, _) = forest.iter().next().unwrap();
        // `dead` is never called, so its loop has zero profiled entries and
        // the analysis must fail before spending a capture run.
        let err = analyze_loop(&module, dead, loop_id, &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::EmptyTrace { .. })), "got {err:?}");
    }
}
