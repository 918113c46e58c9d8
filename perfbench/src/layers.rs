//! The traced run: per-layer numbers, measured from outside the library.
//!
//! Each pipeline is recomposed here from the layers' public functions —
//! `frontend::compile`, `Vm`, `Ddg`, `partition_all`, `analyze_partition`,
//! `StreamingAnalyzer`, `staticdep::analyze_loop`, `autovec`,
//! `analyze_loop`, the JSON renderers — and every call is wrapped in a span.
//! A layer's self time is its span minus the spans nested in it.
//!
//! The recomposition is only trusted while it does what the entry points
//! do. The *equivalence guard* therefore fails the run unless, for every
//! program, the recomposed pipeline renders byte-identical output to the
//! real entry point (`analyze_source`, `stream_program`, `analyze_gap` at
//! one thread) and to the reference, and analyses the pinned number of
//! sub-traces. Every count must also repeat exactly between two traced
//! passes made in two different seeded orders.
//!
//! Two spans sit outside the pipelines they describe, because the entry
//! points give no hook for them: `ir.verify` re-verifies the compiled
//! module (`compile` verifies internally, so `frontend.compile_ms` includes
//! one verification), and `report.render` renders the output the way
//! `vscope analyze --json` does.

use crate::stats::{median, Rng};
use crate::workload::{options, render_program, Program, Tally, Workload};
use crate::{Metric, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use vectorscope::gap::{BoundCheck, StrideOracle, WitnessCheck};
use vectorscope::json::{gap_suite_json, suite_json};
use vectorscope::metrics::MetricOptions;
use vectorscope::triage::{triage_with_gap, TriageThresholds};
use vectorscope::{
    analyze_loop, partition_all, AnalysisOptions, CandidatePolicy, Error, GapSuite, InstMetrics,
    InstancePick, LoopGap, LoopMetrics, LoopReport, Partitions, StreamOutcome, StreamingAnalyzer,
    StrideReport, VecLengthHistogram,
};
use vectorscope_autovec::affine::scan_loop;
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm, VmOptions};
use vectorscope_ir::loops::{LoopForest, LoopId};
use vectorscope_ir::{FuncId, InstId, Module};
use vectorscope_staticdep::{DepKind, LoopDep, StrideClass, Verdict as PairVerdict};

/// Span durations and counters of one traced pass.
#[derive(Default)]
pub struct Tracer {
    open: Vec<Frame>,
    spans: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, u64>,
    top_ns: u64,
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

#[derive(Default, Clone, Copy)]
struct SpanTotal {
    total_ns: u64,
    self_ns: u64,
}

impl Tracer {
    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open.push(Frame {
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let frame = self.open.pop().expect("span frames nest");
        let ns = frame.start.elapsed().as_nanos() as u64;
        let s = self.spans.entry(name).or_default();
        s.total_ns += ns;
        s.self_ns += ns.saturating_sub(frame.child_ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += ns,
            None => self.top_ns += ns,
        }
        out
    }

    /// Adds `n` to counter `name`.
    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Raises counter `name` to at least `n`.
    fn peak(&mut self, name: &'static str, n: u64) {
        let c = self.counts.entry(name).or_default();
        *c = (*c).max(n);
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6)
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Wall time of every top-level span (the pipeline roots plus the
    /// `ir.verify` and `report.render` calls made beside them).
    fn top_level_ms(&self) -> f64 {
        self.top_ns as f64 / 1e6
    }
}

/// The span that covers one program's call into pipeline `w`.
fn root(w: Workload) -> &'static str {
    match w {
        Workload::Analyze => "core.analyze_source",
        Workload::WholeProgram => "core.stream_program",
        Workload::Gap => "gap.analyze_gap",
    }
}

// ---------------------------------------------------------------------------
// The recomposed pipelines.

fn vm_options(options: &AnalysisOptions) -> VmOptions {
    VmOptions {
        fuel: options.fuel,
        engine: options.engine,
        ..VmOptions::default()
    }
}

fn policy(options: &AnalysisOptions) -> CandidatePolicy {
    if options.include_integer_ops {
        CandidatePolicy::IntAndFloatArith
    } else {
        CandidatePolicy::FloatArith
    }
}

/// The loop instances `analyze_source` samples, deduplicated as it does.
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

/// `analyze_source` at one thread, layer by layer.
fn analyze_traced(
    t: &mut Tracer,
    name: &str,
    source: &str,
    options: &AnalysisOptions,
) -> Result<(Module, Vec<LoopReport>), Error> {
    t.span("core.analyze_source", |t| {
        let module = t.span("frontend.compile", |_| {
            vectorscope_frontend::compile(name, source)
        })?;
        t.add("frontend.ir_insts", module.num_inst_ids() as u64);
        let loops = hot_loop_reports(t, &module, options)?;
        Ok((module, loops))
    })
}

struct Plan {
    func: FuncId,
    loop_id: LoopId,
    line: u32,
    percent: f64,
    n_traces: usize,
}

fn hot_loop_reports(
    t: &mut Tracer,
    module: &Module,
    options: &AnalysisOptions,
) -> Result<Vec<LoopReport>, Error> {
    let mut vm = t.span("interp.vm_setup", |_| {
        Vm::with_options(module, vm_options(options))
    });
    t.span("interp.profile", |_| vm.run_main())?;
    t.add("interp.insts", vm.fuel_used());
    let hot = vm
        .profiler()
        .hot_loops(module, vm.forests(), options.hot_threshold_pct);
    let inst_counts = vm.inst_counts().to_vec();
    let branch_taken = vm.branch_taken().to_vec();

    let mut cap_vm = t.span("interp.vm_setup", |_| {
        Vm::with_options(module, vm_options(options))
    });
    let mut plans = Vec::new();
    for h in &hot {
        let (func, loop_id) = (h.profile.key.func, h.profile.key.loop_id);
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
            cap_vm.add_capture(spec, &label);
        }
        t.add("interp.captures_armed", instances.len() as u64);
        plans.push(Plan {
            func,
            loop_id,
            line,
            percent: h.profile.percent,
            n_traces: instances.len(),
        });
    }
    drop(vm);
    t.add("core.hot_loops", plans.len() as u64);
    if !plans.is_empty() {
        t.span("interp.capture", |_| cap_vm.run_main())?;
        t.add("interp.insts", cap_vm.fuel_used());
    }
    let traces = cap_vm.take_traces();
    drop(cap_vm);
    t.add(
        "interp.trace_events",
        traces.iter().map(|tr| tr.len() as u64).sum(),
    );

    let mut traces = traces.into_iter();
    let mut loops = Vec::with_capacity(plans.len());
    for p in plans {
        let mut best: Option<(usize, LoopMetrics, Vec<InstMetrics>)> = None;
        for trace in traces.by_ref().take(p.n_traces) {
            if trace.is_empty() {
                continue;
            }
            t.add("core.subtraces_analyzed", 1);
            let ddg = t.span("ddg.build", |_| {
                Ddg::try_build_with_policy(module, &trace, policy(options))
            })?;
            t.add("ddg.nodes", ddg.len() as u64);
            t.add("ddg.edges", ddg.num_edges() as u64);
            t.add("ddg.bytes", ddg.memory_bytes() as u64);
            let (metrics, per_inst) = analyze_ddg_traced(t, module, &ddg);
            if best
                .as_ref()
                .is_none_or(|(_, m, _)| metrics.total_ops > m.total_ops)
            {
                best = Some((ddg.len(), metrics, per_inst));
            }
        }
        let function = module.function(p.func);
        let Some((ddg_nodes, metrics, per_inst)) = best else {
            return Err(Error::EmptyTrace {
                func: function.name().to_string(),
                line: p.line,
            });
        };
        loops.push(LoopReport {
            module_name: module.name().to_string(),
            func_name: function.name().to_string(),
            func: p.func,
            loop_id: p.loop_id,
            loop_line: p.line,
            percent_cycles: p.percent,
            percent_packed: None,
            control_irregularity: vectorscope::control::loop_irregularity(
                module,
                p.func,
                p.loop_id,
                &inst_counts,
                &branch_taken,
            ),
            metrics,
            per_inst,
            ddg_nodes,
        });
    }
    loops.sort_by(|a, b| {
        b.percent_cycles
            .partial_cmp(&a.percent_cycles)
            .expect("percentages are finite")
    });
    Ok(loops)
}

/// `metrics::analyze_ddg` without reduction breaking, at one thread:
/// Algorithm 1 over all candidates, the §3.2/§3.3 stride stage per
/// (candidate, partition) shard, then the table arithmetic.
fn analyze_ddg_traced(
    t: &mut Tracer,
    module: &Module,
    ddg: &Ddg,
) -> (LoopMetrics, Vec<InstMetrics>) {
    t.span("metrics.analyze_ddg", |t| {
        let insts = ddg.candidate_insts();
        let all_parts = t.span("partition", |_| partition_all(ddg, &insts, &[]));
        t.add("partition.candidates", insts.len() as u64);
        let shards: u64 = all_parts.iter().map(|p| p.groups.len() as u64).sum();
        t.add("partition.partitions", shards);
        let reports: Vec<Vec<StrideReport>> = t.span("stride", |_| {
            all_parts
                .iter()
                .map(|parts| {
                    let elem = ddg.elem_size(parts.inst);
                    parts
                        .groups
                        .iter()
                        .map(|g| vectorscope::stride::analyze_partition(ddg, g, elem))
                        .collect()
                })
                .collect()
        });
        t.add("stride.shards", shards);
        for r in reports.iter().flatten() {
            t.add("stride.unit_ops", r.unit_ops() as u64);
            t.add("stride.non_unit_ops", r.non_unit_ops() as u64);
        }
        assemble(module, &all_parts, &reports)
    })
}

/// The report arithmetic of `metrics::assemble`: per-candidate totals in
/// candidate order, `per_inst` stably sorted by instance count, every
/// ratio from integer totals.
fn assemble(
    module: &Module,
    all_parts: &[Partitions],
    reports: &[Vec<StrideReport>],
) -> (LoopMetrics, Vec<InstMetrics>) {
    let mut per_inst = Vec::with_capacity(all_parts.len());
    let mut vec_lengths = VecLengthHistogram::default();
    let (mut ops, mut parts_total) = (0u64, 0u64);
    let (mut unit_ops, mut unit_subparts) = (0u64, 0u64);
    let (mut non_unit_ops, mut non_unit_subparts) = (0u64, 0u64);
    for (parts, reports) in all_parts.iter().zip(reports) {
        let mut m = InstMetrics {
            inst: parts.inst,
            span: module.span_of(parts.inst),
            instances: parts.num_instances() as u64,
            partitions: parts.groups.len() as u64,
            avg_partition_size: parts.average_size(),
            unit_ops: 0,
            unit_subparts: 0,
            non_unit_ops: 0,
            non_unit_subparts: 0,
            reduction: false,
        };
        for r in reports {
            m.unit_ops += r.unit_ops() as u64;
            m.unit_subparts += r.unit.len() as u64;
            m.non_unit_ops += r.non_unit_ops() as u64;
            m.non_unit_subparts += r.non_unit.len() as u64;
            for sub in &r.unit {
                // Bucket k holds sizes [2^(k+1), 2^(k+2)), saturating.
                let log2 = (usize::BITS - 1 - sub.len().leading_zeros()) as usize;
                let bucket = (log2 - 1).min(vec_lengths.buckets.len() - 1);
                vec_lengths.buckets[bucket] += sub.len() as u64;
            }
        }
        ops += m.instances;
        parts_total += m.partitions;
        unit_ops += m.unit_ops;
        unit_subparts += m.unit_subparts;
        non_unit_ops += m.non_unit_ops;
        non_unit_subparts += m.non_unit_subparts;
        per_inst.push(m);
    }
    per_inst.sort_by_key(|m| std::cmp::Reverse(m.instances));
    let ratio = |num: u64, den: u64, scale: f64| {
        if den == 0 {
            0.0
        } else {
            num as f64 * scale / den as f64
        }
    };
    let metrics = LoopMetrics {
        total_ops: ops,
        avg_concurrency: ratio(ops, parts_total, 1.0),
        pct_unit_vec_ops: ratio(unit_ops, ops, 100.0),
        avg_unit_vec_size: ratio(unit_ops, unit_subparts, 1.0),
        pct_non_unit_vec_ops: ratio(non_unit_ops, ops, 100.0),
        avg_non_unit_vec_size: ratio(non_unit_ops, non_unit_subparts, 1.0),
        vec_lengths,
    };
    (metrics, per_inst)
}

/// `stream_program`, layer by layer: the whole run is captured first and
/// then fed through the streaming analyzer, so execution and dependence
/// replay get separate spans.
fn stream_traced(
    t: &mut Tracer,
    module: &Module,
    options: &AnalysisOptions,
) -> Result<StreamOutcome, Error> {
    t.span("core.stream_program", |t| {
        let mut vm = t.span("interp.vm_setup", |_| {
            Vm::with_options(module, vm_options(options))
        });
        vm.set_capture(CaptureSpec::Program, module.name());
        t.span("interp.capture", |_| vm.run_main())?;
        let trace = vm.take_trace().ok_or_else(|| Error::TraceUnavailable {
            what: format!("program capture of `{}`", module.name()),
        })?;
        drop(vm);
        let mut analyzer = StreamingAnalyzer::new(module, policy(options));
        t.span("stream.consume", |_| {
            for event in trace.iter() {
                analyzer.consume(event);
            }
        });
        drop(trace);
        let metric_options = MetricOptions {
            break_reductions: options.break_reductions,
            threads: options.threads,
        };
        let outcome = t.span("stream.finish", |_| analyzer.finish(&metric_options))?;
        let s = &outcome.stats;
        t.add("stream.events", s.events);
        t.peak("stream.peak_resident_bytes", s.peak_resident_bytes() as u64);
        t.peak("stream.peak_reg_shadow", s.peak_reg_shadow as u64);
        t.peak("stream.peak_mem_shadow", s.peak_mem_shadow as u64);
        Ok(outcome)
    })
}

/// `analyze_gap`, layer by layer.
fn gap_traced(
    t: &mut Tracer,
    name: &str,
    source: &str,
    options: &AnalysisOptions,
) -> Result<GapSuite, Error> {
    t.span("gap.analyze_gap", |t| {
        let (module, rows) = analyze_traced(t, name, source, options)?;
        let decisions = t.span("autovec", |_| vectorscope_autovec::analyze_module(&module));
        let thresholds = TriageThresholds::default();
        let mut loops = Vec::with_capacity(rows.len());
        for row in &rows {
            let dep = t
                .span("staticdep", |_| {
                    vectorscope_staticdep::analyze_loop(&module, row.func, row.loop_id)
                })
                .ok_or_else(|| Error::TraceUnavailable {
                    what: format!("static analysis of hot loop {}", row.location()),
                })?;
            t.add("staticdep.pairs", dep.pairs.len() as u64);
            let proven = dep
                .pairs
                .iter()
                .filter(|p| !matches!(p.verdict, PairVerdict::Unknown(_)))
                .count();
            t.add("staticdep.proven", proven as u64);
            // Re-analysis profiles and captures the program once more each.
            let analysis = t.span("gap.reanalyze", |_| {
                analyze_loop(&module, row.func, row.loop_id, options)
            })?;
            t.add("gap.reexecutions", 2);
            let loop_gap = cross_validate(
                &module,
                analysis.report,
                &analysis.ddg,
                dep,
                &decisions,
                options,
                &thresholds,
            );
            t.add("gap.witness_checks", loop_gap.witnesses.len() as u64);
            let witnessed = loop_gap.witnesses.iter().filter(|w| w.witnessed).count();
            t.add("gap.witnessed", witnessed as u64);
            loops.push(loop_gap);
        }
        Ok(GapSuite { module, loops })
    })
}

/// The oracle obligations of one hot loop, as `analyze_gap` states them.
fn cross_validate(
    module: &Module,
    mut report: LoopReport,
    ddg: &Ddg,
    dep: LoopDep,
    decisions: &[vectorscope_autovec::LoopDecision],
    options: &AnalysisOptions,
    thresholds: &TriageThresholds,
) -> LoopGap {
    let counts: Vec<(InstId, u64)> = report
        .per_inst
        .iter()
        .map(|m| (m.inst, m.instances))
        .collect();
    report.percent_packed = Some(vectorscope_autovec::percent_packed(decisions, &counts));
    let observed_trip = report
        .per_inst
        .iter()
        .map(|m| m.instances)
        .max()
        .unwrap_or(0);

    let multi_store = multi_store_sources(module, &dep);
    let mut witnesses = Vec::new();
    for p in &dep.pairs {
        let PairVerdict::ProvenDependence(v) = p.verdict else {
            continue;
        };
        if v.kind != DepKind::Flow || v.min_trip > observed_trip {
            continue;
        }
        witnesses.push(WitnessCheck {
            source: v.source,
            source_line: module.span_of(v.source).line,
            sink: v.sink,
            sink_line: module.span_of(v.sink).line,
            distance: v.distance,
            min_trip: v.min_trip,
            witnessed: ddg.has_flow_edge(v.source, v.sink),
            shadowed: multi_store.contains(&v.source),
        });
    }

    let bounds: Vec<BoundCheck> = dep
        .bounds
        .iter()
        .filter_map(|b| {
            let m = report.per_inst.iter().find(|m| m.inst == b.inst)?;
            Some(BoundCheck {
                inst: b.inst,
                line: m.span.line,
                bound: b.distance,
                from_reduction: b.from_reduction,
                reduction_broken: options.break_reductions,
                instances: m.instances,
                avg_partition_size: m.avg_partition_size,
            })
        })
        .collect();

    let all_contiguous = !dep.strides.is_empty()
        && dep
            .strides
            .iter()
            .all(|s| matches!(s.class, StrideClass::Zero | StrideClass::Unit));
    let stride = if !(dep.exact && all_contiguous) {
        StrideOracle::NotApplicable
    } else if report.metrics.pct_non_unit_vec_ops > 1e-9 {
        StrideOracle::Violated
    } else {
        StrideOracle::Consistent
    };

    let gap_pct = gap_percent(&report, &dep, options.break_reductions);
    let causes = dep.limits.clone();
    let verdict = triage_with_gap(&report, &causes, thresholds);
    LoopGap {
        report,
        dep,
        observed_trip,
        witnesses,
        bounds,
        stride,
        gap_pct,
        causes,
        verdict,
    }
}

/// Proven-flow sources whose base object more than one store of the loop
/// writes (a missing witness for them is a warning, not a violation).
fn multi_store_sources(module: &Module, dep: &LoopDep) -> Vec<InstId> {
    let function = module.function(dep.func);
    let forest = LoopForest::new(function);
    let info = scan_loop(function, forest.get(dep.loop_id));
    let base_of = |inst: InstId| {
        info.accesses
            .iter()
            .find(|a| a.inst == inst)
            .and_then(|a| a.addr.as_ref().map(|ad| &ad.base))
    };
    let mut out = Vec::new();
    for p in &dep.pairs {
        let PairVerdict::ProvenDependence(v) = p.verdict else {
            continue;
        };
        if v.kind != DepKind::Flow {
            continue;
        }
        let Some(base) = base_of(v.source) else {
            continue;
        };
        let stores = info
            .accesses
            .iter()
            .filter(|a| a.is_store && a.addr.as_ref().map(|ad| &ad.base) == Some(base))
            .count();
        if stores > 1 {
            out.push(v.source);
        }
    }
    out
}

/// Instance-weighted percentage of candidate operations the dynamic
/// analysis vectorizes beyond the static promise.
fn gap_percent(report: &LoopReport, dep: &LoopDep, break_reductions: bool) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0u64;
    for m in &report.per_inst {
        if m.instances == 0 {
            continue;
        }
        total += m.instances;
        let dyn_frac = (m.unit_ops + m.non_unit_ops) as f64 / m.instances as f64;
        let stat_frac = if !dep.exact {
            0.0
        } else {
            let bound = dep
                .bounds
                .iter()
                .filter(|b| b.inst == m.inst && !(break_reductions && b.from_reduction))
                .map(|b| b.distance)
                .min();
            match bound {
                Some(1) => 0.0,
                Some(d) => (d - 1) as f64 / d as f64,
                None => 1.0,
            }
        };
        weighted += m.instances as f64 * (dyn_frac - stat_frac).max(0.0);
    }
    if total == 0 {
        0.0
    } else {
        100.0 * weighted / total as f64
    }
}

// ---------------------------------------------------------------------------
// Traced passes, the equivalence guard and the reported metrics.

/// One traced pass over a pipeline's programs.
struct Census {
    tracer: Tracer,
    /// Rendered output (or error) per program, in pass order.
    outputs: Vec<(String, Result<String, Error>)>,
    /// Programs whose output broke an invariant beyond its bytes.
    broken: Vec<String>,
}

fn census(w: Workload, programs: &[Program]) -> Census {
    let options = options(1);
    let mut t = Tracer::default();
    let mut outputs = Vec::with_capacity(programs.len());
    let mut broken = Vec::new();
    for p in programs {
        let rendered = match w {
            Workload::Analyze => {
                analyze_traced(&mut t, &p.name, &p.source, &options).map(|(module, loops)| {
                    let verified = t.span("ir.verify", |_| {
                        vectorscope_ir::verify::verify_module(&module)
                    });
                    if verified.is_err() {
                        broken.push(format!("{}: compiled module fails verification", p.name));
                    }
                    let json = t.span("report.render", |_| format!("{}\n", suite_json(&loops)));
                    t.add("report.bytes", json.len() as u64);
                    json
                })
            }
            Workload::WholeProgram => stream_traced(&mut t, p.module(), &options)
                .map(|o| render_program(&p.name, &o.metrics, &o.per_inst, o.nodes)),
            Workload::Gap => gap_traced(&mut t, &p.name, &p.source, &options).map(|g| {
                if g.has_violations() {
                    broken.push(format!("{}: gap oracle violations", p.name));
                }
                t.span("report.render", |_| format!("{}\n", gap_suite_json(&g)))
            }),
        };
        outputs.push((p.name.clone(), rendered));
    }
    Census {
        tracer: t,
        outputs,
        broken,
    }
}

/// The real entry point at one thread over `programs`: rendered outputs
/// by program name, and the summed call time in ms.
fn untraced_pass(
    w: Workload,
    programs: &[Program],
    tally: &mut Tally,
) -> (HashMap<String, String>, f64) {
    let options = options(1);
    let mut outputs = HashMap::new();
    let mut ms = 0.0;
    for p in programs {
        let start = Instant::now();
        let result = w.call(p, &options);
        ms += start.elapsed().as_secs_f64() * 1e3;
        tally.record(&result, |out| out.matches(&p.name, &p.expected));
        if let Ok(out) = result {
            outputs.insert(p.name.clone(), out.render(&p.name));
        }
    }
    (outputs, ms)
}

/// Count values the recomposition must reproduce at this commit (the
/// de-duplication of sampled instances, the DDG size, the streamed events).
fn pinned_counts() -> Result<Vec<(String, u64)>, String> {
    let path = crate::workload::expected_dir().join("counts.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next().and_then(|v| v.parse().ok()), it.next()) {
                (Some(name), Some(value), None) => Ok((name.to_string(), value)),
                _ => Err(format!("{}: bad line `{l}`", path.display())),
            }
        })
        .collect()
}

/// The equivalence guard for one traced pass: each recomposed output is
/// counted as attempted, and every failure is appended to `failures`.
fn guard(
    c: &Census,
    programs: &[Program],
    real: &HashMap<String, String>,
    pins: &[(String, u64)],
    tally: &mut Tally,
    failures: &mut Vec<String>,
) {
    let expected: HashMap<&str, &str> = programs
        .iter()
        .map(|p| (p.name.as_str(), p.expected.as_str()))
        .collect();
    for (name, out) in &c.outputs {
        tally.attempted += 1;
        match out {
            Err(e) => failures.push(format!("{name}: recomposed pipeline failed: {e}")),
            Ok(text)
                if real.get(name) != Some(text)
                    || expected.get(name.as_str()) != Some(&text.as_str()) =>
            {
                failures.push(format!(
                    "{name}: recomposed output differs from the entry point's"
                ))
            }
            Ok(_) => {}
        }
    }
    failures.extend(c.broken.iter().cloned());
    for (name, value) in pins {
        if let Some(&got) = c.tracer.counts.get(name.as_str()) {
            if got != *value {
                failures.push(format!("{name} = {got}, pinned at {value}"));
            }
        }
    }
}

/// The per-layer metrics one traced pass of pipeline `w` yields.
fn layer_metrics(w: Workload, t: &Tracer) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    let c = |name: &str| t.count(name) as f64;
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    match w {
        Workload::Analyze => {
            let exec_ms = t.total_ms("interp.profile") + t.total_ms("interp.capture");
            vec![
                m("frontend.compile_ms", "ms", t.total_ms("frontend.compile")),
                m("frontend.ir_insts", "count", c("frontend.ir_insts")),
                m("ir.verify_ms", "ms", t.total_ms("ir.verify")),
                m("interp.vm_setup_ms", "ms", t.total_ms("interp.vm_setup")),
                m("interp.profile_ms", "ms", t.total_ms("interp.profile")),
                m("interp.capture_ms", "ms", t.total_ms("interp.capture")),
                m("interp.insts", "count", c("interp.insts")),
                m(
                    "interp.ns_per_inst",
                    "ns",
                    per(exec_ms * 1e6, c("interp.insts")),
                ),
                m("interp.captures_armed", "count", c("interp.captures_armed")),
                m("interp.trace_events", "count", c("interp.trace_events")),
                m("ddg.build_ms", "ms", t.total_ms("ddg.build")),
                m("ddg.nodes", "count", c("ddg.nodes")),
                m("ddg.edges", "count", c("ddg.edges")),
                m("ddg.bytes", "bytes", c("ddg.bytes")),
                m(
                    "ddg.ns_per_node",
                    "ns",
                    per(t.total_ms("ddg.build") * 1e6, c("ddg.nodes")),
                ),
                m("core.self_ms", "ms", t.self_ms("core.analyze_source")),
                m(
                    "core.subtraces_analyzed",
                    "count",
                    c("core.subtraces_analyzed"),
                ),
                m(
                    "core.subtraces_kept_frac",
                    "ratio",
                    per(c("core.hot_loops"), c("core.subtraces_analyzed")),
                ),
                m("partition.ms", "ms", t.total_ms("partition")),
                m("partition.candidates", "count", c("partition.candidates")),
                m("partition.partitions", "count", c("partition.partitions")),
                m("stride.ms", "ms", t.total_ms("stride")),
                m("stride.shards", "count", c("stride.shards")),
                m("stride.unit_ops", "count", c("stride.unit_ops")),
                m("stride.non_unit_ops", "count", c("stride.non_unit_ops")),
                m(
                    "metrics.analyze_ddg_ms",
                    "ms",
                    t.total_ms("metrics.analyze_ddg"),
                ),
                m("report.render_ms", "ms", t.total_ms("report.render")),
                m("report.bytes", "bytes", c("report.bytes")),
            ]
        }
        Workload::WholeProgram => vec![
            m("stream.consume_ms", "ms", t.total_ms("stream.consume")),
            m("stream.finish_ms", "ms", t.total_ms("stream.finish")),
            m("stream.events", "count", c("stream.events")),
            m(
                "stream.ns_per_event",
                "ns",
                per(t.total_ms("stream.consume") * 1e6, c("stream.events")),
            ),
            m(
                "stream.peak_resident_bytes",
                "bytes",
                c("stream.peak_resident_bytes"),
            ),
            m(
                "stream.peak_reg_shadow",
                "count",
                c("stream.peak_reg_shadow"),
            ),
            m(
                "stream.peak_mem_shadow",
                "count",
                c("stream.peak_mem_shadow"),
            ),
        ],
        Workload::Gap => vec![
            m("staticdep.ms", "ms", t.total_ms("staticdep")),
            m("staticdep.pairs", "count", c("staticdep.pairs")),
            m(
                "staticdep.proven_frac",
                "ratio",
                per(c("staticdep.proven"), c("staticdep.pairs")),
            ),
            m("autovec.ms", "ms", t.total_ms("autovec")),
            m("gap.reanalyze_ms", "ms", t.total_ms("gap.reanalyze")),
            m("gap.reexecutions", "count", c("gap.reexecutions")),
            m("gap.witness_checks", "count", c("gap.witness_checks")),
            m(
                "gap.witnessed_frac",
                "ratio",
                per(c("gap.witnessed"), c("gap.witness_checks")),
            ),
            m("gap.checks_ms", "ms", t.self_ms("gap.analyze_gap")),
        ],
    }
}

/// Element-wise median of several passes' metric lists (same names, same
/// order).
fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    (0..passes[0].len())
        .map(|i| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            Metric {
                name: passes[0][i].name,
                unit: passes[0][i].unit,
                value: median(&values),
            }
        })
        .collect()
}

/// The traced run. Every pipeline gets one untraced and two traced passes
/// in fresh seeded orders; `w`'s pipeline then alternates untraced and
/// traced passes until `seconds` have passed, for `trace.overhead_frac`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let pins = pinned_counts()?;
    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    for p in Workload::ALL {
        let mut programs = p.programs()?;
        let (mut untraced_ms, mut censuses) = (Vec::new(), Vec::new());
        while censuses.len() < 2 || (p == w && start.elapsed().as_secs_f64() < seconds) {
            rng.shuffle(&mut programs);
            let (real, ms) = untraced_pass(p, &programs, &mut tally);
            untraced_ms.push(ms);
            rng.shuffle(&mut programs);
            let c = census(p, &programs);
            guard(&c, &programs, &real, &pins, &mut tally, &mut failures);
            censuses.push(c);
        }
        // Counts must repeat exactly between passes made in different
        // orders.
        let first = &censuses[0].tracer.counts;
        for c in &censuses[1..] {
            for (name, value) in first {
                let other = c.tracer.counts.get(name).copied().unwrap_or(0);
                if other != *value {
                    failures.push(format!("{name} not repeatable: {value} then {other}"));
                }
            }
        }
        let per_pass: Vec<Vec<Metric>> = censuses
            .iter()
            .map(|c| layer_metrics(p, &c.tracer))
            .collect();
        metrics.extend(median_metrics(&per_pass));
        if p == w {
            let traced = median(
                &censuses
                    .iter()
                    .map(|c| c.tracer.top_level_ms())
                    .collect::<Vec<_>>(),
            );
            let self_sum = median(
                &censuses
                    .iter()
                    .map(|c| c.tracer.total_ms(root(w)))
                    .collect::<Vec<_>>(),
            );
            let untraced = median(&untraced_ms);
            metrics.push(Metric {
                name: "trace.overhead_frac",
                unit: "ratio",
                value: traced / untraced - 1.0,
            });
            metrics.push(Metric {
                name: "trace.residual_ms",
                unit: "ms",
                value: self_sum - untraced,
            });
            notes.push(format!(
                "{}: {} untraced and {} traced passes at 1 thread; untraced pass {untraced:.1} ms, \
                 summed self time {self_sum:.1} ms, traced pass {traced:.1} ms",
                w.name(),
                untraced_ms.len(),
                censuses.len()
            ));
            notes.extend(self_time_shares(
                &censuses[censuses.len() - 1].tracer,
                root(w),
            ));
        }
    }
    let failed = tally.failed() + failures.len() as u64;
    notes.extend(failures.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        attempted: tally.attempted,
        failed,
        metrics,
        notes,
    })
}

/// Each span's self time in one traced pass, as a share of the pipeline
/// root's total, largest first (spans outside the root are listed with
/// their own time).
fn self_time_shares(t: &Tracer, root: &str) -> Vec<String> {
    let whole = t.total_ms(root);
    let mut rows: Vec<(&str, f64)> = t.spans.keys().map(|&n| (n, t.self_ms(n))).collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("times are finite"));
    rows.into_iter()
        .map(|(name, ms)| {
            let outside = matches!(name, "ir.verify" | "report.render");
            if outside {
                format!("self {name:<22} {ms:>9.2} ms (last traced pass; beside the pipeline)")
            } else {
                format!(
                    "self {name:<22} {ms:>9.2} ms {:>5.1}% (last traced pass)",
                    100.0 * ms / whole
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guard accepts the recomposition as it is and rejects an output
    /// that no longer matches its reference.
    #[test]
    fn guard_catches_a_diverging_recomposition() {
        let w = Workload::Analyze;
        let mut programs = w.programs().unwrap();
        programs.truncate(4);
        let mut tally = Tally::default();
        let (real, _) = untraced_pass(w, &programs, &mut tally);
        let c = census(w, &programs);
        let mut failures = Vec::new();
        guard(&c, &programs, &real, &[], &mut tally, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(tally.failed(), 0);

        programs[1].expected.push(' ');
        let pins = [("core.subtraces_analyzed".to_string(), 1)];
        let mut failures = Vec::new();
        guard(&c, &programs, &real, &pins, &mut tally, &mut failures);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn self_time_excludes_nested_spans() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        assert!(t.total_ms("inner") >= 20.0);
        assert!(t.total_ms("outer") >= t.total_ms("inner"));
        assert!(t.self_ms("outer") < 10.0, "{}", t.self_ms("outer"));
        assert_eq!(t.top_level_ms(), t.total_ms("outer"));
    }
}
