//! Cross-crate integration tests of the full pipeline:
//! source → IR → VM/profile → sub-trace → DDG → partitions → metrics.

use std::collections::HashSet;
use vectorscope::json::loop_report_json;
use vectorscope::{analyze_loop, analyze_source, partition, AnalysisOptions, InstancePick};
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm};

/// Shared helper: whole-program DDG of a source string.
fn program_ddg(src: &str) -> (vectorscope_ir::Module, Ddg) {
    let module = vectorscope_frontend::compile("pipe.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "all");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    drop(vm); // the VM's capture state borrows `module`, which moves below
    let ddg = Ddg::build(&module, &trace);
    (module, ddg)
}

#[test]
fn metrics_denominators_are_consistent() {
    let suite = analyze_source(
        "m.kern",
        r#"
        const int N = 100;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i; }
            for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0 + 1.0; }
        }
    "#,
        &AnalysisOptions::default(),
    )
    .unwrap();
    for row in &suite.loops {
        let m = &row.metrics;
        // Per-inst instance counts sum to the loop total.
        let sum: u64 = row.per_inst.iter().map(|x| x.instances).sum();
        assert_eq!(sum, m.total_ops);
        // Percentages are within [0, 100] and unit + singleton <= 100.
        assert!(m.pct_unit_vec_ops >= 0.0 && m.pct_unit_vec_ops <= 100.0);
        assert!(m.pct_non_unit_vec_ops >= 0.0 && m.pct_non_unit_vec_ops <= 100.0);
        assert!(m.pct_unit_vec_ops + m.pct_non_unit_vec_ops <= 100.0 + 1e-9);
        // Average concurrency is at least 1 when ops exist.
        if m.total_ops > 0 {
            assert!(m.avg_concurrency >= 1.0);
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    let src = r#"
        const int N = 64;
        double a[N][N];
        void main() {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = (double)(i + j);
            for (int i = 1; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = a[i-1][j] * 0.5 + a[i][j];
        }
    "#;
    let one = analyze_source("d.kern", src, &AnalysisOptions::default()).unwrap();
    let two = analyze_source("d.kern", src, &AnalysisOptions::default()).unwrap();
    assert_eq!(one.loops.len(), two.loops.len());
    for (a, b) in one.loops.iter().zip(&two.loops) {
        assert_eq!(a, b, "reports differ between runs");
    }
}

#[test]
fn partitions_cover_every_candidate_exactly_once() {
    let (_, ddg) = program_ddg(
        r#"
        const int N = 24;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i; }
            for (int i = 2; i < N; i++) { a[i] = a[i-2] + b[i]; }
        }
    "#,
    );
    for inst in ddg.candidate_insts() {
        let p = partition(&ddg, inst, &HashSet::new());
        let mut seen = HashSet::new();
        for g in &p.groups {
            for &n in g {
                assert_eq!(ddg.inst(n), inst);
                assert!(seen.insert(n), "node {n} appears in two partitions");
            }
        }
        let total = ddg
            .candidate_nodes()
            .filter(|&n| ddg.inst(n) == inst)
            .count();
        assert_eq!(seen.len(), total);
    }
}

#[test]
fn interleaved_distance2_recurrence_gets_pairs() {
    // a[i] = a[i-2] + b[i]: two independent chains (even/odd); each
    // timestamp class holds exactly 2 instances.
    let (_, ddg) = program_ddg(
        r#"
        const int N = 22;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = 1.0; }
            for (int i = 2; i < N; i++) { a[i] = a[i-2] + b[i]; }
        }
    "#,
    );
    let insts = ddg.candidate_insts();
    let p = partition(&ddg, insts[0], &HashSet::new());
    assert_eq!(p.groups.len(), 10);
    assert!(p.groups.iter().all(|g| g.len() == 2), "{:?}", p.groups);
}

#[test]
fn subtrace_equals_paper_unit_of_analysis() {
    // The loop sub-trace must contain exactly the loop's own work: for a
    // 3-instance loop nest, each inner instance has N candidate ops.
    let src = r#"
        const int R = 3;
        const int N = 20;
        double a[N];
        void main() {
            for (int r = 0; r < R; r++)
                for (int i = 0; i < N; i++)
                    a[i] = a[i] + 1.0;
        }
    "#;
    let module = vectorscope_frontend::compile("s.kern", src).unwrap();
    let main_fn = module.lookup_function("main").unwrap();
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(main_fn));
    let (inner, _) = forest.iter().find(|(_, l)| l.is_innermost()).unwrap();
    for instance in 0..3u64 {
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Loop {
                func: main_fn,
                loop_id: inner,
                instance,
            },
            "inner",
        );
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        let ddg = Ddg::build(&module, &trace);
        assert_eq!(ddg.candidate_nodes().count(), 20, "instance {instance}");
    }
}

#[test]
fn instance_pick_index_vs_representative() {
    // A loop whose first instance does no FP work: Representative sampling
    // must find a working instance, Index(0) reports none.
    let src = r#"
        const int N = 16;
        double a[N];
        int gate = 0;
        void inner(int on) {
            for (int i = 0; i < N; i++) {
                if (on == 1) { a[i] = a[i] + 1.0; }
            }
        }
        void main() {
            inner(0);
            inner(1);
            inner(1);
            inner(1);
        }
    "#;
    let module = vectorscope_frontend::compile("pick.kern", src).unwrap();
    let inner_fn = module.lookup_function("inner").unwrap();
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(inner_fn));
    let (loop_id, _) = forest.iter().next().unwrap();

    let first = vectorscope::analyze_loop(
        &module,
        inner_fn,
        loop_id,
        &AnalysisOptions {
            loop_instance: InstancePick::Index(0),
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(first.report.metrics.total_ops, 0);

    let representative = vectorscope::analyze_loop(
        &module,
        inner_fn,
        loop_id,
        &AnalysisOptions {
            loop_instance: InstancePick::Representative(4),
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(representative.report.metrics.total_ops, 16);
}

/// `analyze_loop` plans one loop through the same capture core as
/// `analyze_source`, so its report is that loop's suite row byte for byte
/// and its DDG is the graph the row counted. The two take different
/// paths — `analyze_loop` builds each sub-trace's DDG, `analyze_source`
/// replays it without one unless reductions are broken — so this is the
/// cross-path check, under both candidate policies, with and without
/// broken reductions.
#[test]
fn analyze_loop_equals_the_suite_row() {
    for break_reductions in [false, true] {
        for include_integer_ops in [false, true] {
            let options = AnalysisOptions {
                threads: 1,
                break_reductions,
                include_integer_ops,
                ..AnalysisOptions::default()
            };
            for k in vectorscope_kernels::all_kernels() {
                let suite = analyze_source(&k.file_name(), &k.source, &options)
                    .unwrap_or_else(|e| panic!("{}: {e}", k.file_name()));
                for row in &suite.loops {
                    let at = format!(
                        "{} (break_reductions {break_reductions}, \
                         include_integer_ops {include_integer_ops})",
                        row.location()
                    );
                    let analysis = analyze_loop(&suite.module, row.func, row.loop_id, &options)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(
                        loop_report_json(&analysis.report),
                        loop_report_json(row),
                        "{at}"
                    );
                    assert_eq!(analysis.ddg.len(), row.ddg_nodes, "{at}");
                }
            }
        }
    }
}

#[test]
fn hot_loops_respect_threshold() {
    let src = r#"
        const int N = 300;
        double a[N];
        double warm = 0.0;
        void main() {
            // One dominant loop and one tiny one.
            for (int i = 0; i < N; i++) { a[i] = a[i] * 1.5 + 0.25; }
            for (int i = 0; i < 3; i++) { warm = warm + a[i]; }
        }
    "#;
    let strict = analyze_source(
        "h.kern",
        src,
        &AnalysisOptions {
            hot_threshold_pct: 50.0,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(strict.loops.len(), 1);
    let lax = analyze_source(
        "h.kern",
        src,
        &AnalysisOptions {
            hot_threshold_pct: 0.5,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert!(lax.loops.len() >= 2);
    for w in lax.loops.windows(2) {
        assert!(
            w[0].percent_cycles >= w[1].percent_cycles,
            "rows not sorted"
        );
    }
}

#[test]
fn trace_file_roundtrip_preserves_analysis() {
    let src = r#"
        const int N = 32;
        double a[N];
        void main() {
            for (int i = 0; i < N; i++) { a[i] = a[i] + 2.0; }
        }
    "#;
    let module = vectorscope_frontend::compile("rt.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "rt");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();

    let bytes = trace.to_bytes();
    let reloaded = vectorscope_trace::Trace::from_bytes(&bytes).unwrap();

    let d1 = Ddg::build(&module, &trace);
    let d2 = Ddg::build(&module, &reloaded);
    assert_eq!(d1.len(), d2.len());
    let i1 = d1.candidate_insts();
    let p1 = partition(&d1, i1[0], &HashSet::new());
    let p2 = partition(&d2, i1[0], &HashSet::new());
    assert_eq!(p1, p2);
}

#[test]
fn moderate_scale_program_analyzes_in_bounds() {
    // A ~300k-event whole-program trace: the pipeline must stay linear.
    let src = r#"
        const int N = 64;
        const int T = 2;
        double a[N][N];
        void main() {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = (double)((i * 13 + j * 7) % 17) * 0.05;
            for (int t = 0; t < T; t++)
                for (int i = 1; i < N - 1; i++)
                    for (int j = 1; j < N - 1; j++)
                        a[i][j] = (a[i-1][j] + a[i][j-1] + a[i][j+1] + a[i+1][j]) * 0.25;
        }
    "#;
    let module = vectorscope_frontend::compile("big.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "big");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    assert!(trace.len() > 200_000, "trace has {} events", trace.len());
    let ddg = Ddg::build(&module, &trace);
    assert_eq!(
        ddg.len(),
        trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, vectorscope_trace::EventKind::Plain { .. }))
            .count()
    );
    // Analyze every candidate; partitions must cover all instances.
    for inst in ddg.candidate_insts() {
        let p = partition(&ddg, inst, &HashSet::new());
        assert!(p.num_instances() > 0);
    }
}

/// Every bundled kernel's sampled sub-traces, grouped per hot loop (four
/// instances spread over the run of each loop at or above 10% of cycles,
/// as `analyze_source` samples them).
fn sampled_per_loop(module: &vectorscope_ir::Module) -> Vec<Vec<vectorscope_trace::Trace>> {
    let mut profile = Vm::new(module);
    profile.run_main().unwrap();
    let hot = profile
        .profiler()
        .hot_loops(module, profile.forests(), 10.0);
    let mut capture = Vm::new(module);
    let mut per_loop = Vec::new();
    for h in hot {
        let entries = h.profile.entries;
        let mut instances: Vec<u64> = (0..4).map(|s| s * entries / 4).collect();
        instances.dedup();
        per_loop.push(instances.len());
        for instance in instances {
            let spec = CaptureSpec::Loop {
                func: h.profile.key.func,
                loop_id: h.profile.key.loop_id,
                instance,
            };
            capture.add_capture(spec, &h.profile.func_name);
        }
    }
    capture.capture_main().unwrap();
    let mut traces = capture.take_traces().into_iter();
    per_loop
        .into_iter()
        .map(|n| traces.by_ref().take(n).collect())
        .collect()
}

/// The retired analyse-all pick, kept as the oracle of the select-first
/// rule: of the analysed sub-traces (`None` for empty ones), the earliest
/// with the largest `total_ops`.
fn analyse_all_pick(total_ops: &[Option<u64>]) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (i, &ops) in total_ops.iter().enumerate() {
        let Some(ops) = ops else { continue };
        if best.is_none_or(|(_, b)| ops > b) {
            best = Some((i, ops));
        }
    }
    best.map(|(i, _)| i)
}

/// Selecting before analysing keeps the sub-trace that analysing every
/// sampled one would keep: each sub-trace's candidate-event count equals
/// the `total_ops` Algorithm 1 reports for it, and the pick equals the
/// analyse-all pick, on every bundled kernel under both candidate
/// policies, with reductions broken and not.
#[test]
fn select_first_pick_equals_the_analyse_all_pick() {
    use vectorscope::metrics::{analyze_ddg, MetricOptions};
    use vectorscope::{representative, CandidatePolicy};
    use vectorscope_ddg::replay::CandidateCounter;
    let mut picks = 0;
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let module = kernel.compile().unwrap();
        for traces in sampled_per_loop(&module) {
            for policy in [
                CandidatePolicy::FloatArith,
                CandidatePolicy::IntAndFloatArith,
            ] {
                let counter = CandidateCounter::new(&module, policy);
                let ddgs: Vec<Option<Ddg>> = traces
                    .iter()
                    .map(|t| {
                        let ddg = || Ddg::try_build_with_policy(&module, t, policy).unwrap();
                        (!t.is_empty()).then(ddg)
                    })
                    .collect();
                for break_reductions in [false, true] {
                    let options = MetricOptions {
                        break_reductions,
                        threads: 1,
                    };
                    let at = format!("{name} ({policy:?}, break_reductions={break_reductions})");
                    let mut total_ops = Vec::new();
                    for (trace, ddg) in traces.iter().zip(&ddgs) {
                        let ops = ddg.as_ref().map(|ddg| {
                            let ops = analyze_ddg(&module, ddg, &options).0.total_ops;
                            assert_eq!(counter.count(trace.events()), ops, "{at}");
                            ops
                        });
                        total_ops.push(ops);
                    }
                    let pick = representative(&traces, &counter);
                    assert_eq!(pick, analyse_all_pick(&total_ops), "{at}");
                    picks += 1;
                }
            }
        }
    }
    assert_eq!(picks, 82 * 4);
}
