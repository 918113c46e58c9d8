//! Differential tests for the streaming analysis engine.
//!
//! [`StreamingAnalyzer`] replays trace events through the dependence
//! replay core without building a DDG. `analyze_source` runs it over every
//! sampled hot-loop sub-trace and `stream_program` over a whole run fed
//! live by the VM. Its contract is that reports are **byte-identical** to
//! Algorithm 1 over the batch DDG of the same events. These tests enforce
//! that over every bundled kernel's sampled mid-run sub-traces, over
//! proptest-generated random programs and over whole runs — plus
//! regression tests pinning the overlapping-store dependence fix, bounded
//! register state and malformed-trace errors in *both* engines.

use proptest::prelude::*;
use vectorscope::metrics::{analyze_ddg, MetricOptions};
use vectorscope::{
    analyze_program, stream_program, AnalysisOptions, CandidatePolicy, StreamingAnalyzer,
};
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_ir::Module;
use vectorscope_trace::Trace;

/// The non-empty sub-traces `analyze_source` analyzes for `module`: four
/// instances spread over the run of every loop at or above `hot_pct` of
/// cycles, captured in one run.
fn sampled_subtraces(module: &Module, hot_pct: f64) -> Vec<Trace> {
    let mut vm = Vm::new(module);
    vm.run_main().unwrap();
    let hot = vm.profiler().hot_loops(module, vm.forests(), hot_pct);
    let mut capture = Vm::new(module);
    for h in hot {
        let entries = h.profile.entries;
        let mut instances: Vec<u64> = (0..4).map(|s| s * entries / 4).collect();
        instances.dedup();
        for instance in instances {
            let spec = CaptureSpec::Loop {
                func: h.profile.key.func,
                loop_id: h.profile.key.loop_id,
                instance,
            };
            capture.add_capture(spec, &h.profile.func_name);
        }
    }
    capture.run_main().unwrap();
    let mut traces = capture.take_traces();
    traces.retain(|t| !t.is_empty());
    traces
}

/// Asserts that replaying `trace` through [`StreamingAnalyzer`] gives
/// exactly the metrics, per-instruction rows and node count of Algorithm 1
/// over its DDG, under both candidate policies and at 1, 2 and 7 stride
/// threads. Returns a description of the first difference.
fn replay_matches_ddg(module: &Module, trace: &Trace) -> Result<(), String> {
    for policy in [
        CandidatePolicy::FloatArith,
        CandidatePolicy::IntAndFloatArith,
    ] {
        let ddg = vectorscope_ddg::Ddg::try_build_with_policy(module, trace, policy).unwrap();
        for threads in [1usize, 2, 7] {
            let options = MetricOptions {
                break_reductions: false,
                threads,
            };
            let (metrics, per_inst) = analyze_ddg(module, &ddg, &options);
            let mut analyzer = StreamingAnalyzer::new(module, policy);
            for event in trace {
                analyzer.consume(event);
            }
            let streamed = analyzer.finish(&options).unwrap();
            let at = format!("{} ({policy:?}, {threads} threads)", trace.name());
            if streamed.metrics != metrics {
                return Err(format!("{at}: metrics diverged"));
            }
            if streamed.per_inst != per_inst {
                return Err(format!("{at}: per-instruction rows diverged"));
            }
            if streamed.nodes != ddg.len() {
                return Err(format!("{at}: node count diverged"));
            }
        }
    }
    Ok(())
}

/// Every sampled hot-loop sub-trace of every bundled kernel — mid-run
/// regions whose first events read values written before the capture
/// began — replays to the batch engine's exact metrics.
#[test]
fn every_bundled_kernel_is_byte_identical_to_the_batch_engine() {
    let mut subtraces = 0;
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        for trace in sampled_subtraces(&module, 10.0) {
            if let Err(e) = replay_matches_ddg(&module, &trace) {
                panic!("{name}: {e}");
            }
            subtraces += 1;
        }
    }
    assert!(subtraces > 100, "only {subtraces} sub-traces sampled");
}

/// The streaming engine inherits the determinism contract: whole-run
/// reports *and* observability counters are identical at 1, 2, and 7
/// threads (7 exceeds the shard count of most kernels, exercising
/// over-subscription).
#[test]
fn streaming_reports_and_stats_are_identical_at_1_2_and_7_threads() {
    for kernel in vectorscope_kernels::studies::kernels().into_iter().take(4) {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        let outcomes: Vec<_> = [1usize, 2, 7]
            .into_iter()
            .map(|threads| {
                let options = AnalysisOptions {
                    threads,
                    ..AnalysisOptions::default()
                };
                stream_program(&module, &options)
                    .unwrap_or_else(|e| panic!("{name} failed to stream: {e}"))
            })
            .collect();
        for o in &outcomes[1..] {
            assert_eq!(outcomes[0].metrics, o.metrics, "{name}: metrics diverged");
            assert_eq!(
                outcomes[0].per_inst, o.per_inst,
                "{name}: per-inst diverged"
            );
            assert_eq!(outcomes[0].nodes, o.nodes, "{name}: node count diverged");
            assert_eq!(outcomes[0].stats, o.stats, "{name}: stream stats diverged");
        }
        assert!(outcomes[0].stats.events > 0, "{name}: no events streamed");
        assert!(
            outcomes[0].stats.peak_resident_bytes() > 0,
            "{name}: no resident state accounted"
        );
    }
}

/// Whole-program streaming must agree with the batch whole-program
/// analysis ([`analyze_program`]) on metrics, per-instruction rows, and
/// node count.
#[test]
fn stream_program_matches_analyze_program() {
    for kernel in vectorscope_kernels::studies::kernels().into_iter().take(4) {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        let options = AnalysisOptions {
            threads: 1,
            ..AnalysisOptions::default()
        };
        let batch = analyze_program(&module, &options)
            .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
        let streamed = stream_program(&module, &options)
            .unwrap_or_else(|e| panic!("{name} failed to stream: {e}"));
        assert_eq!(batch.metrics, streamed.metrics, "{name}: metrics diverged");
        assert_eq!(
            batch.per_inst, streamed.per_inst,
            "{name}: per-inst diverged"
        );
        assert_eq!(
            batch.ddg.len(),
            streamed.nodes,
            "{name}: node count diverged"
        );
    }
}

/// Regression test for the overlapping-store dependence bug, pinned in
/// **both** engines.
///
/// Each iteration `i` first stores `a[i+1] = 0.0` (an exact-base store
/// carrying no candidate dependence), then overwrites half of that slot
/// through a float pointer with a value derived from this iteration's
/// multiply. Iteration `i+1` loads `a[i+1]`: under the fixed most-recent-
/// overlapping-writer rule the load depends on the float store and the
/// multiplies form a serial chain (8 singleton partitions); under the old
/// exact-base fast path the stale `0.0` store shadowed it and the
/// multiplies looked embarrassingly parallel (1 partition of size 8).
#[test]
fn overlapping_store_serializes_the_chain_in_both_engines() {
    let src = r#"
        const int N = 8;
        double a[9];
        double out = 0.0;
        void main() {
            a[0] = 0.5;
            for (int i = 0; i < N; i++) {
                double v = a[i] * 2.0;
                a[i+1] = 0.0;
                double* p = a;
                int q = (int)p + (i+1)*8 + 4;
                float* f = (float*)q;
                f[0] = (float)v;
            }
            out = a[N];
        }
    "#;
    let module = vectorscope_frontend::compile("chain.kern", src).unwrap();
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let batch = analyze_program(&module, &options).unwrap();
    let streamed = stream_program(&module, &options).unwrap();
    for (engine, per_inst) in [
        ("batch", &batch.per_inst),
        ("streaming", &streamed.per_inst),
    ] {
        assert_eq!(per_inst.len(), 1, "{engine}: expected exactly the fmul");
        let m = &per_inst[0];
        assert_eq!(m.instances, 8, "{engine}: fmul instance count");
        assert_eq!(
            m.partitions, 8,
            "{engine}: the aliased float store must serialize the multiply \
             chain (old exact-base fast path reported 1 partition)"
        );
        assert_eq!(
            m.avg_partition_size, 1.0,
            "{engine}: partitions are singletons"
        );
    }
    assert_eq!(batch.metrics, streamed.metrics);
}

/// A loop calling a three-line function `calls` times, as a compiled
/// module.
fn calling_module(calls: u32) -> vectorscope_ir::Module {
    let src = format!(
        r#"
        double half_plus_one(double x) {{
            double y = x * 0.5;
            return y + 1.0;
        }}
        double out = 0.0;
        void main() {{
            for (int i = 0; i < {calls}; i++) {{ out = half_plus_one(out); }}
        }}
    "#
    );
    vectorscope_frontend::compile("calls.kern", &src).unwrap()
}

/// Regression test for the register-shadow leak: register state is kept
/// per activation and dropped at its return, so its peak depends on the
/// call depth, not on how many calls ran. (Keyed by `(activation,
/// register)` and never dropped, the streaming register shadows peaked at
/// 4,007, 16,007 and 64,007 entries for these call counts.)
#[test]
fn register_state_stays_constant_in_the_number_of_calls() {
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let mut stream_peaks = Vec::new();
    let mut ddg_peaks = Vec::new();
    for calls in [1_000, 4_000, 16_000] {
        let module = calling_module(calls);
        let outcome = stream_program(&module, &options).unwrap();
        assert_eq!(outcome.metrics.total_ops, 2 * calls as u64);
        stream_peaks.push(outcome.stats.peak_reg_shadow);

        let mut vm = vectorscope_interp::Vm::new(&module);
        vm.set_capture(vectorscope_interp::CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm);
        let ddg = vectorscope_ddg::Ddg::build(&module, &trace);
        let stats = ddg.replay_stats();
        ddg_peaks.push((stats.peak_frames, stats.peak_reg_slots));
    }
    assert!(
        stream_peaks.iter().all(|&p| p == stream_peaks[0]),
        "streaming register shadows grow with the call count: {stream_peaks:?}"
    );
    assert!(
        ddg_peaks.iter().all(|&p| p == ddg_peaks[0]),
        "DDG replay frames grow with the call count: {ddg_peaks:?}"
    );
    assert_eq!(ddg_peaks[0].0, 2, "main plus one callee frame at a time");
    assert_eq!(
        ddg_peaks[0].1, stream_peaks[0],
        "both sinks share the frames"
    );
}

/// `y = x * 2.0` on two global doubles, compiled, with the static ids of
/// its load, multiply and store.
fn scale_module() -> (vectorscope_ir::Module, [vectorscope_ir::InstId; 3]) {
    use vectorscope_ir::InstKind;
    let src = "double x; double y; void main() { y = x * 2.0; }";
    let module = vectorscope_frontend::compile("scale.kern", src).unwrap();
    let main = module.function(module.lookup_function("main").unwrap());
    let insts: Vec<_> = main.blocks().iter().flat_map(|b| &b.insts).collect();
    let find = |want: fn(&InstKind) -> bool| insts.iter().find(|i| want(&i.kind)).unwrap().id;
    let ids = [
        find(|k| matches!(k, InstKind::Load { .. })),
        find(|k| matches!(k, InstKind::Bin { .. })),
        find(|k| matches!(k, InstKind::Store { .. })),
    ];
    (module, ids)
}

/// Streams `trace` through a fresh [`StreamingAnalyzer`].
fn stream_trace(
    module: &vectorscope_ir::Module,
    trace: &vectorscope_trace::Trace,
) -> Result<vectorscope::StreamOutcome, vectorscope_ddg::BuildError> {
    let mut analyzer = StreamingAnalyzer::new(module, CandidatePolicy::FloatArith);
    for event in trace {
        analyzer.consume(event);
    }
    analyzer.finish(&MetricOptions::default())
}

/// A decodable trace whose load or store event has no address is
/// rejected with a typed error naming the event, by both entry points.
#[test]
fn address_less_memory_events_are_typed_errors_in_both_engines() {
    use vectorscope_trace::{Trace, TraceEvent};
    let (module, [load, mul, store]) = scale_module();
    for (bad, index) in [(load, 2), (store, 2)] {
        let mut trace = Trace::new("bad");
        trace.push(TraceEvent::plain(load, 0, Some(0x100)));
        trace.push(TraceEvent::plain(mul, 0, None));
        trace.push(TraceEvent::plain(bad, 0, None));
        trace.push(TraceEvent::plain(store, 0, Some(0x108)));
        let expected = vectorscope_ddg::BuildError::MissingAddress {
            event: index,
            inst: bad,
        };
        assert_eq!(
            vectorscope_ddg::Ddg::try_build(&module, &trace).err(),
            Some(expected.clone())
        );
        assert_eq!(stream_trace(&module, &trace).err(), Some(expected));
    }
}

/// An 8-byte store whose base lies in the last 7 bytes of one memory
/// shadow page overlaps a load at the next page's first byte (and, the
/// other way round, a store at a page's first byte overlaps an 8-byte load
/// based in the previous page's last 7 bytes); both sinks must resolve the
/// load to that store, serializing the two multiplies.
#[test]
fn a_store_straddling_a_shadow_page_feeds_the_next_pages_first_byte() {
    use vectorscope_ddg::replay::PAGE_BYTES;
    use vectorscope_trace::{Trace, TraceEvent};
    let (module, [load, mul, store]) = scale_module();
    let page = 3 * PAGE_BYTES;
    let straddling = (1..=7).map(|offset| (page - offset, page));
    let reaching_back = (1..=7).map(|offset| (page, page - offset));
    for (store_at, load_at) in straddling.chain(reaching_back) {
        let mut trace = Trace::new("straddle");
        trace.push(TraceEvent::plain(load, 0, Some(0x100)));
        trace.push(TraceEvent::plain(mul, 0, None));
        trace.push(TraceEvent::plain(store, 0, Some(store_at)));
        trace.push(TraceEvent::plain(load, 0, Some(load_at)));
        trace.push(TraceEvent::plain(mul, 0, None));
        trace.push(TraceEvent::plain(store, 0, Some(0x108)));

        let ddg = vectorscope_ddg::Ddg::try_build(&module, &trace).unwrap();
        assert_eq!(
            ddg.operand_writers(3)[1],
            2,
            "store at {store_at:#x}: the load's memory writer"
        );
        let streamed = stream_trace(&module, &trace).unwrap();
        assert_eq!(streamed.per_inst.len(), 1);
        assert_eq!(
            streamed.per_inst[0].partitions, 2,
            "store at {store_at:#x}: the multiplies form a chain"
        );
        let (batch, _) =
            vectorscope::metrics::analyze_ddg(&module, &ddg, &MetricOptions::default());
        assert_eq!(batch, streamed.metrics);
    }
}

/// Emits a random-but-valid Kern program covering every engine path —
/// unit stride, non-unit stride, reversed access, reductions, serial
/// chains (the determinism suite's grammar).
fn random_program(n: u64, stmts: &[u8]) -> String {
    let m = n * 4 + 2;
    let mut body = String::new();
    for s in stmts {
        let line = match s % 7 {
            0 => "a[i] = b[i] + c[i];",
            1 => "a[i] = b[i] * c[i] - b[i];",
            2 => "a[i*2] = b[i*2] * 2.0;",
            3 => "a[i] = a[i] + b[i*3];",
            4 => "acc += b[i] * c[i];",
            5 => "a[i+1] = a[i] * 0.5;",
            _ => "c[i] = b[i] * b[i];",
        };
        body.push_str("        ");
        body.push_str(line);
        body.push('\n');
    }
    format!(
        r#"
const int N = {n};
const int M = {m};
double a[M]; double b[M]; double c[M]; double s = 0.0;
void main() {{
    for (int i = 0; i < M; i++) {{
        b[i] = (double)i * 0.5;
        c[i] = (double)(i + 3) * 0.25;
    }}
    double acc = 0.0;
    for (int i = 0; i < N; i++) {{
{body}    }}
    s = acc;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every sampled hot-loop sub-trace of a random program replays to the
    /// batch engine's exact metrics, under both candidate policies and at
    /// every thread count.
    #[test]
    fn random_programs_stream_identically_to_the_batch_engine(
        n in 4u64..48,
        stmts in prop::collection::vec(0u8..7, 1..6),
    ) {
        let source = random_program(n, &stmts);
        let module = vectorscope_frontend::compile("rand.kern", &source)
            .unwrap_or_else(|e| panic!("generated program failed: {e}\n{source}"));
        // Random bodies spread cycles thinly; sample every loop above 1%.
        let traces = sampled_subtraces(&module, 1.0);
        prop_assert!(!traces.is_empty(), "no sub-trace sampled for:\n{}", source);
        for trace in &traces {
            let checked = replay_matches_ddg(&module, trace);
            prop_assert!(checked.is_ok(), "{} for:\n{}", checked.unwrap_err(), source);
        }
    }
}
