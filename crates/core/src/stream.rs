//! Streaming bounded-memory analysis engine.
//!
//! The batch pipeline materializes the full trace (`Vec<TraceEvent>`) and
//! the full DDG (one node per dynamic instruction) before Algorithm 1 ever
//! runs, so peak memory is O(trace length) — the scalability wall the paper
//! itself acknowledges. But nothing downstream actually needs the graph:
//!
//! * **Algorithm 1 timestamps** are only ever read through *last-writer*
//!   lookups. A node's per-candidate timestamp vector matters exactly as
//!   long as the node is still the most recent writer of some register or
//!   memory cell; once overwritten, no future node can reach it (flow
//!   dependences only point at last writers), so its timestamps are dead.
//!   Keeping the timestamp lanes *inside* the register/memory shadow tables
//!   therefore preserves every reachable timestamp while bounding memory by
//!   the number of **live** locations, not executed instructions.
//! * **The §3.2/§3.3 stride scans** consume only each instance's operand
//!   *address tuple* and its partition. Subpartition structure is a
//!   function of the sorted tuple sequence alone: both engines sort with
//!   unique, execution-ordered tie-breakers (batch: node ids; streaming:
//!   within-partition indices), so a per-(candidate, timestamp) accumulator
//!   of raw tuples reproduces the batch group sizes exactly — node ids
//!   never leave the engine, so they are not needed.
//!
//! [`StreamingAnalyzer::consume`] is the push-style endpoint the VM's
//! [`vectorscope_interp::Vm::add_sink`] API feeds one event at a time. It
//! runs the batch DDG builder's own dependence replay (the
//! [`vectorscope_ddg::replay`] core) through a sink whose producers carry
//! timestamp lanes instead of node ids. [`StreamingAnalyzer::finish`] then
//! runs the shared stride core and metrics assembler, producing reports
//! **byte-identical** to [`crate::analyze_ddg`] over the batch DDG of the
//! same event stream.
//!
//! Peak resident state is `O(live registers + live memory cells +
//! candidate instances)`, where live registers are those of the
//! activations on the call stack — on the bundled kernels well below the
//! batch DDG footprint (see `BENCH_streaming.json`). [`StreamStats`]
//! exposes the observability counters (`vscope stats`).
//!
//! One deliberate non-feature: the reduction-breaking extension needs
//! whole-graph reduction chains *before* timestamping, which contradicts a
//! one-pass engine; the driver falls back to the batch engine when
//! `break_reductions` is requested.

use crate::metrics::{assemble, InstMetrics, LaneOutcome, LoopMetrics, MetricOptions};
use crate::stride::{analyze_sorted_tuples, SortedTuples, StrideReport};
use vectorscope_ddg::replay::{Node, NodeClass, Payload, Replay, Sink};
use vectorscope_ddg::{BuildError, CandidatePolicy};
use vectorscope_ir::{InstId, Module};
use vectorscope_trace::TraceEvent;

/// Observability counters of one streaming run.
///
/// The `peak_*` fields are the engine's memory story: the largest resident
/// shadow-table and accumulator footprint observed at any point of the
/// stream. They are reported through `vscope stats` and the `streaming`
/// bench — never inside analysis reports, whose bytes must stay identical
/// to the batch engine's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Trace events consumed (plain + call + ret).
    pub events: u64,
    /// Dynamic instruction instances seen (batch-DDG node count).
    pub nodes: u64,
    /// Candidate (FP/int arithmetic) instances accumulated.
    pub candidate_instances: u64,
    /// Peak register slots across the live activations' frames.
    pub peak_reg_shadow: usize,
    /// Peak memory cells with a recorded last store.
    pub peak_mem_shadow: usize,
    /// Peak resident replay-state bytes: memory-shadow pages and their
    /// index, the memory entry slab, register frame vectors and the
    /// timestamp-lane payloads they own.
    pub peak_shadow_bytes: usize,
    /// Peak resident stride-accumulator bytes (operand address tuples).
    pub peak_accumulator_bytes: usize,
    /// Partitions opened across all candidate lanes (each closes at
    /// `finish`).
    pub partitions: u64,
}

impl StreamStats {
    /// Total peak resident analysis state: shadow tables + accumulators.
    ///
    /// This is the number the streaming engine bounds, and what the
    /// `streaming` bench compares against the batch DDG footprint.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_shadow_bytes + self.peak_accumulator_bytes
    }
}

/// The result of [`StreamingAnalyzer::finish`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Aggregated table metrics — byte-identical to the batch engine's.
    pub metrics: LoopMetrics,
    /// Per-instruction breakdown — byte-identical to the batch engine's.
    pub per_inst: Vec<InstMetrics>,
    /// Dynamic instruction instances (what `ddg_nodes` reports).
    pub nodes: usize,
    /// Observability counters.
    pub stats: StreamStats,
}

/// A register's last writer, reduced to what downstream analyses can
/// still ask of it.
#[derive(Default, Clone)]
struct RegLanes {
    /// Its timestamp lanes (see [`Timestamps::scratch`]).
    lanes: Vec<u32>,
    /// The writer's dynamic address if it was a load, else 0 — exactly the
    /// contribution `Ddg::operand_addrs` derives from the writer node.
    load_addr: u64,
}

impl Payload for RegLanes {
    fn heap_bytes(&self) -> usize {
        self.lanes.heap_bytes()
    }
}

/// Online Algorithm 1 + stride analysis over a pushed event stream.
///
/// Create one per capture region, feed every [`TraceEvent`] to
/// [`consume`](Self::consume) (typically through
/// [`vectorscope_interp::Vm::add_sink`]), then call
/// [`finish`](Self::finish) for the report. See the module docs for the
/// equivalence argument; `tests/streaming.rs` holds the differential
/// proof against the batch engine.
pub struct StreamingAnalyzer<'m> {
    module: &'m Module,
    replay: Replay<Timestamps>,
}

impl<'m> StreamingAnalyzer<'m> {
    /// A fresh analyzer for one capture region of `module`.
    pub fn new(module: &'m Module, policy: CandidatePolicy) -> Self {
        StreamingAnalyzer {
            module,
            replay: Replay::new(module, policy, Timestamps::default()),
        }
    }

    /// Events consumed so far (0 means the capture never fired — the
    /// streaming equivalent of an empty trace).
    pub fn events(&self) -> u64 {
        self.replay.stats().events
    }

    /// Consumes one trace event, updating live state online.
    pub fn consume(&mut self, event: &TraceEvent) {
        self.replay.consume(event);
    }

    /// Closes the stream: runs the shared stride core over the accumulated
    /// partitions and assembles the report.
    ///
    /// `options.threads` fans the per-(candidate, partition) stride shards
    /// exactly like the batch engine; `options.break_reductions` is not
    /// supported here (the driver falls back to batch) and is ignored.
    ///
    /// # Errors
    ///
    /// Returns the replay's [`BuildError`] — a stream holding more
    /// instances than `u32` node ids can express, or a load or store event
    /// without an address — exactly as the batch builder does.
    pub fn finish(self, options: &MetricOptions) -> Result<StreamOutcome, BuildError> {
        let (sink, replay) = self.replay.finish()?;
        let (accum, elems, arities) = (&sink.accum, &sink.lane_elem, &sink.lane_arity);
        let shards: Vec<(usize, usize)> = accum
            .iter()
            .enumerate()
            .flat_map(|(l, gs)| (0..gs.len()).map(move |g| (l, g)))
            .collect();
        // Same fan-out discipline as `analyze_ddg`: results return in shard
        // order, so aggregation is byte-identical at every thread count.
        let reports: Vec<StrideReport> =
            rayon_lite::par_map(options.threads, &shards, |_, &(l, g)| {
                // The accumulator is already the flat key arena the stride
                // core wants; payload = within-partition index, unique and
                // in execution order, so the arena sort orders by tuple
                // exactly like the batch engine's (tuple, node id) sort.
                let arity = arities[l];
                let instances = (accum[l][g].len() / arity.max(1)) as u32;
                let tuples =
                    SortedTuples::from_flat(accum[l][g].clone(), (0..instances).collect(), arity);
                analyze_sorted_tuples(&tuples, elems[l])
            });
        let mut reports = reports.into_iter();
        let lanes: Vec<LaneOutcome> = sink
            .lane_insts
            .iter()
            .zip(accum.iter().zip(arities))
            .map(|(&inst, (groups, &arity))| {
                let instances: usize = groups.iter().map(|g| g.len() / arity).sum();
                LaneOutcome {
                    inst,
                    span: self.module.span_of(inst),
                    instances: instances as u64,
                    partitions: groups.len() as u64,
                    avg_partition_size: if groups.is_empty() {
                        0.0
                    } else {
                        instances as f64 / groups.len() as f64
                    },
                    reduction: false,
                    reports: (0..groups.len())
                        .map(|_| {
                            reports
                                .next()
                                .expect("one stride report per (lane, partition) shard")
                        })
                        .collect(),
                }
            })
            .collect();
        let words: usize = accum.iter().flatten().map(Vec::len).sum();
        let stats = StreamStats {
            events: replay.events,
            nodes: replay.nodes,
            candidate_instances: lanes.iter().map(|l| l.instances).sum(),
            peak_reg_shadow: replay.peak_reg_slots,
            peak_mem_shadow: replay.peak_mem_cells,
            peak_shadow_bytes: replay.peak_bytes,
            // Accumulators only grow, so their final size is their peak.
            peak_accumulator_bytes: 8 * words + shards.len() * std::mem::size_of::<Vec<u64>>(),
            partitions: shards.len() as u64,
        };
        let (metrics, per_inst) = assemble(lanes);
        Ok(StreamOutcome {
            metrics,
            per_inst,
            nodes: stats.nodes as usize,
            stats,
        })
    }
}

/// Element-wise `max` into `dst`, extending it with implicit zeros first.
fn max_into(dst: &mut Vec<u32>, src: &[u32]) {
    if src.len() > dst.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Marks an instruction without a candidate lane in [`Timestamps::lane_of`].
const NO_LANE: u32 = u32::MAX;

/// Algorithm 1 timestamps and operand tuples as a replay sink: every
/// producer carries its timestamp lanes, and a candidate instance's
/// timestamp is the max over its producers plus one.
#[derive(Default)]
struct Timestamps {
    // --- candidate lanes, created at first appearance (before a lane's
    // first instance every timestamp of that lane is 0, so late creation
    // loses nothing and reproduces `Ddg::candidate_insts` order).
    /// Lane per static instruction id ([`NO_LANE`] if none yet).
    lane_of: Vec<u32>,
    lane_insts: Vec<InstId>,
    lane_elem: Vec<u64>,
    /// Operand count of each lane's static instruction (fixed per lane —
    /// candidates are binary arithmetic), making the accumulators flat.
    lane_arity: Vec<usize>,
    /// `accum[lane][timestamp - 1]` collects the operand address tuples of
    /// that partition's instances, concatenated in execution order with
    /// stride `lane_arity[lane]` — 8 bytes per operand, no per-instance
    /// allocation or header.
    accum: Vec<Vec<Vec<u64>>>,
    /// The current instance's Algorithm 1 timestamp per candidate lane,
    /// without trailing zeros: lanes past the stored length are implicitly
    /// 0 (a timestamp is 0 until the lane's first candidate instance, so a
    /// writer that ran before it has lane value 0 by construction — the
    /// same argument that lets lanes be created lazily).
    scratch: Vec<u32>,
    /// The current instance's address-tuple contribution.
    load_addr: u64,
}

impl Sink for Timestamps {
    type Reg = RegLanes;
    type Mem = Vec<u32>;

    fn node(&mut self, node: &Node<'_, RegLanes, Vec<u32>>) {
        let lane = (node.class == NodeClass::Candidate).then(|| {
            if node.inst.index() >= self.lane_of.len() {
                self.lane_of.resize(node.inst.index() + 1, NO_LANE);
            }
            if self.lane_of[node.inst.index()] == NO_LANE {
                self.lane_of[node.inst.index()] = self.lane_insts.len() as u32;
                self.lane_insts.push(node.inst);
                self.lane_elem.push(node.size.into());
                self.lane_arity.push(node.operands().len());
                self.accum.push(Vec::new());
            }
            self.lane_of[node.inst.index()] as usize
        });
        let lanes = &mut self.scratch;
        lanes.clear();
        for producer in node.operands() {
            max_into(lanes, &producer.lanes);
        }
        if let Some((_, store)) = node.mem {
            max_into(lanes, store);
        }
        self.load_addr = if node.class == NodeClass::Load {
            node.addr
        } else {
            0
        };
        if let Some(lane) = lane {
            // Algorithm 1: this instance's timestamp is the max
            // predecessor timestamp plus one.
            if lanes.len() <= lane {
                lanes.resize(lane + 1, 0);
            }
            lanes[lane] += 1;
            let t = lanes[lane] as usize;
            let groups = &mut self.accum[lane];
            if groups.len() < t {
                groups.resize_with(t, Vec::new);
            }
            groups[t - 1].extend(node.operands().map(|p| p.load_addr));
        }
        lanes.truncate(lanes.iter().rposition(|&t| t != 0).map_or(0, |i| i + 1));
    }

    fn write_reg(&mut self, dst: &mut RegLanes) {
        dst.lanes.clone_from(&self.scratch);
        dst.load_addr = self.load_addr;
    }

    fn write_mem(&mut self, dst: &mut Vec<u32>) {
        dst.clone_from(&self.scratch);
    }
}
