//! The dependence-replay core shared by the batch DDG builder and the
//! streaming analyzer.
//!
//! [`Replay`] resolves every operand of every dynamic instance to its most
//! recent producer — through the registers of the event's activation,
//! through memory, and across calls and returns — and hands the producers
//! to a [`Sink`], which decides what a producer *is*: a node id for the
//! batch DDG ([`crate::Ddg`]), Algorithm 1 timestamp lanes for the
//! streaming engine (`vectorscope::stream`). The core owns, once for both,
//! a dense per-instruction-id table; one register frame per live
//! activation, pushed on `Call` and popped on the matching `Ret` (the VM
//! never reuses an activation id, so register state stays bounded by the
//! call depth); one paged memory shadow with its
//! most-recent-overlapping-writer resolver; and the sequence numbers (the
//! batch node ids) with their `u32` node-id and CSR operand-array bounds.

use crate::{checked_node_id, BuildError, CandidatePolicy};
use std::collections::HashMap;
use vectorscope_ir::{InstId, InstKind, Module, TermKind, Value};
use vectorscope_trace::{EventKind, TraceEvent};

/// "None" in the instruction table and the shadow pages: no register (an
/// immediate, or a register outside its function's file), call or entry.
const NONE: u32 = u32::MAX;

/// Byte addresses covered by one memory-shadow page.
pub const PAGE_BYTES: u64 = 4096;

/// What a node-producing instruction is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// A memory read.
    Load,
    /// A memory write.
    Store,
    /// A characterized arithmetic instance (see [`CandidatePolicy`]).
    Candidate,
    /// Produces a floating-point value but is not a candidate (FP copies,
    /// negation, intrinsics, int-to-float casts).
    FloatOther,
    /// Anything else.
    Other,
}

/// A producer payload kept in a register slot or memory-shadow entry;
/// `Default` is "no producer inside the trace".
pub trait Payload: Default + Clone {
    /// Heap bytes owned by `self`, counted in the resident state.
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Payload for () {}

impl<T: Clone> Payload for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// Consumer of resolved dependences. For every node-producing event the
/// core calls [`Sink::node`], then moves the result into the destination
/// register ([`Sink::write_reg`]) or, for stores, the memory cell
/// ([`Sink::write_mem`]); the steps are separate because the destination
/// register may also be an operand.
pub trait Sink {
    /// Payload of a register's last writer.
    type Reg: Payload;
    /// Payload of a memory cell's last store.
    type Mem: Payload;

    /// One dynamic instance.
    fn node(&mut self, node: &Node<'_, Self::Reg, Self::Mem>);

    /// Stores the last node's result as a register's producer.
    fn write_reg(&mut self, dst: &mut Self::Reg);

    /// Stores the last node's result as a memory cell's producer.
    fn write_mem(&mut self, dst: &mut Self::Mem);
}

/// One dynamic instance with its producers resolved.
pub struct Node<'a, R, M> {
    /// The static instruction.
    pub inst: InstId,
    /// Its class.
    pub class: NodeClass,
    /// Access size for loads and stores, element size for candidates.
    pub size: u8,
    /// The dynamic address for loads and stores, 0 otherwise.
    pub addr: u64,
    /// Loads only: the most recent store overlapping the read, as its
    /// sequence number and payload.
    pub mem: Option<(u32, &'a M)>,
    uses: &'a [u32],
    frame: &'a [R],
    none: &'a R,
}

impl<'a, R, M> Node<'a, R, M> {
    /// The producer of each operand in operand order (`Default` for
    /// immediates and values produced outside the trace).
    pub fn operands(&self) -> impl ExactSizeIterator<Item = &'a R> + 'a {
        let (frame, none) = (self.frame, self.none);
        self.uses
            .iter()
            .map(move |&r| frame.get(r as usize).unwrap_or(none))
    }
}

/// Resident-state counters of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Events consumed (plain + call + ret).
    pub events: u64,
    /// Node-producing instances (the batch DDG's node count).
    pub nodes: u64,
    /// Peak activations holding a register frame.
    pub peak_frames: usize,
    /// Peak register slots across the live frames.
    pub peak_reg_slots: usize,
    /// Peak memory cells with a recorded last store.
    pub peak_mem_cells: usize,
    /// Peak resident bytes: shadow pages and their index, the memory entry
    /// slab, register frame vectors and the heap owned by payloads.
    pub peak_bytes: usize,
}

/// Static facts about one instruction id (all `None` for unknown ids).
#[derive(Debug, Clone, Copy, Default)]
struct Desc {
    /// The node its `Plain` events create (`None` for terminators).
    class: Option<NodeClass>,
    size: u8,
    dst: Option<u32>,
    /// Operands (call arguments for calls) at `regs[uses.0..uses.1]`.
    uses: (u32, u32),
    /// Calls: the callee's parameters at `regs[params..]`, one per use.
    params: Option<u32>,
    /// `ret` terminators: the returned register.
    ret: Option<u32>,
}

/// The dense instruction table and its flat register lists.
fn describe(module: &Module, policy: CandidatePolicy) -> (Vec<Desc>, Vec<u32>) {
    let (mut descs, mut regs) = (Vec::new(), Vec::new());
    let mut set = |id: InstId, desc| {
        if id.index() >= descs.len() {
            descs.resize(id.index() + 1, Desc::default());
        }
        descs[id.index()] = desc;
    };
    let reg_in = |f: &vectorscope_ir::Function, v: Value| match v {
        Value::Reg(r) if r.index() < f.num_regs() => Some(r.0),
        _ => None,
    };
    for func in module.functions() {
        for block in func.blocks() {
            for inst in &block.insts {
                let mut d = Desc::default();
                d.uses.0 = regs.len() as u32;
                inst.for_each_use(|v| regs.push(reg_in(func, v).unwrap_or(NONE)));
                d.uses.1 = regs.len() as u32;
                if let InstKind::Call { callee, .. } = &inst.kind {
                    // Parameters are the first registers of the callee's file.
                    let callee = module.functions().get(callee.index());
                    let params = callee.map_or(&[][..], |f| f.params());
                    d.params = Some(regs.len() as u32);
                    let n = (d.uses.1 - d.uses.0) as usize;
                    regs.extend((0..n).map(|i| params.get(i).map_or(NONE, |p| p.0)));
                }
                let (class, size) = classify(&inst.kind, inst.is_fp_candidate(), policy);
                (d.class, d.size) = (Some(class), size);
                d.dst = inst.dst().and_then(|r| reg_in(func, Value::Reg(r)));
                set(inst.id, d);
            }
            if let Some(term) = &block.term {
                let ret = match term.kind {
                    TermKind::Ret(Some(v)) => reg_in(func, v),
                    _ => None,
                };
                set(
                    term.id,
                    Desc {
                        ret,
                        ..Desc::default()
                    },
                );
            }
        }
    }
    (descs, regs)
}

/// The node class and [`Node::size`] of a non-terminator instruction.
fn classify(kind: &InstKind, fp_candidate: bool, policy: CandidatePolicy) -> (NodeClass, u8) {
    let int_candidate = policy == CandidatePolicy::IntAndFloatArith;
    match *kind {
        InstKind::Load { ty, .. } => (NodeClass::Load, ty.size() as u8),
        InstKind::Store { ty, .. } => (NodeClass::Store, ty.size() as u8),
        InstKind::Bin { ty, .. } if fp_candidate || (int_candidate && ty.is_int()) => {
            (NodeClass::Candidate, ty.size() as u8)
        }
        InstKind::Cast { to: ty, .. }
        | InstKind::Un { ty, .. }
        | InstKind::Intrin { ty, .. }
        | InstKind::Bin { ty, .. }
            if ty.is_float() =>
        {
            (NodeClass::FloatOther, 0)
        }
        _ => (NodeClass::Other, 0),
    }
}

/// Counts the [`NodeClass::Candidate`] events of traces of one module,
/// without replaying their dependences: for a well-formed trace this is
/// its DDG's candidate node count, the `total_ops` Algorithm 1 reports
/// for it.
pub struct CandidateCounter {
    /// Whether each instruction id is a candidate.
    candidate: Vec<bool>,
}

impl CandidateCounter {
    /// A counter for traces of `module` under `policy`.
    pub fn new(module: &Module, policy: CandidatePolicy) -> Self {
        let mut candidate = vec![false; module.num_inst_ids()];
        for func in module.functions() {
            for block in func.blocks() {
                for inst in &block.insts {
                    let (class, _) = classify(&inst.kind, inst.is_fp_candidate(), policy);
                    candidate[inst.id.index()] = class == NodeClass::Candidate;
                }
            }
        }
        CandidateCounter { candidate }
    }

    /// The number of candidate instances among `events`.
    pub fn count(&self, events: &[TraceEvent]) -> u64 {
        let is_candidate = |e: &&TraceEvent| {
            matches!(e.kind, EventKind::Plain { .. })
                && self.candidate.get(e.inst.index()) == Some(&true)
        };
        events.iter().filter(is_candidate).count() as u64
    }
}

/// One activation's last-writer payload per register.
struct Frame<R> {
    act: u32,
    /// Set when a traced `Call` opened the frame: the caller's activation
    /// and the register receiving the returned value.
    link: Option<(u32, Option<u32>)>,
    regs: Vec<R>,
}

/// Register slots across the live frames, and the bytes of their vectors
/// plus the heap owned by all payloads.
#[derive(Default)]
struct Resident {
    slots: usize,
    bytes: usize,
}

impl Resident {
    /// Applies `write` to register `r` of `regs`, growing the frame.
    fn write_reg<R: Payload>(&mut self, regs: &mut Vec<R>, r: u32, write: impl FnOnce(&mut R)) {
        let r = r as usize;
        if r >= regs.len() {
            self.bytes -= regs.capacity() * std::mem::size_of::<R>();
            self.slots += r + 1 - regs.len();
            regs.resize_with(r + 1, R::default);
            self.bytes += regs.capacity() * std::mem::size_of::<R>();
        }
        self.write(&mut regs[r], write);
    }

    /// Applies `write` to `payload`, keeping `bytes` in step with its heap.
    fn write<P: Payload>(&mut self, payload: &mut P, write: impl FnOnce(&mut P)) {
        self.bytes -= payload.heap_bytes();
        write(payload);
        self.bytes += payload.heap_bytes();
    }
}

/// The last store at a base address.
struct MemEntry<M> {
    seq: u32,
    size: u8,
    payload: M,
}

/// Paged shadow of the most recent store per base address: a page maps
/// each of [`PAGE_BYTES`] consecutive bases to an index into the entry
/// slab, whose entries are updated in place. Pages stay sparse in a map
/// keyed by page number, so a store anywhere in the `u64` space costs one
/// page.
#[derive(Default)]
struct MemShadow<M> {
    index: HashMap<u64, usize>,
    pages: Vec<Box<[u32]>>,
    entries: Vec<MemEntry<M>>,
    /// The last page looked up, with its page number.
    last: (u64, Option<usize>),
}

impl<M: Payload> MemShadow<M> {
    fn page(&mut self, number: u64) -> Option<usize> {
        if self.last.0 != number {
            self.last = (number, self.index.get(&number).copied());
        }
        self.last.1
    }

    /// The entry recording a store of `size` bytes at `addr` as node `seq`.
    fn insert(&mut self, addr: u64, seq: u32, size: u8) -> &mut MemEntry<M> {
        let number = addr / PAGE_BYTES;
        let page = self.page(number).unwrap_or_else(|| {
            self.pages.push(vec![NONE; PAGE_BYTES as usize].into());
            self.index.insert(number, self.pages.len() - 1);
            self.last = (number, Some(self.pages.len() - 1));
            self.pages.len() - 1
        });
        let slot = &mut self.pages[page][(addr % PAGE_BYTES) as usize];
        if *slot == NONE {
            // Entries never outnumber nodes, whose ids are u32-checked.
            *slot = self.entries.len() as u32;
            let payload = M::default();
            self.entries.push(MemEntry { seq, size, payload });
        }
        let entry = &mut self.entries[*slot as usize];
        (entry.seq, entry.size) = (seq, size);
        entry
    }

    /// The most recent store overlapping the read `[addr, addr + size)`.
    ///
    /// Scans every base an overlapping store could be recorded under: the
    /// 7 bytes below `addr` (accesses are at most 8 bytes) and every byte
    /// of the read — at most 15 slots on at most two pages. All hits
    /// compete on recency (the largest sequence number); an exact-base hit
    /// gets no shortcut, because a newer store at a *different* base can
    /// overlap the read (mixed-size aliased stores). The window saturates
    /// at the ends of the `u64` space, and a store whose extent wraps past
    /// `u64::MAX` counts as overlapping (conservative; unreachable through
    /// the in-repo memory model).
    fn resolve(&mut self, addr: u64, size: u64) -> Option<usize> {
        let hi = addr.saturating_add(size.max(1) - 1);
        let mut best: Option<(u32, usize)> = None;
        let mut base = addr.saturating_sub(7);
        loop {
            let end = hi.min(base | (PAGE_BYTES - 1));
            if let Some(p) = self.page(base / PAGE_BYTES) {
                let slots =
                    &self.pages[p][(base % PAGE_BYTES) as usize..=(end % PAGE_BYTES) as usize];
                for (i, &e) in slots.iter().enumerate() {
                    let at = base + i as u64; // <= end: no overflow
                    let Some(entry) = self.entries.get(e as usize) else {
                        continue; // NONE: no store at this base
                    };
                    // `at <= hi` holds; overlap needs the store to reach `addr`.
                    let last = at.checked_add(u64::from(entry.size.max(1)) - 1);
                    if last.is_none_or(|l| l >= addr) && best.is_none_or(|(s, _)| entry.seq > s) {
                        best = Some((entry.seq, e as usize));
                    }
                }
            }
            if end == hi {
                return best.map(|(_, e)| e);
            }
            base = end + 1;
        }
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_BYTES as usize * std::mem::size_of::<u32>()
            + self.index.capacity() * std::mem::size_of::<(u64, usize)>()
            + self.entries.capacity() * std::mem::size_of::<MemEntry<M>>()
    }
}

/// The replay engine: feed it events with [`Replay::consume`], collect the
/// sink with [`Replay::finish`].
pub struct Replay<S: Sink> {
    descs: Vec<Desc>,
    /// Operand and parameter register lists of `descs`.
    regs: Vec<u32>,
    /// Live activations' frames, innermost last.
    frames: Vec<Frame<S::Reg>>,
    mem: MemShadow<S::Mem>,
    /// The "no producer" payload handed out for immediates.
    none: S::Reg,
    /// Operand-writer slots a CSR operand array would hold.
    operand_slots: usize,
    resident: Resident,
    error: Option<BuildError>,
    stats: ReplayStats,
    sink: S,
}

impl<S: Sink> Replay<S> {
    /// A replay of a trace of `module` into `sink`; `policy` decides which
    /// instructions are [`NodeClass::Candidate`]s.
    pub fn new(module: &Module, policy: CandidatePolicy, sink: S) -> Self {
        let (descs, regs) = describe(module, policy);
        Replay {
            descs,
            regs,
            frames: Vec::new(),
            mem: MemShadow::default(),
            none: S::Reg::default(),
            operand_slots: 0,
            resident: Resident::default(),
            error: None,
            stats: ReplayStats::default(),
            sink,
        }
    }

    /// Consumes the next event. Events whose instruction ids are unknown
    /// to the module create no nodes; the first malformed event (see
    /// [`BuildError`]) stops the replay and is returned by
    /// [`Replay::finish`].
    pub fn consume(&mut self, event: &TraceEvent) {
        let index = self.stats.events as usize;
        self.stats.events += 1;
        if self.error.is_some() {
            return;
        }
        let desc = self
            .descs
            .get(event.inst.index())
            .copied()
            .unwrap_or_default();
        match event.kind {
            EventKind::Plain { .. } => self.error = self.plain(index, event, &desc).err(),
            EventKind::Call {
                callee_activation: to,
            } => self.call(&desc, event.activation, to),
            EventKind::Ret => self.ret(&desc, event.activation),
        }
        let s = &mut self.stats;
        s.peak_frames = s.peak_frames.max(self.frames.len());
        s.peak_reg_slots = s.peak_reg_slots.max(self.resident.slots);
        s.peak_mem_cells = s.peak_mem_cells.max(self.mem.entries.len());
        let bytes = self.mem.resident_bytes() + self.resident.bytes;
        s.peak_bytes = s.peak_bytes.max(bytes);
    }

    /// Ends the replay, returning the sink and the counters.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] the trace raised.
    pub fn finish(self) -> Result<(S, ReplayStats), BuildError> {
        self.error.map_or(Ok((self.sink, self.stats)), Err)
    }

    /// The frame of `activation`, opening an unlinked one if the capture
    /// started inside it (or returned into it).
    fn frame(&mut self, act: u32) -> usize {
        let found = self.frames.iter().rposition(|f| f.act == act);
        found.unwrap_or_else(|| {
            let (link, regs) = (None, Vec::new());
            self.frames.push(Frame { act, link, regs });
            self.frames.len() - 1
        })
    }

    fn plain(&mut self, event: usize, ev: &TraceEvent, desc: &Desc) -> Result<(), BuildError> {
        let Some(class) = desc.class else {
            return Ok(()); // terminator or unknown: returns are `Ret` events
        };
        let inst = ev.inst;
        let missing = BuildError::MissingAddress { event, inst };
        let addr = match class {
            NodeClass::Load | NodeClass::Store => ev.addr().ok_or(missing)?,
            _ => 0,
        };
        let seq = checked_node_id(self.stats.nodes as usize)?;
        let n_uses = (desc.uses.1 - desc.uses.0) as usize;
        self.operand_slots += n_uses + usize::from(class == NodeClass::Load);
        checked_node_id(self.operand_slots)?;
        self.stats.nodes += 1;

        let f = self.frame(ev.activation);
        let uses = &self.regs[desc.uses.0 as usize..desc.uses.1 as usize];
        let mem = match class {
            NodeClass::Load => self.mem.resolve(addr, desc.size as u64),
            _ => None,
        };
        let mem = mem.map(|e| &self.mem.entries[e]);
        self.sink.node(&Node {
            inst,
            class,
            size: desc.size,
            addr,
            mem: mem.map(|e| (e.seq, &e.payload)),
            uses,
            frame: &self.frames[f].regs,
            none: &self.none,
        });
        let (res, sink) = (&mut self.resident, &mut self.sink);
        if class == NodeClass::Store {
            let entry = self.mem.insert(addr, seq, desc.size);
            res.write(&mut entry.payload, |p| sink.write_mem(p));
        } else if let Some(dst) = desc.dst {
            let regs = &mut self.frames[f].regs;
            res.write_reg(regs, dst, |p| sink.write_reg(p));
        }
        Ok(())
    }

    /// Opens the callee's frame: its parameters inherit the caller-side
    /// producers of the arguments (no call node: dependences pass through).
    fn call(&mut self, desc: &Desc, activation: u32, callee_activation: u32) {
        let Some(params) = desc.params else {
            return; // not a call instruction
        };
        let caller = self.frame(activation);
        let (res, mut regs) = (&mut self.resident, Vec::<S::Reg>::new());
        let args = &self.regs[desc.uses.0 as usize..desc.uses.1 as usize];
        for (i, &arg) in args.iter().enumerate() {
            let param = self.regs[params as usize + i];
            if let (Some(src), true) = (self.frames[caller].regs.get(arg as usize), param != NONE) {
                res.write_reg(&mut regs, param, |p| p.clone_from(src));
            }
        }
        let (act, link) = (callee_activation, Some((activation, desc.dst)));
        self.frames.push(Frame { act, link, regs });
    }

    /// Closes the innermost frame if `activation` owns it, handing the
    /// returned value's producer to the caller's destination register. A
    /// return from any other activation is mismatched linkage (capture
    /// started mid-call) and changes nothing.
    fn ret(&mut self, desc: &Desc, activation: u32) {
        if self.frames.last().map(|f| f.act) != Some(activation) {
            return;
        }
        let callee = self.frames.pop().expect("checked non-empty");
        if let Some((caller, Some(dst))) = callee.link {
            let f = self.frame(caller);
            let value = desc.ret.and_then(|r| callee.regs.get(r as usize));
            let value = value.unwrap_or(&self.none);
            let regs = &mut self.frames[f].regs;
            self.resident.write_reg(regs, dst, |p| p.clone_from(value));
        }
        let (res, regs) = (&mut self.resident, &callee.regs);
        res.slots -= regs.len();
        res.bytes -= regs.capacity() * std::mem::size_of::<S::Reg>();
        res.bytes -= regs.iter().map(Payload::heap_bytes).sum::<usize>();
    }
}
