//! Execution-trace event model for vectorscope.
//!
//! The tracing VM (crate `vectorscope-interp`) emits one [`TraceEvent`] per
//! executed instruction while capture is active; the DDG builder (crate
//! `vectorscope-ddg`) replays these events against the static IR to recover
//! the dynamic data-dependence graph. This mirrors the paper's pipeline,
//! where LLVM instrumentation writes a run-time trace that is analyzed
//! offline.
//!
//! An event records only what cannot be recovered statically:
//!
//! * which static instruction executed ([`TraceEvent::inst`]),
//! * in which function activation ([`TraceEvent::activation`]) — register
//!   dependences are scoped per activation, like LLVM virtual registers,
//! * the dynamic byte address touched by a load/store
//!   ([`EventKind::Plain`]'s `addr`),
//! * activation linkage for calls and returns, so dependences flow through
//!   arguments and return values across "multiple levels of function calls"
//!   (paper §4.2, the 444.namd discussion).
//!
//! Everything else (operand registers, operand kinds, element sizes, spans)
//! is looked up in the [`vectorscope_ir::Module`].
//!
//! # Example
//!
//! ```
//! use vectorscope_trace::{Trace, TraceEvent, EventKind};
//! use vectorscope_ir::InstId;
//!
//! let mut trace = Trace::new("demo");
//! trace.push(TraceEvent::plain(InstId(0), 0, None));
//! trace.push(TraceEvent::plain(InstId(1), 0, Some(0x100)));
//! let bytes = trace.to_bytes();
//! let back = Trace::from_bytes(&bytes).unwrap();
//! assert_eq!(back.events(), trace.events());
//! ```

#![deny(missing_docs)]

use vectorscope_ir::InstId;

/// What happened in a [`TraceEvent`] beyond the instruction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An ordinary instruction; `addr` carries the dynamic byte address for
    /// loads and stores (`None` for non-memory instructions).
    Plain {
        /// Dynamic address of the memory access, if any.
        addr: Option<u64>,
    },
    /// A call instruction; the callee's body executes in activation
    /// `callee_activation`.
    Call {
        /// Activation id assigned to the callee's frame.
        callee_activation: u32,
    },
    /// A return terminator ending the event's activation.
    Ret,
}

/// One executed dynamic instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static instruction this is an instance of.
    pub inst: InstId,
    /// Function activation the instruction executed in.
    pub activation: u32,
    /// Dynamic payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Creates an ordinary instruction event.
    pub fn plain(inst: InstId, activation: u32, addr: Option<u64>) -> Self {
        TraceEvent {
            inst,
            activation,
            kind: EventKind::Plain { addr },
        }
    }

    /// Creates a call event.
    pub fn call(inst: InstId, activation: u32, callee_activation: u32) -> Self {
        TraceEvent {
            inst,
            activation,
            kind: EventKind::Call { callee_activation },
        }
    }

    /// Creates a return event.
    pub fn ret(inst: InstId, activation: u32) -> Self {
        TraceEvent {
            inst,
            activation,
            kind: EventKind::Ret,
        }
    }

    /// The dynamic memory address, if this event is a load or store.
    pub fn addr(&self) -> Option<u64> {
        match self.kind {
            EventKind::Plain { addr } => addr,
            _ => None,
        }
    }
}

/// A captured (sub)trace: the event sequence in execution order.
///
/// Execution order is also a topological order of the dynamic
/// data-dependence graph — every producer precedes its consumers — which is
/// what makes the analysis a family of single forward scans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Name of the traced entity (module / function / loop), for reports.
    name: String,
    events: Vec<TraceEvent>,
}

// The parallel analysis engine hands captured traces across worker threads
// (one (loop, instance) sub-trace per worker); keep the hand-off types
// thread-portable by construction. Adding interior mutability or shared
// ownership to either type would break this at compile time, not at 2 a.m.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
    assert_send_sync::<TraceEvent>();
};

/// Error produced when decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: &[u8; 4] = b"VSTR";
const VERSION: u8 = 1;

impl Trace {
    /// Creates an empty trace labeled `name`.
    pub fn new(name: &str) -> Self {
        Trace {
            name: name.to_string(),
            events: Vec::new(),
        }
    }

    /// The trace label (module/function/loop identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterator over events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Approximate resident bytes of the in-memory trace (the event buffer
    /// plus the name); used when comparing the batch pipeline's footprint
    /// against the streaming engine, which never materializes this buffer.
    pub fn approx_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<TraceEvent>() + self.name.len()
    }

    /// Serializes to the compact vectorscope binary trace format.
    ///
    /// Layout: magic `VSTR`, version byte, name (u32 length + UTF-8),
    /// event count (u64), then per event: `inst:u32 activation:u32 tag:u8
    /// payload`. Tags: 0 = plain without address, 1 = plain with address
    /// (u64), 2 = call (u32 callee activation), 3 = ret.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.name.len() + self.events.len() * 10);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.inst.0.to_le_bytes());
            out.extend_from_slice(&e.activation.to_le_bytes());
            match e.kind {
                EventKind::Plain { addr: None } => out.push(0),
                EventKind::Plain { addr: Some(a) } => {
                    out.push(1);
                    out.extend_from_slice(&a.to_le_bytes());
                }
                EventKind::Call { callee_activation } => {
                    out.push(2);
                    out.extend_from_slice(&callee_activation.to_le_bytes());
                }
                EventKind::Ret => out.push(3),
            }
        }
        out
    }

    /// Decodes a trace previously produced by [`Trace::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, DecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(r.err("bad magic"));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(r.err(format!("unsupported version {version}")));
        }
        let name_len = r.u32()? as usize;
        let name_bytes = r.take(name_len)?.to_vec();
        let name = String::from_utf8(name_bytes).map_err(|_| r.err("name is not UTF-8"))?;
        let count = r.u64()? as usize;
        // Guard against absurd counts in corrupt files.
        if count > bytes.len() {
            return Err(r.err(format!("event count {count} exceeds input size")));
        }
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let inst = InstId(r.u32()?);
            let activation = r.u32()?;
            let kind = match r.u8()? {
                0 => EventKind::Plain { addr: None },
                1 => EventKind::Plain {
                    addr: Some(r.u64()?),
                },
                2 => EventKind::Call {
                    callee_activation: r.u32()?,
                },
                3 => EventKind::Ret,
                t => return Err(r.err(format!("unknown event tag {t}"))),
            };
            events.push(TraceEvent {
                inst,
                activation,
                kind,
            });
        }
        Ok(Trace { name, events })
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let mut t = Trace::new("loop@3");
        t.push(TraceEvent::plain(InstId(7), 0, Some(0xdeadbeef)));
        t.push(TraceEvent::call(InstId(8), 0, 1));
        t.push(TraceEvent::plain(InstId(2), 1, None));
        t.push(TraceEvent::ret(InstId(3), 1));
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(Trace::from_bytes(b"NOPE\x01").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let mut t = Trace::new("x");
        t.push(TraceEvent::plain(InstId(1), 0, Some(42)));
        let bytes = t.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn addr_accessor() {
        assert_eq!(TraceEvent::plain(InstId(0), 0, Some(5)).addr(), Some(5));
        assert_eq!(TraceEvent::call(InstId(0), 0, 1).addr(), None);
        assert_eq!(TraceEvent::ret(InstId(0), 0).addr(), None);
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            any::<u32>(),
            any::<u32>(),
            0u8..4,
            any::<u64>(),
            any::<u32>(),
        )
            .prop_map(|(inst, act, tag, addr, callee)| {
                let kind = match tag {
                    0 => EventKind::Plain { addr: None },
                    1 => EventKind::Plain { addr: Some(addr) },
                    2 => EventKind::Call {
                        callee_activation: callee,
                    },
                    _ => EventKind::Ret,
                };
                TraceEvent {
                    inst: InstId(inst),
                    activation: act,
                    kind,
                }
            })
    }

    proptest! {
        #[test]
        fn roundtrip_any_trace(name in ".{0,20}", events in prop::collection::vec(arb_event(), 0..200)) {
            let mut t = Trace::new(&name);
            t.extend(events);
            let bytes = t.to_bytes();
            prop_assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
        }

        #[test]
        fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
            let _ = Trace::from_bytes(&bytes);
        }
    }
}
