//! The benchmark's own record of a run: one [`OpRec`] per op, stamped at
//! the layer boundaries visible from outside the crates, plus the spans
//! written to `out/<workload>.spans.jsonl` by the traced run.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;

use copier_core::{CopyFault, Handler, SegDescriptor};
use copier_mem::{AddressSpace, VirtAddr};
use copier_sim::SimHandle;

use crate::stats::{OpRec, Outcome};

/// One settled op in this many has its destination compared with its
/// source inside the completion handler; every buffer pair is compared in
/// full at drain.
pub const SETTLE_SAMPLE: usize = 64;

/// A span the benchmark timed around a call into one layer that is not
/// derivable from an [`OpRec`] (csync waits, `NetStack::send`/`recv`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The op the call served (`u32::MAX`: a whole batch).
    pub op: u32,
    pub start: u64,
    pub end: u64,
}

/// A reusable source/destination buffer pair and the longest prefix a
/// successful copy has landed in it (what the drain check compares).
pub struct BufPair {
    pub space: Rc<AddressSpace>,
    pub src: VirtAddr,
    pub dst: VirtAddr,
    pub landed: Cell<usize>,
}

/// Whether `dst[..len]` equals `src[..len]`.
pub fn bytes_equal(space: &AddressSpace, dst: VirtAddr, src: VirtAddr, len: usize) -> bool {
    let mut a = vec![0u8; len];
    let mut b = vec![0u8; len];
    space.read_bytes(src, &mut a).is_ok() && space.read_bytes(dst, &mut b).is_ok() && a == b
}

/// How a settled copy ended: reads the descriptor before calling the op a
/// success (shed and poisoned tasks settle too), compares the bytes of one
/// op in [`SETTLE_SAMPLE`], and notes the landed prefix for the drain check.
pub fn classify(op: usize, descr: &SegDescriptor, pair: &BufPair, len: usize) -> Outcome {
    if descr.fault() == Some(CopyFault::Overloaded) {
        Outcome::Shed
    } else if descr.fault().is_some() || !descr.all_ready() {
        Outcome::Faulted
    } else if op.is_multiple_of(SETTLE_SAMPLE) && !bytes_equal(&pair.space, pair.dst, pair.src, len)
    {
        Outcome::Mismatch
    } else {
        pair.landed.set(pair.landed.get().max(len));
        Outcome::Ok
    }
}

/// Per-run op log shared by generators, completion handlers and the sink.
pub struct Recorder {
    h: SimHandle,
    ops: RefCell<Vec<OpRec>>,
    spans: RefCell<Vec<Span>>,
    /// Whether this is the traced run (extra spans are kept).
    traced: bool,
}

impl Recorder {
    pub fn new(h: &SimHandle, traced: bool, capacity: usize) -> Rc<Self> {
        Rc::new(Recorder {
            h: h.clone(),
            ops: RefCell::new(Vec::with_capacity(capacity)),
            spans: RefCell::new(Vec::new()),
            traced,
        })
    }

    /// Opens the record of an op the generator is about to submit.
    pub fn begin(&self, tenant: usize, len: usize, due: u64) -> usize {
        let mut ops = self.ops.borrow_mut();
        ops.push(OpRec {
            tenant: tenant as u32,
            len: len as u32,
            due,
            submit_start: self.h.now().as_nanos(),
            submit_end: 0,
            settle: 0,
            outcome: Outcome::Pending,
        });
        ops.len() - 1
    }

    /// The submit call returned; a refusal is final.
    pub fn submitted(&self, op: usize, accepted: bool) {
        let mut ops = self.ops.borrow_mut();
        ops[op].submit_end = self.h.now().as_nanos();
        if !accepted {
            ops[op].outcome = Outcome::Refused;
        }
    }

    /// Stamps the settle instant (first stamp wins).
    pub fn stamp_settle(&self, op: usize) {
        let mut ops = self.ops.borrow_mut();
        if ops[op].settle == 0 {
            ops[op].settle = self.h.now().as_nanos();
        }
    }

    pub fn set_outcome(&self, op: usize, outcome: Outcome) {
        self.ops.borrow_mut()[op].outcome = outcome;
    }

    /// The completion handler for `op`: runs on the service thread the
    /// moment the task settles, also when it was shed or poisoned.
    pub fn settle_handler(
        self: &Rc<Self>,
        op: usize,
        descr: &Rc<SegDescriptor>,
        pair: &Rc<BufPair>,
        len: usize,
    ) -> Handler {
        let rec = Rc::clone(self);
        let descr = Rc::clone(descr);
        let pair = Rc::clone(pair);
        Handler::KFunc(Rc::new(move || {
            rec.stamp_settle(op);
            let outcome = classify(op, &descr, &pair, len);
            rec.set_outcome(op, outcome);
        }))
    }

    /// Keeps a span (traced run only).
    pub fn span(&self, name: &'static str, op: usize, start: u64) {
        if self.traced {
            self.spans.borrow_mut().push(Span {
                name,
                op: op as u32,
                start,
                end: self.h.now().as_nanos(),
            });
        }
    }

    pub fn now(&self) -> u64 {
        self.h.now().as_nanos()
    }

    pub fn op_submit_start(&self, op: usize) -> u64 {
        self.ops.borrow()[op].submit_start
    }

    /// The oldest op of `tenant` that has not settled (the one a FIFO
    /// consumer expects next); the newest op if all have.
    pub fn first_pending(&self, tenant: usize) -> usize {
        let ops = self.ops.borrow();
        ops.iter()
            .position(|o| o.tenant as usize == tenant && o.settle == 0)
            .unwrap_or(ops.len().saturating_sub(1))
    }

    /// Hands over the op log once the simulation has stopped.
    pub fn take_ops(&self) -> Vec<OpRec> {
        std::mem::take(&mut self.ops.borrow_mut())
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Durations of the spans called `name`.
pub fn span_durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Writes the traced run's spans as JSON lines: per op an `op` span
/// (due → settle) with its `client.submit` and `core.residency` children,
/// then the extra spans, all sharing the op id.
pub fn write_spans(path: &std::path::Path, ops: &[OpRec], extra: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, o) in ops.iter().enumerate() {
        let outcome = format!("{:?}", o.outcome).to_lowercase();
        writeln!(
            w,
            "{{\"span\":\"op\",\"op\":{i},\"parent\":null,\"tenant\":{},\"len\":{},\"start\":{},\"end\":{},\"outcome\":\"{outcome}\"}}",
            o.tenant, o.len, o.due, o.settle
        )?;
        writeln!(
            w,
            "{{\"span\":\"client.submit\",\"op\":{i},\"parent\":\"op\",\"start\":{},\"end\":{}}}",
            o.submit_start, o.submit_end
        )?;
        if o.settle >= o.submit_end && o.outcome != Outcome::Refused {
            writeln!(
                w,
                "{{\"span\":\"core.residency\",\"op\":{i},\"parent\":\"op\",\"start\":{},\"end\":{}}}",
                o.submit_end, o.settle
            )?;
        }
    }
    for s in extra {
        let op = if s.op == u32::MAX {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            w,
            "{{\"span\":\"{}\",\"op\":{op},\"parent\":\"op\",\"start\":{},\"end\":{}}}",
            s.name, s.start, s.end
        )?;
    }
    w.flush()
}
