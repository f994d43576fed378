//! Task types flowing through the CSH queues (§4.1).

use std::rc::Rc;

use copier_mem::{AddressSpace, VirtAddr};

use crate::descriptor::SegDescriptor;

/// Service-assigned task identifier.
pub type TaskId = u64;

/// A post-copy handler (§4.1 delegation-based handling).
///
/// `KFunc`s run in Copier's own context upon completion; `UFunc`s are
/// delivered to the client's Handler Queue and run by libCopier.
#[derive(Clone)]
pub enum Handler {
    /// Kernel function: executed by the Copier thread itself.
    KFunc(Rc<dyn Fn()>),
    /// User function: queued for the client's `post_handlers()`.
    UFunc(Rc<dyn Fn()>),
}

impl std::fmt::Debug for Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Handler::KFunc(_) => write!(f, "KFunc(..)"),
            Handler::UFunc(_) => write!(f, "UFunc(..)"),
        }
    }
}

/// An asynchronous copy request.
#[derive(Clone)]
pub struct CopyTask {
    /// Destination address space.
    pub dst_space: Rc<AddressSpace>,
    /// Destination start address.
    pub dst: VirtAddr,
    /// Source address space (may differ — cross-address-space copy).
    pub src_space: Rc<AddressSpace>,
    /// Source start address.
    pub src: VirtAddr,
    /// Bytes to copy.
    pub len: usize,
    /// Segment granularity for the descriptor.
    pub seg: usize,
    /// Shared progress descriptor.
    pub descr: Rc<SegDescriptor>,
    /// Optional post-copy handler.
    pub func: Option<Handler>,
    /// Lazy task (§4.4): lowest priority, usually absorbed, executed only
    /// when depended upon or after the lazy period.
    pub lazy: bool,
    /// Per-task full-verification override (§integrity): forces
    /// `VerifyPolicy::Full` for this task regardless of the service-wide
    /// policy. Set by `amemcpy_verified`.
    pub verify: bool,
}

impl std::fmt::Debug for CopyTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CopyTask")
            .field("dst_space", &self.dst_space.id())
            .field("dst", &self.dst)
            .field("src_space", &self.src_space.id())
            .field("src", &self.src)
            .field("len", &self.len)
            .field("seg", &self.seg)
            .field("lazy", &self.lazy)
            .finish()
    }
}

impl CopyTask {
    /// The destination byte range as `(space, start, end)`.
    pub fn dst_range(&self) -> (u32, u64, u64) {
        (
            self.dst_space.id(),
            self.dst.0,
            self.dst.0 + self.len as u64,
        )
    }

    /// The source byte range as `(space, start, end)`.
    pub fn src_range(&self) -> (u32, u64, u64) {
        (
            self.src_space.id(),
            self.src.0,
            self.src.0 + self.len as u64,
        )
    }
}

/// An entry in a Copy Queue.
#[derive(Debug, Clone)]
pub enum QueueEntry {
    /// A copy request.
    Copy(CopyTask),
    /// A cross-queue barrier (§4.2.1): the recorded position (total pushes)
    /// of the *peer* queue at submission time.
    Barrier {
        /// Peer queue position captured when the barrier was planted.
        peer_pos: u64,
    },
}

/// An entry in a Sync Queue.
#[derive(Clone)]
pub struct SyncTask {
    /// Address space the range refers to.
    pub space_id: u32,
    /// Start of the range to make ready.
    pub addr: VirtAddr,
    /// Length of the range.
    pub len: usize,
    /// `abort` variant (§4.4): discard the matching queued task instead of
    /// prioritizing it.
    pub abort: bool,
    /// Identifies the exact task by its descriptor (aborts must not hit a
    /// newer task that reuses the same buffer — sync and copy queues carry
    /// no mutual ordering).
    pub target: Option<Rc<crate::descriptor::SegDescriptor>>,
}

impl std::fmt::Debug for SyncTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncTask")
            .field("space_id", &self.space_id)
            .field("addr", &self.addr)
            .field("len", &self.len)
            .field("abort", &self.abort)
            .field("target", &self.target.is_some())
            .finish()
    }
}
