//! Virtual address spaces: VMAs, page tables, demand paging, and CoW.
//!
//! This is the slice of a kernel memory subsystem Copier has to coordinate
//! with (§4.5.4): virtual addresses submitted by clients may be unbacked
//! (on-demand paging), write-protected (CoW), pinned, or simply illegal, and
//! the service must resolve all of that *proactively* in its own context.
//!
//! The model is a per-process [`AddressSpace`]: a `BTreeMap` of VMAs plus a
//! single-level page table mapping virtual page numbers to [`FrameId`]s.
//! A monotonically increasing *generation* is bumped on every change that
//! could invalidate a cached translation — the hook the ATCache (§4.3)
//! subscribes to.

use std::cell::Cell;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::phys::{extent_seed, fold_words, FrameId, PhysError, PhysMem, PAGE_SIZE};

/// What an unmapped page reads as (demand-zero), for folding it in place.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// A virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Address plus byte offset.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, off: usize) -> VirtAddr {
        VirtAddr(self.0 + off as u64)
    }

    /// The virtual page number containing this address.
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Byte offset within the page.
    pub fn page_off(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Whether the address is page aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE as u64)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Base of the user mmap area.
pub const USER_BASE: u64 = 0x0000_1000_0000;
/// Any address at or above this is a (simulated) kernel address; user tasks
/// naming such addresses fail Copier's security check.
pub const KERNEL_BASE: u64 = 0xFFFF_8000_0000_0000;

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Prot {
    /// Read-only protection.
    pub const RO: Prot = Prot {
        read: true,
        write: false,
    };
    /// Read-write protection.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
    };

    /// Whether this protection grants a write (`write`) or a read access.
    fn permits(self, write: bool) -> bool {
        if write {
            self.write
        } else {
            self.read
        }
    }
}

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Backing frame.
    pub frame: FrameId,
    /// Hardware-writable right now (false for unbroken CoW pages).
    pub writable: bool,
    /// Copy-on-write: a write fault must duplicate the frame.
    pub cow: bool,
}

#[derive(Debug, Clone)]
struct Vma {
    end: u64,
    prot: Prot,
    /// Shared mappings never turn CoW on fork and never break on write.
    shared: bool,
}

/// Why an access could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No VMA covers the address, or protection forbids the access — the
    /// process would receive SIGSEGV.
    Segv(VirtAddr),
    /// Physical memory exhausted while handling a fault.
    OutOfMemory,
    /// Physical memory too fragmented for a required contiguous run.
    Fragmented,
    /// The operation would tear down a pinned mapping.
    Pinned(VirtAddr),
    /// Address arithmetic overflowed or the range is empty/kernel-reserved.
    BadRange,
}

impl From<PhysError> for MemError {
    fn from(e: PhysError) -> Self {
        // Exhaustive: each physical cause keeps its identity so fault-path
        // tests (and future compaction logic) can tell them apart.
        match e {
            PhysError::OutOfMemory => MemError::OutOfMemory,
            PhysError::Fragmented => MemError::Fragmented,
        }
    }
}

/// What a fault resolution did, for cost accounting by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultWork {
    /// Page-table walks performed.
    pub walks: u32,
    /// Demand-zero pages allocated.
    pub demand_zero: u32,
    /// CoW faults resolved by re-mapping only (sole owner).
    pub cow_remap: u32,
    /// CoW faults that required a full page copy.
    pub cow_copy: u32,
    /// Bytes physically copied by CoW breaks.
    pub bytes_copied: usize,
}

impl FaultWork {
    /// Accumulates another resolution's work.
    pub fn add(&mut self, o: FaultWork) {
        self.walks += o.walks;
        self.demand_zero += o.demand_zero;
        self.cow_remap += o.cow_remap;
        self.cow_copy += o.cow_copy;
        self.bytes_copied += o.bytes_copied;
    }
}

/// A physically contiguous extent of a virtual range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First frame of the extent.
    pub frame: FrameId,
    /// Byte offset within the first frame.
    pub off: usize,
    /// Total length in bytes (may span multiple contiguous frames).
    pub len: usize,
}

/// Identifies an address space (process) for diagnostics.
pub type AsId = u32;

/// Source of [`AddressSpace::instance`] tokens. Only ever compared for
/// equality, so the values a run happens to draw do not reach any output.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// A simulated process address space.
pub struct AddressSpace {
    id: AsId,
    instance: u64,
    pm: Rc<PhysMem>,
    vmas: RefCell<BTreeMap<u64, Vma>>,
    pt: RefCell<BTreeMap<u64, Pte>>,
    generation: Cell<u64>,
    next_va: Cell<u64>,
    /// Cumulative fault work, for experiment reporting.
    stats: RefCell<FaultWork>,
}

impl AddressSpace {
    /// Creates an empty address space over the given physical pool.
    pub fn new(id: AsId, pm: Rc<PhysMem>) -> Rc<Self> {
        Rc::new(AddressSpace {
            id,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            pm,
            vmas: RefCell::new(BTreeMap::new()),
            pt: RefCell::new(BTreeMap::new()),
            generation: Cell::new(0),
            next_va: Cell::new(USER_BASE),
            stats: RefCell::new(FaultWork::default()),
        })
    }

    /// This space's id.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// A token no other `AddressSpace` of this process ever carries, not
    /// even one created later with the same [`AsId`]: what a translation
    /// cache must key on, since ids are caller-chosen and generations
    /// restart at 0.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The backing physical pool.
    pub fn phys(&self) -> &Rc<PhysMem> {
        &self.pm
    }

    /// Translation-cache generation; bumped whenever any mapping changes.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    fn bump(&self) {
        self.generation.set(self.generation.get() + 1);
    }

    /// Cumulative fault work since creation.
    pub fn fault_stats(&self) -> FaultWork {
        *self.stats.borrow()
    }

    /// Resets the cumulative fault counters.
    pub fn reset_fault_stats(&self) {
        *self.stats.borrow_mut() = FaultWork::default();
    }

    fn alloc_va(&self, len: usize) -> VirtAddr {
        let pages = len.div_ceil(PAGE_SIZE).max(1) as u64;
        let va = self.next_va.get();
        // A guard page between mappings catches off-by-one overruns.
        self.next_va.set(va + (pages + 1) * PAGE_SIZE as u64);
        VirtAddr(va)
    }

    /// Maps `len` bytes of anonymous memory.
    ///
    /// `populate` eagerly backs every page (like `MAP_POPULATE`); otherwise
    /// pages appear on first touch (demand-zero).
    pub fn mmap(&self, len: usize, prot: Prot, populate: bool) -> Result<VirtAddr, MemError> {
        if len == 0 {
            return Err(MemError::BadRange);
        }
        let va = self.alloc_va(len);
        let pages = len.div_ceil(PAGE_SIZE) as u64;
        self.vmas.borrow_mut().insert(
            va.0,
            Vma {
                end: va.0 + pages * PAGE_SIZE as u64,
                prot,
                shared: false,
            },
        );
        if populate {
            for p in 0..pages {
                let frame = self.pm.alloc()?;
                self.pt.borrow_mut().insert(
                    va.vpn() + p,
                    Pte {
                        frame,
                        writable: prot.write,
                        cow: false,
                    },
                );
            }
        }
        self.bump();
        Ok(va)
    }

    /// Maps existing frames as a *shared* region (e.g. Binder's receive
    /// window, Copier's descriptor shm). Increments each frame's refcount.
    pub fn map_shared(&self, frames: &[FrameId], prot: Prot) -> Result<VirtAddr, MemError> {
        if frames.is_empty() {
            return Err(MemError::BadRange);
        }
        let va = self.alloc_va(frames.len() * PAGE_SIZE);
        self.vmas.borrow_mut().insert(
            va.0,
            Vma {
                end: va.0 + (frames.len() * PAGE_SIZE) as u64,
                prot,
                shared: true,
            },
        );
        let mut pt = self.pt.borrow_mut();
        for (i, &f) in frames.iter().enumerate() {
            self.pm.incref(f);
            pt.insert(
                va.vpn() + i as u64,
                Pte {
                    frame: f,
                    writable: prot.write,
                    cow: false,
                },
            );
        }
        drop(pt);
        self.bump();
        Ok(va)
    }

    /// Unmaps `[va, va+len)`. Fails if any covered frame is pinned.
    pub fn munmap(&self, va: VirtAddr, len: usize) -> Result<(), MemError> {
        let pages = len.div_ceil(PAGE_SIZE) as u64;
        // Refuse if pinned (the paper locks mappings for in-flight copies).
        {
            let pt = self.pt.borrow();
            for p in 0..pages {
                if let Some(pte) = pt.get(&(va.vpn() + p)) {
                    if self.pm.is_pinned(pte.frame) {
                        return Err(MemError::Pinned(VirtAddr(
                            (va.vpn() + p) * PAGE_SIZE as u64,
                        )));
                    }
                }
            }
        }
        let mut pt = self.pt.borrow_mut();
        for p in 0..pages {
            if let Some(pte) = pt.remove(&(va.vpn() + p)) {
                self.pm.decref(pte.frame);
            }
        }
        drop(pt);
        self.vmas.borrow_mut().remove(&va.0);
        self.bump();
        Ok(())
    }

    /// Changes the protection of the mapping that starts at `va` (whole
    /// mappings only, like [`Self::munmap`]). Present pages lose or regain
    /// write permission with it; CoW pages stay write-protected until
    /// their fault breaks the sharing.
    pub fn mprotect(&self, va: VirtAddr, prot: Prot) -> Result<(), MemError> {
        let mut vmas = self.vmas.borrow_mut();
        let vma = vmas.get_mut(&va.0).ok_or(MemError::Segv(va))?;
        vma.prot = prot;
        let (first, end) = (va.vpn(), vma.end / PAGE_SIZE as u64);
        drop(vmas);
        for (_, pte) in self.pt.borrow_mut().range_mut(first..end) {
            pte.writable = prot.write && !pte.cow;
        }
        self.bump();
        Ok(())
    }

    fn vma_for(&self, va: VirtAddr) -> Option<Vma> {
        let vmas = self.vmas.borrow();
        vmas.range(..=va.0)
            .next_back()
            .filter(|(_, v)| va.0 < v.end)
            .map(|(_, v)| v.clone())
    }

    /// Raw page-table lookup (no faulting).
    pub fn translate(&self, va: VirtAddr) -> Option<Pte> {
        self.pt.borrow().get(&va.vpn()).copied()
    }

    /// Non-faulting FNV digest of the extent `[va, va+len)` through pure
    /// page-table lookups: the length plus the bytes of every page when
    /// `full`, else of the first and last pages only. Unmapped pages fold
    /// as zeros (demand-zero semantics), so digesting never touches the
    /// space — no fault, no allocation, no generation bump. Digests are
    /// only comparable at the same coverage.
    ///
    /// The crash-recovery journal samples head and tail, to detect torn
    /// destinations: `O(PAGE_SIZE)` per admission whatever the length, and
    /// a partial copy lands a prefix, so the head page catches it (damage
    /// confined to interior pages hashes identically). The scrubber
    /// digests in full: `O(len)`, and any byte difference shows.
    pub fn extent_digest(&self, va: VirtAddr, len: usize, full: bool) -> u64 {
        let mut h = extent_seed(len);
        if len == 0 {
            return h;
        }
        let end = va.0 + len as u64;
        let page = PAGE_SIZE as u64;
        let last_vpn = (end - 1) / page;
        let mut vpn = va.vpn();
        loop {
            let s = (vpn * page).max(va.0);
            let e = ((vpn + 1) * page).min(end);
            let addr = VirtAddr(s);
            let len = (e - s) as usize;
            h = match self.translate(addr) {
                Some(pte) => self.pm.fold_page(h, pte.frame, addr.page_off(), len),
                None => fold_words(h, &ZERO_PAGE[..len]),
            };
            if vpn == last_vpn {
                return h;
            }
            // Every page when `full`, else from the head straight to the tail.
            vpn = if full { vpn + 1 } else { last_vpn };
        }
    }

    /// Resolves one page for an access, faulting as needed: the space's one
    /// fault handler (demand-zero, CoW remap, CoW copy), which
    /// [`Self::resolve_range`], `read_bytes` and `write_bytes` all go
    /// through.
    ///
    /// Returns the backing frame and the work done (for cost charging).
    pub fn resolve(&self, va: VirtAddr, write: bool) -> Result<(FrameId, FaultWork), MemError> {
        if va.0 >= KERNEL_BASE {
            return Err(MemError::Segv(va));
        }
        let mut work = FaultWork {
            walks: 1,
            ..FaultWork::default()
        };
        let vma = self.vma_for(va).ok_or(MemError::Segv(va))?;
        if !vma.prot.permits(write) {
            return Err(MemError::Segv(va));
        }
        let vpn = va.vpn();
        let existing = self.pt.borrow().get(&vpn).copied();
        let frame = match existing {
            None => {
                // Demand-zero fault.
                let frame = self.pm.alloc()?;
                self.pt.borrow_mut().insert(
                    vpn,
                    Pte {
                        frame,
                        writable: vma.prot.write,
                        cow: false,
                    },
                );
                work.demand_zero += 1;
                self.bump();
                frame
            }
            Some(pte) if write && !pte.writable => {
                if !pte.cow {
                    return Err(MemError::Segv(va));
                }
                if self.pm.refcount(pte.frame) == 1 {
                    // Sole owner: just restore write permission.
                    self.pt.borrow_mut().insert(
                        vpn,
                        Pte {
                            frame: pte.frame,
                            writable: true,
                            cow: false,
                        },
                    );
                    work.cow_remap += 1;
                    self.bump();
                    pte.frame
                } else {
                    // Break CoW: allocate, copy, swing the PTE.
                    let new = self.pm.alloc()?;
                    work.bytes_copied += self.pm.copy_frame(new, pte.frame);
                    self.pm.decref(pte.frame);
                    self.pt.borrow_mut().insert(
                        vpn,
                        Pte {
                            frame: new,
                            writable: true,
                            cow: false,
                        },
                    );
                    work.cow_copy += 1;
                    self.bump();
                    new
                }
            }
            Some(pte) => pte.frame,
        };
        self.stats.borrow_mut().add(work);
        Ok((frame, work))
    }

    /// Pins every frame the extents span and returns them in address order,
    /// for a later [`Self::unpin_frames`]: a translated range stays locked
    /// against `munmap` and remapping while a copy is in flight (§4.5.4).
    pub fn pin_extents(&self, extents: &[Extent]) -> Vec<FrameId> {
        let frames = frames_of(extents);
        for &f in &frames {
            self.pm.pin(f);
        }
        frames
    }

    /// Unpins frames previously pinned by [`Self::pin_extents`].
    pub fn unpin_frames(&self, frames: &[FrameId]) {
        for &f in frames {
            self.pm.unpin(f);
        }
    }

    /// Translates `[va, va+len)` for an access, faulting as needed
    /// (Copier's proactive fault handling, §4.5.4), into maximal physically
    /// contiguous [`Extent`]s, and returns them with the fault work done.
    ///
    /// A *settled* range — every page in a VMA granting the access and
    /// already mapped with the permission it needs, the steady state of a
    /// warm transfer region — costs one ordered page-table scan, and
    /// nothing faults. Any other range is resolved page by page through
    /// [`Self::resolve`], in address order, so it takes the same faults,
    /// books the same per-page [`FaultWork`] into `fault_stats` and fails
    /// at the same page with the same error; the same scan then reads the
    /// extents off what it mapped. Either way the work is one `walks` unit
    /// per page, which is what callers charge virtual time from.
    pub fn resolve_range(
        &self,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Result<(Vec<Extent>, FaultWork), MemError> {
        if len == 0 {
            return Err(MemError::BadRange);
        }
        let first = va.vpn();
        let last = VirtAddr(va.0 + (len - 1) as u64).vpn();
        if self.grants(first, last, write) {
            if let Ok(extents) = self.scan(va, len, write) {
                let work = FaultWork {
                    walks: (last - first + 1) as u32,
                    ..FaultWork::default()
                };
                self.stats.borrow_mut().add(work);
                return Ok((extents, work));
            }
        }
        let mut work = FaultWork::default();
        for p in first..=last {
            work.add(self.resolve(VirtAddr(p * PAGE_SIZE as u64), write)?.1);
        }
        // Every page was just resolved for this access, so the scan reads
        // it back whole.
        let extents = self.scan(va, len, write).map_err(MemError::Segv)?;
        Ok((extents, work))
    }

    /// The physically contiguous extents backing `[va, va+len)` as the page
    /// table holds them now: a pure read that faults nothing, so every page
    /// must already be resolved ([`Self::resolve_range`]). An unmapped page
    /// is `Segv` at the first address of the range it holds.
    pub fn extents(&self, va: VirtAddr, len: usize) -> Result<Vec<Extent>, MemError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        self.scan(va, len, false).map_err(MemError::Segv)
    }

    /// Whether every page `first..=last` is a user page inside a VMA that
    /// grants the access. VMAs are disjoint, so this hops by VMA, not by
    /// page.
    fn grants(&self, first: u64, last: u64, write: bool) -> bool {
        if last * PAGE_SIZE as u64 >= KERNEL_BASE {
            return false;
        }
        let vmas = self.vmas.borrow();
        let mut p = first;
        while p <= last {
            let page_va = p * PAGE_SIZE as u64;
            match vmas.range(..=page_va).next_back() {
                Some((_, vma)) if page_va < vma.end && vma.prot.permits(write) => {
                    p = vma.end.div_ceil(PAGE_SIZE as u64);
                }
                _ => return false,
            }
        }
        true
    }

    /// The space's one extent builder: one ordered scan of the page-table
    /// entries of `[va, va+len)`, merging each page into the extent before
    /// it when its frame follows that extent's last one. `Err` is the first
    /// address of the range whose page is unmapped or, for `write`,
    /// write-protected.
    fn scan(&self, va: VirtAddr, len: usize, write: bool) -> Result<Vec<Extent>, VirtAddr> {
        let first = va.vpn();
        let last = VirtAddr(va.0 + (len - 1) as u64).vpn();
        let pt = self.pt.borrow();
        let mut out: Vec<Extent> = Vec::new();
        let mut next = first;
        let mut remaining = len;
        for (&vpn, pte) in pt.range(first..=last) {
            if vpn != next || (write && !pte.writable) {
                break;
            }
            let off = if vpn == first { va.page_off() } else { 0 };
            let take = remaining.min(PAGE_SIZE - off);
            // Every extent but the range's last ends on a page boundary.
            match out.last_mut() {
                Some(e)
                    if e.frame.0 as usize + (e.off + e.len) / PAGE_SIZE == pte.frame.0 as usize =>
                {
                    e.len += take;
                }
                _ => out.push(Extent {
                    frame: pte.frame,
                    off,
                    len: take,
                }),
            }
            remaining -= take;
            next += 1;
        }
        if next <= last {
            return Err(VirtAddr((next * PAGE_SIZE as u64).max(va.0)));
        }
        Ok(out)
    }

    /// Reads bytes at `va` (faulting pages in as needed).
    pub fn read_bytes(&self, va: VirtAddr, buf: &mut [u8]) -> Result<FaultWork, MemError> {
        let mut work = FaultWork::default();
        let mut done = 0;
        while done < buf.len() {
            let cur = va.add(done);
            let (frame, w) = self.resolve(cur, false)?;
            work.add(w);
            let off = cur.page_off();
            let take = (buf.len() - done).min(PAGE_SIZE - off);
            self.pm.read(frame, off, &mut buf[done..done + take]);
            done += take;
        }
        Ok(work)
    }

    /// Writes bytes at `va` (faulting / breaking CoW as needed).
    pub fn write_bytes(&self, va: VirtAddr, buf: &[u8]) -> Result<FaultWork, MemError> {
        let mut work = FaultWork::default();
        let mut done = 0;
        while done < buf.len() {
            let cur = va.add(done);
            let (frame, w) = self.resolve(cur, true)?;
            work.add(w);
            let off = cur.page_off();
            let take = (buf.len() - done).min(PAGE_SIZE - off);
            self.pm.write(frame, off, &buf[done..done + take]);
            done += take;
        }
        Ok(work)
    }

    /// Clones this space with CoW semantics (fork).
    ///
    /// Private pages in both parent and child become read-only CoW; shared
    /// mappings stay shared and writable.
    pub fn fork(&self, child_id: AsId) -> Result<Rc<AddressSpace>, MemError> {
        let child = AddressSpace::new(child_id, Rc::clone(&self.pm));
        *child.vmas.borrow_mut() = self.vmas.borrow().clone();
        child.next_va.set(self.next_va.get());
        let mut parent_pt = self.pt.borrow_mut();
        let mut child_pt = child.pt.borrow_mut();
        // Shared VMAs keep their PTEs; private ones flip to CoW.
        let vmas = self.vmas.borrow();
        for (&vpn, pte) in parent_pt.iter_mut() {
            let va = VirtAddr(vpn * PAGE_SIZE as u64);
            let shared = vmas
                .range(..=va.0)
                .next_back()
                .map(|(_, v)| v.shared)
                .unwrap_or(false);
            self.pm.incref(pte.frame);
            if shared {
                child_pt.insert(vpn, *pte);
            } else {
                pte.writable = false;
                pte.cow = true;
                child_pt.insert(vpn, *pte);
            }
        }
        drop(child_pt);
        drop(parent_pt);
        drop(vmas);
        self.bump();
        child.bump();
        Ok(child)
    }

    /// Remaps `pages` pages of this space at `dst_va` to alias `src`'s
    /// pages at `src_va` — `src` may be this space or another — CoW-
    /// protected on both sides (zIO's in-place copy elision). Both
    /// addresses must be page-aligned, `dst_va` must lie inside an
    /// existing writable VMA and every source page must be mapped. Old
    /// destination frames are released; pinned destination frames refuse
    /// the remap. All or nothing: a refused remap changes neither space.
    pub fn alias_at(
        &self,
        dst_va: VirtAddr,
        src: &AddressSpace,
        src_va: VirtAddr,
        pages: usize,
    ) -> Result<(), MemError> {
        if !dst_va.is_page_aligned() || !src_va.is_page_aligned() || pages == 0 {
            return Err(MemError::BadRange);
        }
        let vma = self.vma_for(dst_va).ok_or(MemError::Segv(dst_va))?;
        if !vma.prot.write || dst_va.0 + (pages * PAGE_SIZE) as u64 > vma.end {
            return Err(MemError::Segv(dst_va));
        }
        // Check everything before touching either table: a refused remap
        // leaves both spaces, their frames and their generations as they
        // were. An in-flight copy locks a destination page; every source
        // page must be mapped.
        {
            let pt = self.pt.borrow();
            for p in 0..pages as u64 {
                if let Some(pte) = pt.get(&(dst_va.vpn() + p)) {
                    if self.pm.is_pinned(pte.frame) {
                        return Err(MemError::Pinned(VirtAddr(
                            (dst_va.vpn() + p) * PAGE_SIZE as u64,
                        )));
                    }
                }
            }
            let src_pt = src.pt.borrow();
            if (0..pages as u64).any(|p| !src_pt.contains_key(&(src_va.vpn() + p))) {
                return Err(MemError::Segv(src_va));
            }
        }
        for p in 0..pages as u64 {
            let frame = {
                let mut src_pt = src.pt.borrow_mut();
                let spte = src_pt
                    .get_mut(&(src_va.vpn() + p))
                    .expect("source pages checked above");
                spte.writable = false;
                spte.cow = true;
                spte.frame
            };
            self.pm.incref(frame);
            let new = Pte {
                frame,
                writable: false,
                cow: true,
            };
            if let Some(old) = self.pt.borrow_mut().insert(dst_va.vpn() + p, new) {
                self.pm.decref(old.frame);
            }
        }
        if !std::ptr::eq(self, src) {
            src.bump();
        }
        self.bump();
        Ok(())
    }

    /// Replaces the PTE for `va`'s page (CoW handler integration: Copier
    /// copies into a new frame first, then the handler swings the PTE).
    pub fn set_pte(&self, va: VirtAddr, pte: Pte) {
        let old = self.pt.borrow_mut().insert(va.vpn(), pte);
        if let Some(o) = old {
            if o.frame != pte.frame {
                self.pm.decref(o.frame);
            }
        }
        self.bump();
    }

    /// Total mapped pages (diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.pt.borrow().len()
    }
}

impl Drop for AddressSpace {
    fn drop(&mut self) {
        // Release every mapped frame so pools can be reused across phases.
        let pt = self.pt.borrow();
        for pte in pt.values() {
            self.pm.decref(pte.frame);
        }
    }
}

/// Every frame spanned by the extents, in order. Extents are normalized
/// (`off < PAGE_SIZE`), so an extent spans `(off+len)/4KiB` rounded-up
/// frames starting at its base frame.
pub fn frames_of(extents: &[Extent]) -> Vec<FrameId> {
    let pages = |e: &Extent| (e.off + e.len).div_ceil(PAGE_SIZE);
    // Sized once: the list lives on the task's window entry until it
    // completes, so it cannot come from a reused scratch buffer.
    let mut out = Vec::with_capacity(extents.iter().map(pages).sum());
    for e in extents {
        debug_assert!(e.off < PAGE_SIZE);
        out.extend((0..pages(e)).map(|p| FrameId(e.frame.0 + p as u32)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::AllocPolicy;

    fn setup(frames: usize, policy: AllocPolicy) -> (Rc<PhysMem>, Rc<AddressSpace>) {
        let pm = Rc::new(PhysMem::new(frames, policy));
        let asp = AddressSpace::new(1, Rc::clone(&pm));
        (pm, asp)
    }

    #[test]
    fn demand_zero_faults_on_first_touch() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        assert!(asp.translate(va).is_none());
        let mut buf = [0u8; 4];
        let w = asp.read_bytes(va, &mut buf).unwrap();
        assert_eq!(w.demand_zero, 1);
        assert_eq!(buf, [0; 4]);
        assert!(asp.translate(va).is_some());
    }

    #[test]
    fn populate_backs_eagerly() {
        let (pm, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(3 * PAGE_SIZE, Prot::RW, true).unwrap();
        assert_eq!(pm.allocated(), 3);
        let w = asp.write_bytes(va, &[1, 2, 3]).unwrap();
        assert_eq!(w.demand_zero + w.cow_remap + w.cow_copy, 0);
    }

    #[test]
    fn write_roundtrip_across_pages() {
        let (_, asp) = setup(16, AllocPolicy::Scattered);
        let va = asp.mmap(3 * PAGE_SIZE, Prot::RW, false).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        asp.write_bytes(va.add(50), &data).unwrap();
        let mut out = vec![0u8; data.len()];
        asp.read_bytes(va.add(50), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn digest_stride_controls_mid_extent_coverage() {
        let (_, asp) = setup(32, AllocPolicy::Sequential);
        let pages = 8;
        let va = asp.mmap(pages * PAGE_SIZE, Prot::RW, true).unwrap();
        let data: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        asp.write_bytes(va, &data).unwrap();
        let len = data.len();

        let head_tail = asp.extent_digest(va, len, false);
        let full = asp.extent_digest(va, len, true);
        assert_ne!(head_tail, full, "the two coverages fold different bytes");

        // Flip one byte in the dead middle of the extent.
        let mid = VirtAddr(va.0 + (len / 2) as u64);
        asp.write_bytes(mid, &[0xFF]).unwrap();

        assert_eq!(
            asp.extent_digest(va, len, false),
            head_tail,
            "head/tail sampling is blind to mid-extent damage"
        );
        assert_ne!(
            asp.extent_digest(va, len, true),
            full,
            "full coverage detects any byte difference"
        );

        // Sub-page extents agree across both coverages (same single chunk).
        let small = asp.extent_digest(va, 100, false);
        assert_eq!(asp.extent_digest(va, 100, true), small);
    }

    /// The in-place digest folds what a read of the range would return,
    /// chunked at page boundaries: mapped pages from the arena, an
    /// untouched page of a lazy mapping as zeros, and it faults nothing.
    #[test]
    fn extent_digest_folds_in_place_what_a_read_returns() {
        let (pm, asp) = setup(32, AllocPolicy::Scattered);
        let pages = 5;
        let va = asp.mmap(pages * PAGE_SIZE, Prot::RW, false).unwrap();
        let mut want = vec![0u8; pages * PAGE_SIZE];
        for p in [0, 1, 3] {
            let at = p * PAGE_SIZE + 10;
            let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + p) as u8).collect();
            let n = (want.len() - at).min(data.len());
            asp.write_bytes(va.add(at), &data[..n]).unwrap();
            want[at..at + n].copy_from_slice(&data[..n]);
        }
        asp.reset_fault_stats();
        let allocated = pm.allocated();
        for (off, len) in [
            (0, 1),
            (5, 100),
            (100, 4096),
            (4000, 3 * PAGE_SIZE + 17),
            (0, want.len()),
        ] {
            let mut h = extent_seed(len);
            let mut at = off;
            while at < off + len {
                let end = ((at / PAGE_SIZE + 1) * PAGE_SIZE).min(off + len);
                h = fold_words(h, &want[at..end]);
                at = end;
            }
            assert_eq!(
                asp.extent_digest(va.add(off), len, true),
                h,
                "off {off} len {len}"
            );
        }
        assert_eq!(pm.allocated(), allocated, "digesting allocates nothing");
        assert_eq!(
            asp.fault_stats(),
            FaultWork::default(),
            "digesting faults nothing"
        );
    }

    #[test]
    fn segv_outside_vma_and_on_protection() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let mut buf = [0u8; 1];
        assert!(matches!(
            asp.read_bytes(VirtAddr(0x500), &mut buf),
            Err(MemError::Segv(_))
        ));
        let ro = asp.mmap(PAGE_SIZE, Prot::RO, true).unwrap();
        assert!(matches!(asp.write_bytes(ro, &[1]), Err(MemError::Segv(_))));
        assert!(matches!(
            asp.read_bytes(VirtAddr(KERNEL_BASE + 8), &mut buf),
            Err(MemError::Segv(_))
        ));
    }

    #[test]
    fn fork_cow_preserves_isolation() {
        let (pm, parent) = setup(32, AllocPolicy::Sequential);
        let va = parent.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        parent.write_bytes(va, b"parent data").unwrap();
        let child = parent.fork(2).unwrap();

        // Child sees parent's data without copying yet.
        let mut buf = [0u8; 11];
        child.read_bytes(va, &mut buf).unwrap();
        assert_eq!(&buf, b"parent data");
        let before = pm.allocated();

        // Child write breaks CoW with a real copy.
        let w = child.write_bytes(va, b"child!").unwrap();
        assert_eq!(w.cow_copy, 1);
        assert_eq!(w.bytes_copied, PAGE_SIZE);
        assert_eq!(pm.allocated(), before + 1);

        parent.read_bytes(va, &mut buf).unwrap();
        assert_eq!(&buf, b"parent data");
        child.read_bytes(va, &mut buf).unwrap();
        assert_eq!(&buf[..6], b"child!");
    }

    #[test]
    fn cow_sole_owner_remaps_without_copy() {
        let (_, parent) = setup(32, AllocPolicy::Sequential);
        let va = parent.mmap(PAGE_SIZE, Prot::RW, false).unwrap();
        parent.write_bytes(va, b"x").unwrap();
        let child = parent.fork(2).unwrap();
        // Child writes (copies); then the parent is sole owner of its frame?
        // No — child's write decrefs parent's frame to 1, so the parent's
        // next write is a pure remap.
        child.write_bytes(va, b"c").unwrap();
        let w = parent.write_bytes(va, b"p").unwrap();
        assert_eq!(w.cow_remap, 1);
        assert_eq!(w.cow_copy, 0);
    }

    #[test]
    fn extents_merge_contiguous_frames() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        let ex = asp.extents(va.add(100), 2 * PAGE_SIZE).unwrap();
        // Sequential policy → frames contiguous → single extent.
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].off, 100);
        assert_eq!(ex[0].len, 2 * PAGE_SIZE);
    }

    #[test]
    fn extents_split_on_fragmentation() {
        let (_, asp) = setup(64, AllocPolicy::Scattered);
        let va = asp.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        let ex = asp.extents(va, 4 * PAGE_SIZE).unwrap();
        assert!(ex.len() > 1, "scattered frames should fragment extents");
        let total: usize = ex.iter().map(|e| e.len).sum();
        assert_eq!(total, 4 * PAGE_SIZE);
    }

    /// The per-page reference: `resolve` page by page, in address order.
    fn per_page(
        asp: &AddressSpace,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Result<(Vec<FrameId>, FaultWork), MemError> {
        let last = VirtAddr(va.0 + (len - 1) as u64).vpn();
        let mut frames = Vec::new();
        let mut work = FaultWork::default();
        for p in va.vpn()..=last {
            let (f, w) = asp.resolve(VirtAddr(p * PAGE_SIZE as u64), write)?;
            frames.push(f);
            work.add(w);
        }
        Ok((frames, work))
    }

    #[test]
    fn resolve_range_matches_per_page_path() {
        // Two identically seeded spaces: one walked per page, one batched.
        let build = |policy| {
            let (pm, asp) = setup(64, policy);
            let va = asp.mmap(6 * PAGE_SIZE, Prot::RW, false).unwrap();
            asp.write_bytes(va, b"warm first two pages and a bit")
                .unwrap();
            asp.write_bytes(va.add(PAGE_SIZE + 7), b"x").unwrap();
            (pm, asp, va)
        };
        for policy in [AllocPolicy::Sequential, AllocPolicy::Scattered] {
            let (_, a, va) = build(policy);
            let (_, b, _) = build(policy);
            let range = (va.add(123), 4 * PAGE_SIZE + 500);

            let (ref_frames, ref_work) = per_page(&a, range.0, range.1, true).unwrap();
            let (ex, work) = b.resolve_range(range.0, range.1, true).unwrap();
            assert_eq!(work, ref_work);
            assert_eq!(frames_of(&ex), ref_frames);
            assert_eq!(ex, a.extents(range.0, range.1).unwrap());
            assert_eq!(a.fault_stats(), b.fault_stats());
        }
    }

    #[test]
    fn resolve_range_breaks_cow_like_per_page() {
        let (pm, parent) = setup(64, AllocPolicy::Sequential);
        let va = parent.mmap(3 * PAGE_SIZE, Prot::RW, true).unwrap();
        parent.write_bytes(va, b"shared").unwrap();
        let child = parent.fork(2).unwrap();
        let before = pm.allocated();
        let (ex, work) = child.resolve_range(va, 3 * PAGE_SIZE, true).unwrap();
        assert_eq!(work.cow_copy, 3);
        assert_eq!(work.bytes_copied, 3 * PAGE_SIZE);
        assert_eq!(pm.allocated(), before + 3);
        assert_eq!(ex.iter().map(|e| e.len).sum::<usize>(), 3 * PAGE_SIZE);
        // Parent data is intact and the child now owns private frames.
        let mut buf = [0u8; 6];
        parent.read_bytes(va, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn resolve_range_fails_where_per_page_fails() {
        let (_, asp) = setup(64, AllocPolicy::Sequential);
        let ro = asp.mmap(2 * PAGE_SIZE, Prot::RO, true).unwrap();
        assert_eq!(
            asp.resolve_range(ro, 2 * PAGE_SIZE, true),
            Err(MemError::Segv(ro))
        );
        assert_eq!(asp.resolve_range(ro, 0, false), Err(MemError::BadRange));
        // A range running off the end of the VMA faults its pages in, then
        // fails on the page past it.
        let rw = asp.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        let past = VirtAddr(rw.0 + 2 * PAGE_SIZE as u64);
        assert_eq!(
            asp.resolve_range(rw, 3 * PAGE_SIZE, true),
            Err(MemError::Segv(past))
        );
        assert_eq!(asp.fault_stats().demand_zero, 2);
        assert_eq!(asp.fault_stats().walks, 2);
    }

    /// What the settled scan must refuse, each a mutant it kills: a scan
    /// without the VMA check hands out a page `munmap` left behind its
    /// VMA; one that ignores `writable` hands a write the CoW-shared
    /// frame; one that steps over a hole skips its demand-zero fault; one
    /// that merges by page number, not frame, fuses scattered frames.
    #[test]
    fn the_settled_scan_refuses_what_resolve_refuses() {
        let (_, asp) = setup(64, AllocPolicy::Sequential);
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        // Unmapping the first page drops the whole VMA, not the second PTE.
        asp.munmap(va, PAGE_SIZE).unwrap();
        let orphan = va.add(PAGE_SIZE);
        assert!(asp.translate(orphan).is_some());
        assert_eq!(
            asp.resolve_range(orphan, 8, false),
            Err(MemError::Segv(orphan))
        );

        let shared = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        let _child = asp.fork(2).unwrap();
        let before = asp.translate(shared).unwrap().frame;
        let (ex, work) = asp.resolve_range(shared, 2 * PAGE_SIZE, true).unwrap();
        assert_eq!(work.cow_copy, 2);
        assert_ne!(ex[0].frame, before);

        let holed = asp.mmap(3 * PAGE_SIZE, Prot::RW, false).unwrap();
        asp.write_bytes(holed, &[1]).unwrap();
        asp.write_bytes(holed.add(2 * PAGE_SIZE), &[1]).unwrap();
        let (ex, work) = asp.resolve_range(holed, 3 * PAGE_SIZE, false).unwrap();
        assert_eq!((work.walks, work.demand_zero), (3, 1));
        assert_eq!(ex.iter().map(|e| e.len).sum::<usize>(), 3 * PAGE_SIZE);

        let (_, scattered) = setup(64, AllocPolicy::Scattered);
        let va = scattered.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        let (ex, _) = scattered.resolve_range(va, 4 * PAGE_SIZE, false).unwrap();
        let frames = frames_of(&ex);
        let runs = 1 + frames.windows(2).filter(|w| w[1].0 != w[0].0 + 1).count();
        assert_eq!(ex.len(), runs);
        assert_eq!(
            frames,
            per_page(&scattered, va, 4 * PAGE_SIZE, false).unwrap().0
        );
    }

    #[test]
    fn extents_fail_at_the_first_unmapped_address() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        assert_eq!(
            asp.extents(va.add(100), PAGE_SIZE),
            Err(MemError::Segv(va.add(100)))
        );
        asp.write_bytes(va, &[1]).unwrap();
        let second = VirtAddr(va.0 + PAGE_SIZE as u64);
        assert_eq!(
            asp.extents(va.add(100), PAGE_SIZE),
            Err(MemError::Segv(second))
        );
        assert_eq!(asp.extents(va, 0), Ok(Vec::new()));
    }

    #[test]
    fn pinned_range_blocks_munmap() {
        let (pm, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        let (ex, work) = asp.resolve_range(va, 2 * PAGE_SIZE, true).unwrap();
        assert_eq!(work.demand_zero, 2);
        let frames = asp.pin_extents(&ex);
        assert_eq!(frames.len(), 2);
        assert_eq!(pm.pinned_frames(), 2);
        assert!(matches!(
            asp.munmap(va, 2 * PAGE_SIZE),
            Err(MemError::Pinned(_))
        ));
        asp.unpin_frames(&frames);
        asp.munmap(va, 2 * PAGE_SIZE).unwrap();
    }

    #[test]
    fn generation_bumps_on_mapping_changes() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let g0 = asp.generation();
        let va = asp.mmap(PAGE_SIZE, Prot::RW, false).unwrap();
        assert!(asp.generation() > g0);
        let g1 = asp.generation();
        asp.write_bytes(va, &[1]).unwrap(); // demand-zero fault remaps
        assert!(asp.generation() > g1);
        let g2 = asp.generation();
        let mut buf = [0u8; 1];
        asp.read_bytes(va, &mut buf).unwrap(); // plain hit: no bump
        assert_eq!(asp.generation(), g2);
    }

    #[test]
    fn mprotect_revokes_and_restores_write_access() {
        let (_, asp) = setup(16, AllocPolicy::Sequential);
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        let g = asp.generation();
        asp.mprotect(va, Prot::RO).unwrap();
        assert!(asp.generation() > g);
        assert!(matches!(asp.resolve(va, true), Err(MemError::Segv(_))));
        assert!(asp.resolve_range(va, 2 * PAGE_SIZE, true).is_err());
        assert!(asp.resolve(va, false).is_ok());
        assert!(!asp.translate(va).unwrap().writable);
        asp.mprotect(va, Prot::RW).unwrap();
        asp.write_bytes(va.add(PAGE_SIZE), &[7]).unwrap();
        // Only whole mappings, named by their base.
        assert!(asp.mprotect(va.add(PAGE_SIZE), Prot::RO).is_err());
        // A CoW page stays write-protected until its fault breaks the share.
        let _child = asp.fork(2).unwrap();
        asp.mprotect(va, Prot::RW).unwrap();
        assert!(!asp.translate(va).unwrap().writable);
    }

    #[test]
    fn shared_mapping_survives_fork_writable() {
        let (pm, parent) = setup(16, AllocPolicy::Sequential);
        let frames = vec![pm.alloc().unwrap()];
        let va = parent.map_shared(&frames, Prot::RW).unwrap();
        let child = parent.fork(2).unwrap();
        child.write_bytes(va, b"shared!").unwrap();
        let mut buf = [0u8; 7];
        parent.read_bytes(va, &mut buf).unwrap();
        assert_eq!(&buf, b"shared!");
        pm.decref(frames[0]);
    }

    #[test]
    fn drop_releases_frames() {
        let (pm, asp) = setup(16, AllocPolicy::Sequential);
        let _va = asp.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        assert_eq!(pm.allocated(), 4);
        drop(asp);
        assert_eq!(pm.allocated(), 0);
    }
}

#[cfg(test)]
mod alias_at_tests {
    use super::*;
    use crate::phys::AllocPolicy;

    #[test]
    fn alias_at_same_space_elides_copy_until_write() {
        let pm = Rc::new(PhysMem::new(32, AllocPolicy::Sequential));
        let asp = AddressSpace::new(1, Rc::clone(&pm));
        let src = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        let dst = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        asp.write_bytes(src, b"aliased payload").unwrap();
        let before = pm.allocated();
        asp.alias_at(dst, &asp, src, 2).unwrap();
        // The old destination frames were released; no copy happened.
        assert_eq!(pm.allocated(), before - 2);
        let mut buf = [0u8; 15];
        asp.read_bytes(dst, &mut buf).unwrap();
        assert_eq!(&buf, b"aliased payload");
        // A write on either side breaks CoW with a real copy.
        let w = asp.write_bytes(dst, b"X").unwrap();
        assert_eq!(w.cow_copy, 1);
        asp.read_bytes(src, &mut buf).unwrap();
        assert_eq!(&buf, b"aliased payload");
    }

    #[test]
    fn alias_at_rejects_unaligned_and_pinned() {
        let pm = Rc::new(PhysMem::new(32, AllocPolicy::Sequential));
        let asp = AddressSpace::new(1, Rc::clone(&pm));
        let src = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let dst = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        assert!(matches!(
            asp.alias_at(dst.add(1), &asp, src, 1),
            Err(MemError::BadRange)
        ));
        let (ex, _) = asp.resolve_range(dst, PAGE_SIZE, true).unwrap();
        let frames = asp.pin_extents(&ex);
        assert!(matches!(
            asp.alias_at(dst, &asp, src, 1),
            Err(MemError::Pinned(_))
        ));
        asp.unpin_frames(&frames);
        asp.alias_at(dst, &asp, src, 1).unwrap();
    }

    /// A source page with no PTE partway through the range refuses the
    /// whole remap before any destination page moves: no frame released
    /// under a cached translation that no generation bump invalidates.
    #[test]
    fn alias_at_is_all_or_nothing() {
        let pm = Rc::new(PhysMem::new(32, AllocPolicy::Sequential));
        let asp = AddressSpace::new(1, Rc::clone(&pm));
        let dst = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        let src = asp.mmap(2 * PAGE_SIZE, Prot::RW, false).unwrap();
        asp.write_bytes(src, b"page zero only").unwrap();
        let (frame, src_pte) = (asp.translate(dst).unwrap().frame, asp.translate(src));
        let gen = asp.generation();
        assert!(matches!(
            asp.alias_at(dst, &asp, src, 2),
            Err(MemError::Segv(_))
        ));
        assert_eq!(asp.translate(dst).unwrap().frame, frame);
        assert_eq!(asp.generation(), gen);
        assert_eq!(asp.translate(src), src_pte, "the source stays writable");
        assert_eq!(pm.refcount(frame), 1);
    }

    #[test]
    fn alias_at_across_spaces_requires_alignment_and_cows_both_sides() {
        let pm = Rc::new(PhysMem::new(32, AllocPolicy::Sequential));
        let a = AddressSpace::new(1, Rc::clone(&pm));
        let b = AddressSpace::new(2, Rc::clone(&pm));
        let src = a.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        let dst = b.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        a.write_bytes(src, b"zio source").unwrap();
        a.write_bytes(src.add(PAGE_SIZE), b"second page").unwrap();

        for (d, s) in [(dst, src.add(1)), (dst.add(1), src)] {
            assert!(matches!(b.alias_at(d, &a, s, 1), Err(MemError::BadRange)));
        }

        let (ga, gb, before) = (a.generation(), b.generation(), pm.allocated());
        b.alias_at(dst, &a, src, 2).unwrap();
        // Both spaces' cached translations are invalidated, and the old
        // destination frames are released: the bytes are shared, not copied.
        assert!(a.generation() > ga && b.generation() > gb);
        assert_eq!(pm.allocated(), before - 2);
        for p in 0..2 {
            let off = p * PAGE_SIZE;
            let (sp, dp) = (a.translate(src.add(off)), b.translate(dst.add(off)));
            assert_eq!(sp.unwrap().frame, dp.unwrap().frame);
        }
        let mut buf = [0u8; 11];
        b.read_bytes(dst, &mut buf[..10]).unwrap();
        assert_eq!(&buf[..10], b"zio source");

        // A write from the source side copies its page and leaves the
        // destination's bytes alone ...
        let w = a.write_bytes(src, b"SRC").unwrap();
        assert_eq!(w.cow_copy, 1);
        b.read_bytes(dst, &mut buf[..10]).unwrap();
        assert_eq!(&buf[..10], b"zio source");
        // ... and a write from the destination side does the same for the
        // source.
        let w = b.write_bytes(dst.add(PAGE_SIZE), b"DST").unwrap();
        assert_eq!(w.cow_copy, 1);
        a.read_bytes(src.add(PAGE_SIZE), &mut buf).unwrap();
        assert_eq!(&buf, b"second page");
        b.read_bytes(dst.add(PAGE_SIZE), &mut buf).unwrap();
        assert_eq!(&buf, b"DSTond page");
    }
}
