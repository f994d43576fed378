//! Mini-PNG: scanline-filtered image decode after a file read (Fig. 2/3's
//! libpng workload).
//!
//! The "file" lives in kernel page-cache buffers; `read()` copies it to
//! userspace (the copy Copier optimizes) and the decoder then unfilters
//! scanlines (real Sub/Up/Paeth arithmetic on real bytes) — sequential
//! access with a wide Copy-Use window, csync'ed one scanline ahead.

use std::rc::Rc;

use copier_client::{sync_copy, AmemcpyOpts};
use copier_hw::CpuCopyKind;
use copier_mem::{FrameId, MemError, Prot, VirtAddr, PAGE_SIZE};
use copier_os::{Os, Process};
use copier_sim::{Core, Nanos};

/// Unfilter cost ≈ 1.1 ns per byte (per-pixel predictor arithmetic).
pub const UNFILTER_NS_PER_KB: u64 = 1100;
/// File-read syscall bookkeeping beyond the trap (page-cache lookup).
pub const READ_OVERHEAD: Nanos = Nanos(400);

/// Applies PNG filters per scanline (host-side reference encoder).
pub fn filter_image(rows: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let zero = vec![0u8; rows.first().map_or(0, Vec::len)];
    for (r, row) in rows.iter().enumerate() {
        let prev = if r == 0 { &zero } else { &rows[r - 1] };
        let ftype = (r % 3) as u8; // cycle Sub/Up/Paeth-ish
        out.push(ftype);
        for (i, &b) in row.iter().enumerate() {
            let left = if i == 0 { 0 } else { row[i - 1] };
            let up = prev[i];
            let pred = match ftype {
                0 => left,
                1 => up,
                _ => ((left as u16 + up as u16) / 2) as u8,
            };
            out.push(b.wrapping_sub(pred));
        }
    }
    out
}

/// A decoded image: unfiltered rows.
pub fn unfilter_rows(filtered: &[u8], width: usize) -> Vec<Vec<u8>> {
    let stride = width + 1;
    let nrows = filtered.len() / stride;
    let mut rows: Vec<Vec<u8>> = Vec::with_capacity(nrows);
    for r in 0..nrows {
        let ftype = filtered[r * stride];
        let _src = &filtered[r * stride + 1..(r + 1) * stride];
        let mut row = vec![0u8; width];
        for i in 0..width {
            let left = if i == 0 { 0 } else { row[i - 1] };
            let up = if r == 0 { 0 } else { rows[r - 1][i] };
            let pred = match ftype {
                0 => left,
                1 => up,
                _ => ((left as u16 + up as u16) / 2) as u8,
            };
            row[i] = filtered[r * stride + 1 + i].wrapping_add(pred);
        }
        rows.push(row);
    }
    rows
}

/// A "file" resident in the kernel page cache.
pub struct CachedFile {
    /// Kernel VA of the contents.
    pub kva: VirtAddr,
    /// File length.
    pub len: usize,
}

impl CachedFile {
    /// Stores `data` into fresh page-cache pages.
    pub fn create(os: &Rc<Os>, data: &[u8]) -> Result<CachedFile, MemError> {
        let pages = data.len().div_ceil(PAGE_SIZE).max(1);
        let first = os.pm.alloc_contiguous(pages)?;
        let frames: Vec<FrameId> = (0..pages).map(|i| FrameId(first.0 + i as u32)).collect();
        let kva = os.kspace.map_shared(&frames, Prot::RW)?;
        for &f in &frames {
            os.pm.decref(f);
        }
        os.kspace.write_bytes(kva, data)?;
        Ok(CachedFile {
            kva,
            len: data.len(),
        })
    }

    /// `read()`: copies the file into `[buf, buf+len)` — synchronously or
    /// as a kernel Copy Task.
    pub async fn read(
        &self,
        os: &Rc<Os>,
        core: &Rc<Core>,
        proc: &Rc<Process>,
        buf: VirtAddr,
        use_copier: bool,
    ) -> Result<usize, MemError> {
        os.trap(core).await;
        core.advance(READ_OVERHEAD).await;
        if use_copier {
            let opts = AmemcpyOpts {
                src_space: Some(Rc::clone(&os.kspace)),
                ..Default::default()
            };
            let submitted = proc
                .lib()
                .kernel_amemcpy(core, buf, self.kva, self.len, opts)
                .await;
            if submitted.is_err() {
                // Overloaded: the page-cache read degrades to a
                // synchronous kernel→user copy (§4.6 fallback).
                sync_copy(
                    core,
                    &os.cost,
                    CpuCopyKind::Erms,
                    &proc.space,
                    buf,
                    &os.kspace,
                    self.kva,
                    self.len,
                )
                .await?;
            }
        } else {
            sync_copy(
                core,
                &os.cost,
                CpuCopyKind::Erms,
                &proc.space,
                buf,
                &os.kspace,
                self.kva,
                self.len,
            )
            .await?;
        }
        Ok(self.len)
    }
}

/// Reads and decodes a filtered image of `width`-byte rows; returns the
/// decoded rows and the decode latency.
pub async fn decode_png(
    os: &Rc<Os>,
    core: &Rc<Core>,
    proc: &Rc<Process>,
    file: &CachedFile,
    buf: VirtAddr,
    width: usize,
    use_copier: bool,
) -> Result<(Vec<Vec<u8>>, Nanos), MemError> {
    let t0 = os.h.now();
    let n = file.read(os, core, proc, buf, use_copier).await?;
    let lib = use_copier.then(|| proc.lib());
    let stride = width + 1;
    let nrows = n / stride;
    let mut filtered = vec![0u8; n];
    for r in 0..nrows {
        let off = r * stride;
        if let Some(lib) = &lib {
            lib.csync(core, buf.add(off), stride).await.expect("row");
        }
        proc.space
            .read_bytes(buf.add(off), &mut filtered[off..off + stride])?;
        core.advance(Nanos(stride as u64 * UNFILTER_NS_PER_KB / 1024))
            .await;
    }
    Ok((unfilter_rows(&filtered, width), os.h.now() - t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim, SimRng};
    use std::cell::RefCell;

    #[test]
    fn filter_unfilter_round_trips() {
        let rng = SimRng::new(21);
        let rows: Vec<Vec<u8>> = (0..20)
            .map(|_| {
                let mut r = vec![0u8; 100];
                rng.fill_bytes(&mut r);
                r
            })
            .collect();
        let f = filter_image(&rows);
        assert_eq!(unfilter_rows(&f, 100), rows);
    }

    fn run(use_copier: bool, width: usize, nrows: usize) -> (Nanos, bool) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 8192);
        if use_copier {
            os.install_copier(vec![os.machine.core(1)], Default::default());
        }
        let proc = os.spawn_process();
        let core = os.machine.core(0);
        let rng = SimRng::new(2);
        let rows: Vec<Vec<u8>> = (0..nrows)
            .map(|_| {
                let mut r = vec![0u8; width];
                rng.fill_bytes(&mut r);
                r
            })
            .collect();
        let filtered = filter_image(&rows);
        let os2 = Rc::clone(&os);
        let out = Rc::new(RefCell::new((Nanos::ZERO, false)));
        let out2 = Rc::clone(&out);
        sim.spawn("decode", async move {
            let file = CachedFile::create(&os2, &filtered).unwrap();
            let buf = proc.space.mmap(file.len, Prot::RW, true).unwrap();
            let (decoded, lat) = decode_png(&os2, &core, &proc, &file, buf, width, use_copier)
                .await
                .unwrap();
            *out2.borrow_mut() = (lat, decoded == rows);
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        let o = out.borrow();
        (o.0, o.1)
    }

    #[test]
    fn baseline_decodes_correctly() {
        let (lat, ok) = run(false, 512, 32); // ~16 KB image
        assert!(ok);
        assert!(lat > Nanos::ZERO);
    }

    #[test]
    fn copier_pipeline_decodes_correctly_and_faster() {
        let (base, ok1) = run(false, 512, 32);
        let (cop, ok2) = run(true, 512, 32);
        assert!(ok1 && ok2);
        assert!(cop < base, "copier {cop} vs baseline {base}");
    }
}
