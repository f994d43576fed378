//! Simulated processes and the OS container.
//!
//! A [`Process`] couples an address space with a core affinity and
//! (optionally) a libCopier handle. The [`Os`] owns the shared kernel
//! address space, the physical pool, and the subsystems (network stack,
//! Binder, CoW handler) the experiments drive.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier_client::CopierHandle;
use copier_core::Copier;
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem};
use copier_sim::{Core, Machine, SimHandle};

/// A simulated process.
pub struct Process {
    /// Process id.
    pub pid: u32,
    /// The process's address space.
    pub space: Rc<AddressSpace>,
    /// libCopier handle, when the process is a Copier client.
    pub lib: RefCell<Option<Rc<CopierHandle>>>,
}

impl Process {
    /// The process's Copier handle (panics if not registered).
    pub fn lib(&self) -> Rc<CopierHandle> {
        self.lib
            .borrow()
            .as_ref()
            .cloned()
            .expect("process is not a Copier client")
    }
}

/// The simulated operating system.
pub struct Os {
    /// Simulation handle.
    pub h: SimHandle,
    /// The machine this OS runs on.
    pub machine: Rc<Machine>,
    /// Physical memory.
    pub pm: Rc<PhysMem>,
    /// The kernel's own address space (skbs, Binder buffers, kmaps).
    pub kspace: Rc<AddressSpace>,
    /// The machine cost model.
    pub cost: Rc<CostModel>,
    /// The Copier service, when booted with one.
    pub copier: RefCell<Option<Rc<Copier>>>,
    next_pid: Cell<u32>,
    processes: RefCell<Vec<Rc<Process>>>,
}

/// Address-space id reserved for the kernel.
pub const KERNEL_AS: u32 = 0;

impl Os {
    /// Boots an OS over a machine, with `frames` of physical memory.
    pub fn boot(h: &SimHandle, machine: Rc<Machine>, frames: usize) -> Rc<Self> {
        let pm = Rc::new(PhysMem::new(frames, AllocPolicy::Scattered));
        let kspace = AddressSpace::new(KERNEL_AS, Rc::clone(&pm));
        Rc::new(Os {
            h: h.clone(),
            machine,
            pm,
            kspace,
            cost: Rc::new(CostModel::default()),
            copier: RefCell::new(None),
            next_pid: Cell::new(1),
            processes: RefCell::new(Vec::new()),
        })
    }

    /// Installs (and starts) a Copier service on the given dedicated cores.
    pub fn install_copier(
        self: &Rc<Self>,
        cores: Vec<Rc<Core>>,
        cfg: copier_core::CopierConfig,
    ) -> Rc<Copier> {
        let svc = Copier::new(
            &self.h,
            Rc::clone(&self.pm),
            cores,
            Rc::clone(&self.cost),
            cfg,
        );
        svc.start();
        *self.copier.borrow_mut() = Some(Rc::clone(&svc));
        svc
    }

    /// The installed Copier service.
    pub fn copier(&self) -> Rc<Copier> {
        self.copier
            .borrow()
            .as_ref()
            .cloned()
            .expect("no Copier installed")
    }

    /// Spawns a process; registers it with Copier when one is installed.
    pub fn spawn_process(self: &Rc<Self>) -> Rc<Process> {
        let pid = self.next_pid.get();
        self.next_pid.set(pid + 1);
        let space = AddressSpace::new(pid, Rc::clone(&self.pm));
        let lib = self
            .copier
            .borrow()
            .as_ref()
            .map(|svc| CopierHandle::new(svc, Rc::clone(&space)));
        let p = Rc::new(Process {
            pid,
            space,
            lib: RefCell::new(lib),
        });
        self.processes.borrow_mut().push(Rc::clone(&p));
        p
    }

    /// Charges one syscall trap + return on the caller's core.
    pub async fn trap(&self, core: &Rc<Core>) {
        core.advance(self.cost.syscall).await;
    }

    /// Charges a context switch.
    pub(crate) async fn context_switch(&self, core: &Rc<Core>) {
        core.advance(self.cost.context_switch).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::Sim;

    #[test]
    fn boot_and_spawn() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 1024);
        let svc = os.install_copier(vec![os.machine.core(1)], Default::default());
        let p = os.spawn_process();
        assert_eq!(p.pid, 1);
        assert!(p.lib.borrow().is_some());
        svc.stop();
        sim.run();
    }

    #[test]
    fn processes_without_copier_have_no_lib() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 1);
        let os = Os::boot(&h, machine, 64);
        let p = os.spawn_process();
        assert!(p.lib.borrow().is_none());
        sim.run();
    }
}
